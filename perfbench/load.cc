// perfbench_load: closed-loop NDJSON client for a pfqlr (or pfqld) port.
//
//   perfbench_load --port P --requests FILE --seconds S
//                  --latencies OUT --results OUT [--trace]
//
// FILE holds one request per line, "<conn>\t<kind>\t<key>\t<ndjson>".
// Connection c sends its lines in file order, cycling when it runs out,
// and sends the next line only after the previous reply is complete
// (closed loop). A "subscribe" request is complete when its stream's
// terminal push ("complete" or "error") arrives.
//
// Outputs:
//   --latencies  one line per finished request,
//                "<kind>\t<total_ns>\t<kind_ns>\t<ok>\t<done_ns>"; kind_ns
//                is the ack-to-terminal time for subscribe, total_ns
//                otherwise; done_ns is when the request finished, counted
//                from the start of the run
//   --results    distinct "<key>\t<ok>\t<json>" lines, where json is the
//                response's {"result":...} tail (volatile id / cached /
//                elapsed_us fields dropped) or the terminal push line
//   stdout       one summary line of JSON
// --trace adds "trace":true to every request.
//
// The client parses no JSON beyond fixed markers, so it does not share
// code with the server under test.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

struct Item {
  std::string kind;
  std::string key;
  std::string line;  // with trailing '\n'
};

struct Sample {
  std::string kind;
  int64_t total_ns = 0;
  int64_t kind_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

struct ConnResult {
  std::vector<Sample> samples;
  std::set<std::string> results;
  uint64_t wrapped = 0;
  bool transport_error = false;
};

class LineSocket {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  ~LineSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ == buf_.size()) {
          buf_.clear();
          pos_ = 0;
        }
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// {"result":...} tail of a response line, or the whole line when it has
/// no result member (errors).
std::string ResultTail(const std::string& line) {
  const size_t p = line.find("\"result\":");
  if (p == std::string::npos) return line;
  return "{" + line.substr(p);
}

void RunConnection(int port, const std::vector<Item>& items,
                   Clock::time_point start, Clock::time_point deadline,
                   ConnResult* out) {
  LineSocket sock;
  if (!sock.Connect(port)) {
    out->transport_error = true;
    return;
  }
  std::string line;
  size_t next = 0;
  while (Clock::now() < deadline) {
    if (next == items.size()) {
      next = 0;
      ++out->wrapped;
    }
    const Item& item = items[next++];
    Sample sample;
    sample.kind = item.kind;
    const auto sent = Clock::now();
    if (!sock.Send(item.line) || !sock.ReadLine(&line)) {
      out->transport_error = true;
      return;
    }
    sample.ok = Contains(line.substr(0, 96), "\"ok\":true");
    std::string payload = ResultTail(line);
    if (item.kind == "subscribe" && sample.ok) {
      const auto acked = Clock::now();
      for (;;) {
        if (!sock.ReadLine(&line)) {
          out->transport_error = true;
          return;
        }
        if (Contains(line, "\"event\":\"complete\"")) break;
        if (Contains(line, "\"event\":\"error\"")) {
          sample.ok = false;
          break;
        }
      }
      const auto done = Clock::now();
      sample.kind_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(done - acked)
              .count();
      sample.total_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(done - sent)
              .count();
      payload = line;
    } else {
      sample.total_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - sent)
                            .count();
      sample.kind_ns = sample.total_ns;
    }
    sample.done_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count();
    out->samples.push_back(sample);
    out->results.insert(item.key + '\t' + (sample.ok ? "1" : "0") + '\t' +
                        payload);
  }
}

std::string Arg(std::map<std::string, std::string>& args, const char* name) {
  auto it = args.find(name);
  if (it == args.end()) {
    std::fprintf(stderr, "perfbench_load: missing %s\n", name);
    std::exit(2);
  }
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      trace = true;
    } else if (i + 1 < argc) {
      args[a] = argv[++i];
    }
  }
  const int port = std::atoi(Arg(args, "--port").c_str());
  const double seconds = std::atof(Arg(args, "--seconds").c_str());

  std::map<int, std::vector<Item>> per_conn;
  {
    std::ifstream in(Arg(args, "--requests"));
    std::string row;
    while (std::getline(in, row)) {
      const size_t t1 = row.find('\t');
      const size_t t2 = row.find('\t', t1 + 1);
      const size_t t3 = row.find('\t', t2 + 1);
      if (t3 == std::string::npos) continue;
      Item item;
      item.kind = row.substr(t1 + 1, t2 - t1 - 1);
      item.key = row.substr(t2 + 1, t3 - t2 - 1);
      item.line = row.substr(t3 + 1);
      if (trace) item.line.insert(1, "\"trace\":true,");
      item.line += '\n';
      per_conn[std::atoi(row.substr(0, t1).c_str())].push_back(
          std::move(item));
    }
  }
  if (per_conn.empty()) {
    std::fprintf(stderr, "perfbench_load: no requests\n");
    return 2;
  }

  std::vector<ConnResult> results(per_conn.size());
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  {
    std::vector<std::thread> threads;
    size_t i = 0;
    for (auto& [conn, items] : per_conn) {
      threads.emplace_back(RunConnection, port, std::cref(items), start,
                           deadline, &results[i++]);
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::ofstream lat(Arg(args, "--latencies"));
  std::set<std::string> distinct;
  uint64_t done = 0, failed = 0, wrapped = 0;
  bool transport_error = false;
  for (const auto& r : results) {
    for (const auto& s : r.samples) {
      lat << s.kind << '\t' << s.total_ns << '\t' << s.kind_ns << '\t'
          << (s.ok ? 1 : 0) << '\t' << s.done_ns << '\n';
      ++done;
      if (!s.ok) ++failed;
    }
    distinct.insert(r.results.begin(), r.results.end());
    wrapped += r.wrapped;
    transport_error = transport_error || r.transport_error;
  }
  std::ofstream res(Arg(args, "--results"));
  for (const auto& line : distinct) res << line << '\n';
  std::printf(
      "{\"completed\":%llu,\"failed\":%llu,\"elapsed_s\":%.6f,"
      "\"wrapped\":%llu,\"transport_error\":%s}\n",
      static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(failed), elapsed,
      static_cast<unsigned long long>(wrapped),
      transport_error ? "true" : "false");
  return transport_error ? 1 : 0;
}
