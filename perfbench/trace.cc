// perfbench_trace: the benchmark's traced run. Replays a request file
// (the same seeded sequence perfbench_load sends) in-process, one request
// at a time, and times calls into each layer's public function on the
// same inputs. No code under src/ is instrumented: every span is taken
// here, around the call.
//
//   perfbench_trace --requests FILE --setup FILE --seconds S --out FILE
//
// FILE rows are "<conn>\t<kind>\t<key>\t<ndjson>" (see load.cc); setup
// rows are registrations replayed before the timed loop. The loop stops
// after S seconds or at the end of the file. The output is one JSON
// object: {"layers":{name:{"value":median,"n":count}},
//          "kinds":{kind:{"layer_sum_ms":median,"n":count}},
//          "replayed":N,"errors":E}
// where a kind's layer sum is the sum of the layer self-times of one
// request, the figure the benchmark reconciles against the end-to-end
// latency of that kind.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/diagnostic.h"
#include "datalog/engine.h"
#include "datalog/program.h"
#include "datalog/query_parse.h"
#include "datalog/translate.h"
#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "eval/partition.h"
#include "eval/trajectory.h"
#include "markov/compiled_chain.h"
#include "markov/state_space.h"
#include "relational/text_io.h"
#include "server/executor.h"
#include "server/query_service.h"
#include "server/wire.h"
#include "util/random.h"

namespace pfql {
namespace {

using Clock = std::chrono::steady_clock;

/// Runs `fn` and returns its wall time in microseconds.
template <typename Fn>
double TimeUs(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Row {
  std::string kind;
  std::string line;
};

std::vector<Row> ReadRows(const std::string& path) {
  std::vector<Row> rows;
  std::ifstream in(path);
  std::string row;
  while (std::getline(in, row)) {
    const size_t t1 = row.find('\t');
    const size_t t2 = row.find('\t', t1 + 1);
    const size_t t3 = row.find('\t', t2 + 1);
    if (t3 == std::string::npos) continue;
    rows.push_back({row.substr(t1 + 1, t2 - t1 - 1), row.substr(t3 + 1)});
  }
  return rows;
}

// Extra measurements that cost a second pass over a chain (thread
// speedup, per-state kernel application, stepping rates) run on the
// first few chains only.
constexpr size_t kExtraSamples = 6;

class Tracer {
 public:
  Tracer() : service_(ServiceOpts()) {}

  void Setup(const Row& row) {
    auto request = server::ParseRequestLine(row.line);
    if (!request.ok()) {
      ++errors_;
      return;
    }
    Remember(*request);
    if (!service_.Call(*request).status.ok()) ++errors_;
  }

  void Replay(const Row& row) {
    ++replayed_;
    std::unique_ptr<server::Request> request;
    const double parse_us = TimeUs([&] {
      auto parsed = server::ParseRequestLine(row.line);
      if (parsed.ok()) {
        request = std::make_unique<server::Request>(std::move(parsed).value());
      }
    });
    if (request == nullptr) {
      ++errors_;
      return;
    }
    Add("server.wire.parse_us", parse_us);
    if (row.kind == "subscribe") {
      Subscribe(*request);
      return;
    }
    Remember(*request);
    server::Response response;
    const double call_us = TimeUs([&] { response = service_.Call(*request); });
    std::string wire;
    const double serialize_us =
        TimeUs([&] { wire = server::SerializeResponse(response); });
    Add("server.wire.serialize_us", serialize_us);
    Add("server.wire.response_bytes", static_cast<double>(wire.size()));
    if (!response.status.ok()) {
      ++errors_;
      return;
    }
    double sum_us = parse_us + serialize_us;
    if (!server::IsQueryKind(request->kind) || response.cached) {
      // Control requests and result-cache hits never reach an evaluator:
      // the whole call is the service layer.
      if (response.cached) Add("server.service.overhead_us", call_us);
      AddKind(row.kind, sum_us + call_us);
      return;
    }
    const Resolved in = Resolve(*request);
    if (in.program == nullptr || in.edb == nullptr) {
      ++errors_;
      return;
    }
    const double exec_us = TimeUs([&] {
      if (!server::ExecuteQuery(*request, *in.program, *in.edb, nullptr)
               .ok()) {
        ++errors_;
      }
    });
    Add("server.service.overhead_us",
        call_us - exec_us - in.program_parse_us - in.instance_parse_us);
    sum_us += call_us - exec_us;
    // "run" samples a fixpoint and names no event.
    auto event = request->event.empty()
                     ? StatusOr<QueryEvent>(QueryEvent{})
                     : datalog::ParseGroundAtom(request->event);
    if (!event.ok()) {
      ++errors_;
      return;
    }
    double layers_us = 0.0;
    if (!EvalLayers(row.kind, *request, *in.program, *in.edb, *event,
                    &layers_us)) {
      ++errors_;
      return;
    }
    AddKind(row.kind, sum_us + layers_us);
  }

  void Write(const std::string& path) {
    // A ratio of totals rather than a per-request median.
    layers_["markov.compile.wasted_share"] = {
        compile_attempt_us_ > 0 ? compile_wasted_us_ / compile_attempt_us_
                                : 0.0};
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    std::fprintf(out, "{\"layers\":{");
    bool first = true;
    for (const auto& [name, values] : layers_) {
      std::fprintf(out, "%s\"%s\":{\"value\":%.9g,\"n\":%zu}",
                   first ? "" : ",", name.c_str(), Median(values),
                   values.size());
      first = false;
    }
    std::fprintf(out, "},\"kinds\":{");
    first = true;
    for (const auto& [kind, values] : kinds_) {
      std::fprintf(out, "%s\"%s\":{\"layer_sum_ms\":%.9g,\"n\":%zu}",
                   first ? "" : ",", kind.c_str(), Median(values) / 1000.0,
                   values.size());
      first = false;
    }
    std::fprintf(out, "},\"replayed\":%zu,\"errors\":%zu}\n", replayed_,
                 errors_);
    std::fclose(out);
  }

 private:
  struct Resolved {
    std::shared_ptr<const datalog::Program> program;
    std::shared_ptr<const Instance> edb;
    double program_parse_us = 0.0;
    double instance_parse_us = 0.0;
  };

  static server::ServiceOptions ServiceOpts() {
    server::ServiceOptions options;
    options.workers = 2;
    options.queue_capacity = 64;
    return options;
  }

  void Add(const std::string& name, double value) {
    layers_[name].push_back(value);
  }
  void AddKind(const std::string& kind, double us) {
    kinds_[kind].push_back(us);
  }

  /// Mirrors registrations so registered names resolve here too.
  void Remember(const server::Request& request) {
    if (request.kind == server::RequestKind::kRegisterProgram) {
      auto program = datalog::ParseProgram(request.program_text);
      if (program.ok()) {
        programs_[request.name] =
            std::make_shared<const datalog::Program>(std::move(*program));
      }
    } else if (request.kind == server::RequestKind::kRegisterInstance) {
      auto instance = ParseInstanceText(request.data_text);
      if (instance.ok()) {
        instances_[request.name] =
            std::make_shared<const Instance>(std::move(*instance));
      }
    }
  }

  Resolved Resolve(const server::Request& request) {
    Resolved in;
    if (!request.program.empty()) {
      in.program = programs_[request.program];
    } else {
      in.program_parse_us = TimeUs([&] {
        auto program = datalog::ParseProgram(request.program_text);
        if (program.ok()) {
          in.program =
              std::make_shared<const datalog::Program>(std::move(*program));
        }
      });
      Add("datalog.parse_us", in.program_parse_us);
    }
    if (!request.data.empty()) {
      in.edb = instances_[request.data];
    } else {
      in.instance_parse_us = TimeUs([&] {
        auto instance = ParseInstanceText(request.data_text);
        if (instance.ok()) {
          in.edb = std::make_shared<const Instance>(std::move(*instance));
        }
      });
      Add("relational.parse_instance_us", in.instance_parse_us);
    }
    return in;
  }

  /// Times the layer calls one query of `kind` makes, in the order the
  /// executor makes them; `*total_us` receives their sum.
  bool EvalLayers(const std::string& kind, const server::Request& request,
                  const datalog::Program& program, const Instance& edb,
                  const QueryEvent& event, double* total_us) {
    double& total = *total_us;
    if (kind == "exact") {
      datalog::ExactInflationaryOptions options;
      options.max_nodes = request.max_nodes;
      size_t nodes = 0;
      bool ok = false;
      const double us = TimeUs([&] {
        ok = eval::ExactInflationary(program, edb, event, options, &nodes)
                 .ok();
      });
      total += us;
      Add("eval.exact.nodes", static_cast<double>(nodes));
      if (nodes > 0) Add("eval.exact.us_per_node", us / nodes);
      return ok;
    }
    if (kind == "approx") {
      eval::ApproxParams params;
      params.epsilon = request.epsilon;
      params.delta = request.delta;
      params.threads = request.threads;
      Rng rng(request.seed);
      StatusOr<eval::ApproxResult> r = Status::OK();
      const double us = TimeUs([&] {
        r = eval::ApproxInflationary(program, edb, event, params, &rng);
      });
      total += us;
      if (!r.ok()) return false;
      if (r->samples > 0) Add("eval.approx.us_per_sample", us / r->samples);
      return true;
    }
    if (kind == "run") {
      Rng rng(request.seed);
      size_t steps = 0;
      bool ok = false;
      const double us = TimeUs([&] {
        auto engine = datalog::InflationaryEngine::Make(program, edb);
        if (!engine.ok()) return;
        ok = engine->RunToFixpoint(&rng).ok();
        steps = engine->steps_taken();
      });
      total += us;
      if (steps > 0) Add("datalog.fixpoint_step_us", us / steps);
      return ok;
    }

    // Noninflationary kinds: plan, then translate to a kernel.
    analysis::CostReport plan;
    const double plan_us = TimeUs([&] {
      analysis::CostOptions options;
      options.edb = &edb;
      options.max_states = request.max_states;
      options.compile_max_states = request.compile_max_states;
      options.emit_diagnostics = false;
      analysis::DiagnosticSink sink;
      plan = analysis::AnalyzeCost(program, options, &sink);
    });
    Add("analysis.cost_us", plan_us);
    total += plan_us;
    if (kind == "partition") {
      StateSpaceOptions options;
      options.max_states = request.max_states;
      options.threads = request.threads;
      bool ok = false;
      total += TimeUs([&] {
        ok = eval::PartitionedExactForever(program, edb, event, options).ok();
      });
      return ok;
    }
    StatusOr<datalog::TranslatedQuery> tq = Status::OK();
    const double translate_us = TimeUs(
        [&] { tq = datalog::TranslateNonInflationary(program, edb); });
    Add("datalog.translate_us", translate_us);
    total += translate_us;
    if (!tq.ok()) return false;
    if (kind == "forever") return Forever(request, *tq, event, &total);
    if (kind == "mcmc" || kind == "trajectory") {
      return Sampled(kind, request, plan, *tq, event, &total);
    }
    return false;
  }

  bool Forever(const server::Request& request,
               const datalog::TranslatedQuery& tq, const QueryEvent& event,
               double* total) {
    StateSpaceOptions options;
    options.max_states = request.max_states;
    options.threads = request.threads;
    StatusOr<StateSpace> space = Status::OK();
    const double build_us =
        TimeUs([&] { space = BuildStateSpace(tq.kernel, tq.initial, options); });
    if (!space.ok()) return false;
    *total += build_us;
    const size_t states = space->states.size();
    size_t edges = 0;
    for (size_t s = 0; s < states; ++s) edges += space->chain.Row(s).size();
    Add("markov.state_space.build_ms", build_us / 1000.0);
    Add("markov.state_space.us_per_state", build_us / states);
    Add("markov.state_space.states", static_cast<double>(states));
    Add("markov.state_space.edges", static_cast<double>(edges));
    Add("markov.state_space.waves",
        static_cast<double>(Waves(space->chain)));

    SccDecomposition scc;
    const double scc_us = TimeUs([&] { scc = space->chain.DecomposeScc(); });
    Add("markov.scc_us", scc_us);
    *total += scc_us;
    const std::vector<bool> event_states = space->EventStates(event);
    bool ok = false;
    const double long_run_us = TimeUs([&] {
      ok = space->chain
               .ExactLongRunProbability(
                   0, [&](size_t s) { return event_states[s]; })
               .ok();
    });
    Add("markov.long_run_ms", long_run_us / 1000.0);
    *total += long_run_us;

    // Not on this request's path: lowering the same chain to CSR, the
    // two-thread exploration speedup, per-state kernel application.
    Add("markov.compile.lower_ms",
        TimeUs([&] { (void)CompiledChain::Compile(*space); }) / 1000.0);
    if (extra_forever_++ < kExtraSamples) {
      StateSpaceOptions one = options, two = options;
      one.threads = 1;
      two.threads = 2;
      const double t1 =
          TimeUs([&] { (void)BuildStateSpace(tq.kernel, tq.initial, one); });
      const double t2 =
          TimeUs([&] { (void)BuildStateSpace(tq.kernel, tq.initial, two); });
      Add("markov.state_space.speedup_t2", t1 / t2);
      const double apply_us = TimeUs([&] {
        for (const Instance& state : space->states) {
          (void)tq.kernel.ApplyExact(state, options.eval);
        }
      });
      Add("lang.apply_exact_us", apply_us / states);
    }
    return ok;
  }

  bool Sampled(const std::string& kind, const server::Request& request,
               const analysis::CostReport& plan,
               const datalog::TranslatedQuery& tq, const QueryEvent& event,
               double* total) {
    // The executor's backend choice: skip the compile when the planner
    // proves it over budget, otherwise try it and fall back on overflow.
    bool compiled = false;
    if (plan.states.lo <= request.compile_max_states &&
        request.backend != "interpreted") {
      CompileOptions copts;
      copts.max_states = request.compile_max_states;
      copts.threads = request.threads;
      StatusOr<std::shared_ptr<const CompiledSpace>> chain = Status::OK();
      const double us =
          TimeUs([&] { chain = GetOrCompile(tq.kernel, tq.initial, copts); });
      *total += us;
      compile_attempt_us_ += us;
      if (chain.ok()) {
        compiled = true;
        if (extra_steps_++ < kExtraSamples) StepRates((*chain)->chain);
      } else if (chain.status().code() == StatusCode::kResourceExhausted) {
        compile_wasted_us_ += us;
      } else {
        return false;
      }
    }
    const eval::Backend backend =
        compiled ? eval::Backend::kAuto : eval::Backend::kInterpreted;
    Rng rng(request.seed);
    ForeverQuery query{tq.kernel, event};
    if (kind == "mcmc") {
      eval::McmcParams params;
      params.epsilon = request.epsilon;
      params.delta = request.delta;
      params.threads = request.threads;
      params.burn_in = request.burn_in.value_or(100);
      params.backend = backend;
      params.compile_max_states = request.compile_max_states;
      StatusOr<eval::McmcResult> r = Status::OK();
      const double us = TimeUs(
          [&] { r = eval::McmcForever(query, tq.initial, params, &rng); });
      *total += us;
      if (!r.ok()) return false;
      if (r->samples > 0) Add("eval.mcmc.sample_us", us / r->samples);
      if (!r->compiled && r->total_steps > 0) {
        Add("lang.apply_sample_us", us / r->total_steps);
      }
      return true;
    }
    eval::TrajectoryParams params;
    params.steps = request.steps;
    params.runs = request.runs;
    params.backend = backend;
    params.compile_max_states = request.compile_max_states;
    StatusOr<eval::TrajectoryResult> r = Status::OK();
    const double us = TimeUs(
        [&] { r = eval::TimeAverageEstimate(query, tq.initial, params, &rng); });
    *total += us;
    if (!r.ok()) return false;
    if (r->total_steps > 0) {
      Add("eval.trajectory.steps_per_s", r->total_steps / (us / 1e6));
      if (!r->compiled) Add("lang.apply_sample_us", us / r->total_steps);
    }
    return true;
  }

  /// Compiled stepping throughput on one and on two threads (each thread
  /// advancing its own walker batch), in steps per second.
  void StepRates(const CompiledChain& chain) {
    constexpr size_t kWalkers = 4096, kSteps = 64;
    auto run = [&](size_t threads) {
      std::vector<std::vector<uint32_t>> walkers(
          threads, std::vector<uint32_t>(kWalkers, 0));
      const double us = TimeUs([&] {
        std::vector<std::thread> pool;
        for (size_t t = 0; t < threads; ++t) {
          pool.emplace_back([&, t] {
            Rng rng(1000 + t);
            (void)chain.StepBatch(&walkers[t], kSteps, &rng);
          });
        }
        for (auto& th : pool) th.join();
      });
      return threads * kWalkers * kSteps / (us / 1e6);
    };
    Add("markov.step.steps_per_s_t1", run(1));
    Add("markov.step.steps_per_s_t2", run(2));
  }

  /// BFS depth of the chain from state 0: the number of exploration waves.
  static size_t Waves(const MarkovChain& chain) {
    std::vector<int> depth(chain.num_states(), -1);
    std::vector<size_t> frontier{0};
    depth[0] = 0;
    size_t waves = 0;
    while (!frontier.empty()) {
      ++waves;
      std::vector<size_t> next;
      for (size_t s : frontier) {
        for (const auto& [t, p] : chain.Row(s)) {
          if (depth[t] < 0) {
            depth[t] = depth[s] + 1;
            next.push_back(t);
          }
        }
      }
      frontier = std::move(next);
    }
    return waves;
  }

  void Subscribe(const server::Request& request) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false, failed = false;
    size_t updates = 0;
    Clock::time_point first_update{}, finished{};
    auto sink = [&](const std::string& line, bool droppable) {
      std::lock_guard<std::mutex> lock(mu);
      const auto now = Clock::now();
      if (droppable) {
        if (updates++ == 0) first_update = now;
        return;
      }
      if (updates == 0) first_update = now;
      failed = line.find("\"event\":\"complete\"") == std::string::npos;
      finished = now;
      done = true;
      cv.notify_all();
    };
    const server::Response ack = service_.Subscribe(request, sink);
    const auto acked = Clock::now();
    if (!ack.status.ok()) {
      ++errors_;
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    if (failed) ++errors_;
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    Add("sched.first_update_ms", ms(acked, first_update));
    Add("sched.complete_ms", ms(acked, finished));
    Add("sched.quanta", static_cast<double>(updates + 1));
    AddKind("subscribe", ms(acked, finished) * 1000.0);
  }

  server::QueryService service_;
  std::map<std::string, std::shared_ptr<const datalog::Program>> programs_;
  std::map<std::string, std::shared_ptr<const Instance>> instances_;
  std::map<std::string, std::vector<double>> layers_;
  std::map<std::string, std::vector<double>> kinds_;
  double compile_attempt_us_ = 0.0;
  double compile_wasted_us_ = 0.0;
  size_t extra_forever_ = 0;
  size_t extra_steps_ = 0;
  size_t replayed_ = 0;
  size_t errors_ = 0;
};

}  // namespace
}  // namespace pfql

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* need : {"--requests", "--setup", "--seconds", "--out"}) {
    if (args.count(need) == 0) {
      std::fprintf(stderr, "perfbench_trace: missing %s\n", need);
      return 2;
    }
  }
  const double seconds = std::atof(args["--seconds"].c_str());
  pfql::Tracer tracer;
  for (const auto& row : pfql::ReadRows(args["--setup"])) tracer.Setup(row);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  for (const auto& row : pfql::ReadRows(args["--requests"])) {
    if (std::chrono::steady_clock::now() >= deadline) break;
    tracer.Replay(row);
  }
  tracer.Write(args["--out"]);
  return 0;
}
