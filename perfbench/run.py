#!/usr/bin/env python3
"""End-to-end PFQL benchmark: closed-loop NDJSON clients against a real
pfqlr -> pfqld fleet, plus a traced in-process replay for per-layer
numbers. See NOTES.md for why each workload exists.

    python3 perfbench/run.py --workload chains_cold --seed 1 \
        --seconds 30 --trace 0

--workload all runs every workload in turn. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. The lines
before it name every metric with its unit and sample count, the run
metadata, and the known-failure probe.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BUILD_TYPE = "RelWithDebInfo"
TARGETS = ["pfqld", "pfqlr", "perfbench_load", "perfbench_trace"]
# Gain claims must also hold on this seed, which tuning never used.
HELD_OUT_SEED = 7919
FLEET_WORKERS = 2
WORKER_THREADS = 2
SETUP_REPEATS = 7
# The timed phase is cut into this many slices; throughput and latency
# percentiles are medians over the slices.
WINDOWS = 10
ALLOWED_CPUS = os.sched_getaffinity(0)
KINDS = ("forever", "mcmc", "trajectory", "exact", "approx", "subscribe",
         "register")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
}

PER_LAYER = {
    "router.hop_us": "us",
    "router.register_us": "us",
    "router.cpu_share": "share",
    "server.wire.parse_us": "us",
    "server.wire.serialize_us": "us",
    "server.wire.response_bytes": "bytes",
    "server.service.overhead_us": "us",
    "server.cache.hit_ratio": "share",
    "server.cache.evictions": "count",
    "server.admission.wait_us": "us",
    "analysis.cost_us": "us",
    "datalog.parse_us": "us",
    "datalog.translate_us": "us",
    "datalog.fixpoint_step_us": "us",
    "relational.parse_instance_us": "us",
    "lang.apply_exact_us": "us",
    "lang.apply_sample_us": "us",
    "markov.state_space.build_ms": "ms",
    "markov.state_space.us_per_state": "us",
    "markov.state_space.states": "count",
    "markov.state_space.edges": "count",
    "markov.state_space.waves": "count",
    "markov.state_space.speedup_t2": "ratio",
    "markov.long_run_ms": "ms",
    "markov.scc_us": "us",
    "markov.compile.lower_ms": "ms",
    "markov.compile.memo_hit_ratio": "share",
    "markov.compile.wasted_share": "share",
    "markov.step.steps_per_s_t1": "1/s",
    "markov.step.steps_per_s_t2": "1/s",
    "eval.exact.nodes": "count",
    "eval.exact.us_per_node": "us",
    "eval.approx.us_per_sample": "us",
    "eval.mcmc.sample_us": "us",
    "eval.trajectory.steps_per_s": "1/s",
    "sched.first_update_ms": "ms",
    "sched.complete_ms": "ms",
    "sched.quanta": "count",
    "trace.overhead_share": "share",
    "error_share": "share",
}
for _kind in KINDS:
    PER_LAYER["p50_ms." + _kind] = "ms"
    PER_LAYER["unexplained_share." + _kind] = "share"


def log(msg):
    print(msg, flush=True)


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


# ---- build ---------------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logfile, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed (see the pfql source tree)")
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
            stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(logfile) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed")


def binary(name):
    if name in ("pfqld", "pfqlr"):
        return os.path.join(BUILD, "pfql_tools", name)
    return os.path.join(BUILD, name)


# ---- fleet ---------------------------------------------------------------

class Conn:
    """Minimal blocking NDJSON connection (setup, probes, scrapes)."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def call(self, req):
        self.sock.sendall((workloads.request_line(req) + "\n").encode())
        return self.read()

    def read(self):
        line = self.file.readline()
        if not line:
            raise ConnectionError("connection closed")
        return json.loads(line)

    def subscribe(self, req):
        ack = self.call(req)
        if not ack.get("ok"):
            return ack
        while True:
            push = self.read()
            if push.get("event") in ("complete", "error"):
                return push

    def close(self):
        self.file.close()
        self.sock.close()


class Fleet:
    """pfqlr with its pfqld workers, in a process group of its own."""

    def __init__(self, logdir):
        self.stderr = open(os.path.join(logdir, "pfqlr.err"), "ab")
        self.proc = subprocess.Popen(
            [binary("pfqlr"), "--port", "0", "--workers", str(FLEET_WORKERS),
             "--worker-arg", "--workers", "--worker-arg",
             str(WORKER_THREADS)],
            stdout=subprocess.PIPE, stderr=self.stderr,
            start_new_session=True)
        line = self.proc.stdout.readline()
        try:
            self.port = json.loads(line)["port"]
        except (ValueError, KeyError):
            self.stop()
            fail("pfqlr did not report its port: %r" % line)
        deadline = time.time() + 30
        while True:
            stats = self.router_stats()
            if stats["live"] == FLEET_WORKERS:
                break
            if time.time() > deadline:
                self.stop()
                fail("fleet did not come up")
            time.sleep(0.01)
        self.workers = [(w["pid"], w["port"]) for w in stats["workers"]]

    def router_stats(self):
        c = Conn(self.port)
        try:
            return c.call({"method": "router_stats"})["result"]
        finally:
            c.close()

    def pids(self):
        return [self.proc.pid] + [pid for pid, _ in self.workers]

    def stop(self):
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        # Workers that outlive the router (SIGTERM deadline) die here.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        for pid, _ in getattr(self, "workers", []):
            wait_gone(pid)


def wait_gone(pid, timeout=10.0):
    """Waits until a process that is not our child has exited."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            with open("/proc/%d/stat" % pid) as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except OSError:
            return
        time.sleep(0.01)


def cpu_seconds(pids):
    tick = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def pin_cpus(count):
    """Confines this process and everything it starts from now on to the
    last `count` CPUs of the machine that it may use; returns them. Fewer
    CPUs than the machine has means fewer idle CPUs to wake: see
    NOTES.md."""
    chosen = sorted(ALLOWED_CPUS)[-count:]
    os.sched_setaffinity(0, chosen)
    return chosen


def cpu_ticks(cpus):
    """(steal, total) jiffies of the given CPUs since boot."""
    steal = total = 0
    with open("/proc/stat") as f:
        for line in f:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:] in map(str, cpus):
                values = [int(v) for v in fields[:8]]
                steal += values[7]
                total += sum(values)
    return steal, total


def hwm_mb(pids):
    total = 0
    for pid in pids:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total / 1024.0


# ---- phases --------------------------------------------------------------

def setup_fleet(w, logdir):
    """Spawns the fleet, registers the workload's programs and instances,
    and warms it with requests outside the timed list. Returns
    (fleet, seconds)."""
    start = time.perf_counter()
    fleet = Fleet(logdir)
    c = Conn(fleet.port)
    try:
        for req in w.setup:
            if not c.call(req).get("ok"):
                fleet.stop()
                fail("setup request failed: %s" % req["method"])
        for req in w.warmup:
            resp = c.subscribe(req) if req["method"] == "subscribe" \
                else c.call(req)
            if not (resp.get("ok") or resp.get("event") == "complete"):
                fleet.stop()
                fail("warm-up request failed: %s" % json.dumps(resp)[:300])
    finally:
        c.close()
    return fleet, time.perf_counter() - start


def write_rows(path, rows):
    lines = {}  # rows may share one request object; serialize it once
    with open(path, "w") as f:
        for conn, kind, key, req in rows:
            if id(req) not in lines:
                lines[id(req)] = workloads.request_line(req)
            f.write("%d\t%s\t%s\t%s\n" % (conn, kind, key, lines[id(req)]))


def run_load(port, rows_path, seconds, rundir, tag, trace=False):
    lat = os.path.join(rundir, tag + ".lat")
    res = os.path.join(rundir, tag + ".res")
    cmd = [binary("perfbench_load"), "--port", str(port), "--requests",
           rows_path, "--seconds", repr(seconds), "--latencies", lat,
           "--results", res]
    if trace:
        cmd.append("--trace")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=seconds + 120)
    summary = json.loads(out.stdout.decode().strip().splitlines()[-1])
    samples = []
    with open(lat) as f:
        for line in f:
            kind, total, kind_ns, ok, done = line.split("\t")
            samples.append((kind, int(total) / 1e6, int(kind_ns) / 1e6,
                            ok == "1", int(done) / 1e9))
    results = []
    with open(res) as f:
        for line in f:
            key, ok, payload = line.rstrip("\n").split("\t", 2)
            results.append((key, ok == "1", payload))
    return summary, samples, results


def verify(w, results):
    """Checks every distinct answer against the workload's references.
    Returns (wrong, messages)."""
    wrong, messages = 0, []
    for key, ok, payload in results:
        if not ok:
            continue  # counted as failed by the client already
        try:
            obj = json.loads(payload)
            res = obj["result"]
            good = w.checks[key](res)
            if obj.get("event") == "complete" and obj.get("reason") != \
                    "converged":
                good = False
        except (ValueError, KeyError, TypeError) as e:
            good, res = False, str(e)
        if not good:
            wrong += 1
            if len(messages) < 5:
                messages.append("wrong answer for %s: %s" %
                                (key, json.dumps(res)[:300]))
    return wrong, messages


def percentile(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def split_windows(samples, elapsed):
    """Latencies of the requests that finished in each of WINDOWS equal
    slices of the timed phase, with the slice's length in seconds. A
    median over slices ignores a host stall that hits a few of them."""
    span = elapsed / WINDOWS
    windows = [[] for _ in range(WINDOWS)]
    for _, total, _, _, done in samples:
        windows[min(WINDOWS - 1, int(done / span))].append(total)
    return [(win, span) for win in windows]


def known_failure_probe(w, port):
    """mcmc with the default burn_in:"auto" on one chain per family. It
    fails today (the translated initial state is transient, so the mixing
    time is undefined); the probe keeps that visible without counting it
    against the timed phase."""
    c = Conn(port)
    lines = []
    try:
        for chain in workloads.probe_chains(w.seed):
            resp = c.call({"method": "mcmc", "program_text": chain.program,
                           "data_text": chain.data, "event": chain.event,
                           "epsilon": 0.1, "delta": 0.1,
                           "timeout_ms": 20000})
            status = "still fails" if not resp.get("ok") else \
                "no longer fails"
            detail = resp.get("error", resp.get("result"))
            lines.append("known_failure mcmc_auto_burn_in/%s: %s: %s" %
                         (chain.family, status, json.dumps(detail)))
    finally:
        c.close()
    return lines


def metadata(seed):
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL).stdout.decode()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for sub in ("src", "tools"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT,
                                                                     sub))):
            dirnames.sort()
            for name in sorted(files):
                with open(os.path.join(dirpath, name), "rb") as f:
                    digest.update(f.read())
    compiler = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [path, "--version"], stdout=subprocess.PIPE
                    ).stdout.decode().splitlines()[0]
    return {"cores": os.cpu_count(), "loadavg_before": os.getloadavg(),
            "compiler": compiler, "build_type": BUILD_TYPE,
            "commit": commit.strip() or "unknown (not a git checkout)",
            "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "held_out_seed": HELD_OUT_SEED,
            "fleet": "pfqlr --workers %d, pfqld --workers %d" %
                     (FLEET_WORKERS, WORKER_THREADS)}


def emit(metrics, units, counts):
    for name in sorted(metrics):
        log("metric %s = %.6g %s (n=%d)" % (name, metrics[name], units[name],
                                            counts.get(name, 1)))


# ---- untraced run: end-to-end metrics ------------------------------------

def run_e2e(w, seconds, rundir):
    setups = []
    for i in range(SETUP_REPEATS):
        fleet, took = setup_fleet(w, rundir)
        setups.append(took)
        if i + 1 < SETUP_REPEATS:
            fleet.stop()
    try:
        rows_path = os.path.join(rundir, "requests.tsv")
        write_rows(rows_path, w.rows)
        pids = fleet.pids()
        cpu0 = cpu_seconds(pids)
        summary, samples, results = run_load(fleet.port, rows_path, seconds,
                                             rundir, "e2e")
        cpu1 = cpu_seconds(pids)
        rss = hwm_mb(pids)
        probe = known_failure_probe(w, fleet.port)
    finally:
        fleet.stop()
    wrong, messages = verify(w, results)
    completed = summary["completed"]
    failed = summary["failed"] + wrong
    totals = [t for _, t, _, _, _ in samples]
    windows = split_windows(samples, summary["elapsed_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(
            len(win) / span for win, span in windows),
        "latency_p50_ms": statistics.median(
            percentile(win, 0.50) for win, _ in windows if win),
        "latency_p90_ms": statistics.median(
            percentile(win, 0.90) for win, _ in windows if win),
        "server_cpu_ms_per_req": 1000.0 * (cpu1 - cpu0) / max(1, completed),
        "server_rss_mb": rss,
    }
    counts = {"setup_s": len(setups), "latency_p50_ms": len(totals),
              "latency_p90_ms": len(totals), "throughput_rps": completed,
              "server_cpu_ms_per_req": completed,
              "server_rss_mb": len(fleet.pids())}
    units = dict(END_TO_END)
    # Reported by name for reading, not part of the result line: a kind's
    # median exists only on the workloads that send that kind, and the
    # error share is zero on a correct program. The 95th percentile sits on
    # the edge of cached_reads' slow class (writes and the misses they
    # cause), where it jumps between runs.
    extra = {"error_share": failed / max(1, completed),
             "latency_p95_ms": percentile(totals, 0.95)}
    units_extra = {"error_share": "share", "latency_p95_ms": "ms"}
    counts["latency_p95_ms"] = len(totals)
    for kind in KINDS:
        values = [k for kd, _, k, _, _ in samples if kd == kind]
        if values:
            extra["p50_ms." + kind] = statistics.median(values)
            units_extra["p50_ms." + kind] = "ms"
            counts["p50_ms." + kind] = len(values)
    counts["error_share"] = completed
    for m in messages:
        log(m)
    if summary["wrapped"]:
        log("note: request list wrapped %d times" % summary["wrapped"])
    for line in probe:
        log(line)
    emit(metrics, units, counts)
    emit(extra, units_extra, counts)
    return {"correct": failed == 0 and not summary["transport_error"],
            "attempted": completed, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


# ---- traced run: per-layer metrics ---------------------------------------

def scrape(port):
    c = Conn(port)
    try:
        return c.call({"method": "metrics"})["result"]["metrics"]
    finally:
        c.close()


def counter_sum(snap, prefix):
    return sum(v for k, v in snap["counters"].items()
               if k == prefix or k.startswith(prefix + "{"))


def router_hop_us(fleet, pings=600):
    """Routed minus direct-to-worker ping round trip, medians, in µs."""
    routed, direct = Conn(fleet.port), Conn(fleet.workers[0][1])
    times = {"routed": [], "direct": []}
    try:
        for i in range(pings):
            for name, c in (("routed", routed), ("direct", direct)):
                t = time.perf_counter()
                c.call({"method": "ping", "id": i})
                times[name].append(time.perf_counter() - t)
    finally:
        routed.close()
        direct.close()
    return 1e6 * (statistics.median(times["routed"]) -
                  statistics.median(times["direct"]))


def split_rows(rows, conns):
    """First and second half of every connection's list."""
    halves = ([], [])
    for conn in range(conns):
        mine = [r for r in rows if r[0] == conn]
        halves[0].extend(mine[:len(mine) // 2])
        halves[1].extend(mine[len(mine) // 2:])
    return halves


def run_traced(w, seconds, rundir):
    fleet, _ = setup_fleet(w, rundir)
    phase = seconds * 0.35
    try:
        layer = {"router.hop_us": router_hop_us(fleet)}
        plain, traced = split_rows(w.rows, w.conns)
        plain_path = os.path.join(rundir, "plain.tsv")
        traced_path = os.path.join(rundir, "traced.tsv")
        write_rows(plain_path, plain)
        write_rows(traced_path, traced)
        before = [scrape(port) for _, port in fleet.workers]
        router_cpu0 = cpu_seconds([fleet.proc.pid])
        all_cpu0 = cpu_seconds(fleet.pids())
        summary, samples, results = run_load(fleet.port, plain_path, phase,
                                             rundir, "plain")
        router_cpu = cpu_seconds([fleet.proc.pid]) - router_cpu0
        all_cpu = cpu_seconds(fleet.pids()) - all_cpu0
        summary_t, samples_t, results_t = run_load(
            fleet.port, traced_path, phase, rundir, "traced", trace=True)
        after = [scrape(port) for _, port in fleet.workers]
        probe = known_failure_probe(w, fleet.port)
    finally:
        fleet.stop()

    delta = lambda prefix: sum(counter_sum(a, prefix) - counter_sum(b, prefix)
                               for a, b in zip(after, before))
    lookups = delta("pfql_cache_lookups_total")
    layer["server.cache.hit_ratio"] = \
        delta("pfql_cache_hits_total") / lookups if lookups else 0.0
    layer["server.cache.evictions"] = delta("pfql_cache_evictions_total")
    waits = [(a["histograms"].get("pfql_admission_wait_us", {}),
              b["histograms"].get("pfql_admission_wait_us", {}))
             for a, b in zip(after, before)]
    wait_n = sum(a.get("count", 0) - b.get("count", 0) for a, b in waits)
    wait_sum = sum(a.get("sum", 0) - b.get("sum", 0) for a, b in waits)
    layer["server.admission.wait_us"] = wait_sum / wait_n if wait_n else 0.0
    compiles = delta("pfql_compile_total")
    memo = delta('pfql_compile_total{outcome="fingerprint_hit"}') + \
        delta('pfql_compile_total{outcome="chain_hit"}')
    layer["markov.compile.memo_hit_ratio"] = memo / compiles if compiles \
        else 0.0
    layer["router.cpu_share"] = router_cpu / all_cpu if all_cpu else 0.0

    kind_p50 = {}
    for kind in KINDS:
        values = [k for kd, _, k, _, _ in samples if kd == kind]
        kind_p50[kind] = statistics.median(values) if values else 0.0
        layer["p50_ms." + kind] = kind_p50[kind]
    layer["router.register_us"] = 1000.0 * kind_p50["register"]
    p50_plain = percentile([t for _, t, _, _, _ in samples], 0.5)
    p50_traced = percentile([t for _, t, _, _, _ in samples_t], 0.5)
    layer["trace.overhead_share"] = (p50_traced - p50_plain) / p50_plain \
        if p50_plain else 0.0

    # In-process replay of the same (untraced) request sequence.
    setup_path = os.path.join(rundir, "setup.tsv")
    write_rows(setup_path, [(0, r["method"], "setup", r) for r in w.setup])
    out_path = os.path.join(rundir, "layers.json")
    subprocess.run([binary("perfbench_trace"), "--requests", plain_path,
                    "--setup", setup_path, "--seconds",
                    repr(seconds * 0.3), "--out", out_path],
                   check=True, timeout=seconds + 150)
    with open(out_path) as f:
        replay = json.load(f)
    counts = {}
    for name, entry in replay["layers"].items():
        if name in PER_LAYER:
            layer[name] = entry["value"]
            counts[name] = entry["n"]
    for kind in KINDS:
        sums = replay["kinds"].get(kind)
        e2e = kind_p50[kind]
        layer["unexplained_share." + kind] = \
            (e2e - sums["layer_sum_ms"]) / e2e if sums and e2e else 0.0
        if sums:
            counts["unexplained_share." + kind] = sums["n"]
    wrong, messages = verify(w, results)
    wrong_t, messages_t = verify(w, results_t)
    completed = summary["completed"] + summary_t["completed"]
    failed = summary["failed"] + summary_t["failed"] + wrong + wrong_t
    layer["error_share"] = failed / max(1, completed)
    for name in PER_LAYER:
        layer.setdefault(name, 0.0)
    for m in messages + messages_t:
        log(m)
    for line in probe:
        log(line)
    log("traced replay: %d requests, %d errors" % (replay["replayed"],
                                                    replay["errors"]))
    emit(layer, PER_LAYER, counts)
    correct = failed == 0 and replay["errors"] == 0 and not (
        summary["transport_error"] or summary_t["transport_error"])
    return {"correct": correct, "attempted": completed,
            "failed": failed + replay["errors"],
            "metrics": {k: {"value": v, "unit": PER_LAYER[k]}
                        for k, v in layer.items()}}


def run_workload(name, seed, seconds, trace):
    w = workloads.WORKLOADS[name](seed)
    w.seed = seed
    cpus = pin_cpus(w.cpus)
    rundir = os.path.join(ROOT, ".bench_build", "runs",
                          "%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(rundir, exist_ok=True)
    meta = metadata(seed)
    meta["cpus"] = cpus
    steal0, total0 = cpu_ticks(cpus)
    try:
        result = run_traced(w, seconds, rundir) if trace else \
            run_e2e(w, seconds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    meta["loadavg_after"] = os.getloadavg()
    steal1, total1 = cpu_ticks(cpus)
    # Time the host ran something else on the benchmark's CPUs.
    meta["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    meta["workload"] = name
    log("meta " + json.dumps(meta))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else \
        [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace)
               for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
