"""Seeded workload generators and independent reference answers.

Every generator is a pure function of its seed. Reference answers come
from closed forms and small exact computations written here, not from
the code under test:

* weighted independent redraw ``pick(<K>, V) @W :- opts(K, V, W).``:
  the long-run probability of ``pick(k, v)`` is w(k, v) / sum_v' w(k, v');
* restart walk ``cur(S). step(<K>, Y) :- one(K), cur(X), e(X, Y).
  cur(Y) :- step(K, Y).``: the chain is enumerated here with exact
  fractions and its long-run probability solved by Gaussian elimination;
* Example 3.9 reachability over a layered DAG: the visited set is one
  path, so Pr[y] = sum_x Pr[x] * w(x, y) / W(x), layer by layer.
"""

import itertools
import json
import random
from fractions import Fraction

PICK = "pick(<K>, V) @W :- opts(K, V, W).\n"
REACH = "cur(0).\nc2(<X>, Y) @P :- cur(X), e(X, Y, P).\ncur(Y) :- c2(X, Y).\n"

# Sampled answers use a tiny failure probability, so an estimate outside
# its bound is a real defect rather than bad luck: at delta = 1e-6 the
# Hoeffding bound sits more than five standard deviations out.
DELTA = 1e-6
# Trajectory payloads carry no confidence interval unless degraded; the
# check uses this absolute tolerance (several standard deviations for the
# run lengths below).
TRAJECTORY_TOL = 0.1


def walk_program(start):
    return ("cur(%d).\nstep(<K>, Y) :- one(K), cur(X), e(X, Y).\n"
            "cur(Y) :- step(K, Y).\n" % start)


def relation(name, cols, rows):
    body = "".join("  (" + ", ".join(str(v) for v in r) + ")\n"
                   for r in rows)
    return "relation %s(%s) {\n%s}\n" % (name, ", ".join(cols), body)


def request_line(obj):
    return json.dumps(obj, separators=(",", ":"))


# ---- chain families ------------------------------------------------------

def cycle_edges(n):
    """Lazy cycle: every node keeps a self-loop."""
    return sorted({(x, x) for x in range(n)} |
                  {(x, (x + 1) % n) for x in range(n)})


def torus_edges(a, b):
    edges = set()
    for i in range(a):
        for j in range(b):
            x = i * b + j
            edges |= {(x, x), (x, ((i + 1) % a) * b + j),
                      (x, i * b + (j + 1) % b)}
    return sorted(edges)


def walk_long_run(edges, target):
    """Exact long-run Pr[cur(target)] of the restart walk from node 0.

    A state is (cur, step). Each step applies every rule to the current
    state at once: cur' = {0} | {y : step(k, y)}, and step' draws one
    successor y of a current node uniformly (repair-key on the single
    key over the set of (k, y) tuples, so a y reached twice counts once).
    The chain starts from the empty state.
    """
    succ = {}
    for x, y in edges:
        succ.setdefault(x, []).append(y)
    start = (frozenset(), frozenset())
    index = {start: 0}
    states = [start]
    rows = []
    i = 0
    while i < len(states):
        cur, step = states[i]
        cur2 = frozenset({0} | set(step))
        options = sorted({y for x in cur for y in succ.get(x, [])})
        row = {}
        if options:
            p = Fraction(1, len(options))
            for y in options:
                nxt = (cur2, frozenset({y}))
                row[nxt] = row.get(nxt, 0) + p
        else:
            row[(cur2, frozenset())] = Fraction(1)
        out = {}
        for nxt, p in row.items():
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            out[index[nxt]] = out.get(index[nxt], 0) + p
        rows.append(out)
        i += 1
    n = len(states)
    bottom = bottom_component(rows)
    pi = stationary(rows, bottom)
    return sum((pi[s] for s in bottom if target in states[s][0]),
               Fraction(0)), n


def bottom_component(rows):
    """The unique closed class reachable from state 0."""
    n = len(rows)
    reach = [set() for _ in range(n)]
    for s in range(n):
        seen, todo = {s}, [s]
        while todo:
            u = todo.pop()
            for v in rows[u]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        reach[s] = seen
    closed = [s for s in range(n) if all(s in reach[t] for t in reach[s])]
    classes = {frozenset(reach[s]) for s in closed}
    if len(classes) != 1:
        raise ValueError("expected one bottom component, got %d"
                         % len(classes))
    return sorted(next(iter(classes)))


def stationary(rows, support):
    """Solves pi P = pi, sum pi = 1 on `support` with exact fractions."""
    pos = {s: i for i, s in enumerate(support)}
    m = len(support)
    # Equations: for each j, sum_i pi_i P[i][j] - pi_j = 0; the last one is
    # replaced by the normalization.
    a = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for i, s in enumerate(support):
        for t, p in rows[s].items():
            a[pos[t]][i] += p
        a[i][i] -= 1
    a[m - 1] = [Fraction(1)] * m + [Fraction(1)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return {s: a[pos[s]][m] for s in support}


_WALK_CACHE = {}


def walk_reference(shape, edges, target):
    key = (shape, target)
    if key not in _WALK_CACHE:
        _WALK_CACHE[key] = walk_long_run(edges, target)[0]
    return _WALK_CACHE[key]


def pick_reference(weights, key, value):
    row = {v: w for (k, v), w in weights.items() if k == key}
    return Fraction(row[value], sum(row.values()))


class Chain:
    """One generated chain: program, data, event and exact answer."""

    def __init__(self, family, program, data, event, exact, knobs):
        self.family = family
        self.program = program
        self.data = data
        self.event = event
        self.exact = exact
        self.knobs = knobs


def make_walk(rng, family, shape, edges, label_base):
    n = 1 + max(max(e) for e in edges)
    labels = [label_base + i for i in range(n)]
    rng.shuffle(labels)
    target = 1
    data = (relation("one", ["k"], [(0,)]) +
            relation("e", ["x", "y"],
                     sorted((labels[x], labels[y]) for x, y in edges)))
    exact = walk_reference(shape, tuple(edges), target)
    knobs = {"burn_in": 48, "steps": 2000, "runs": 8}
    return Chain(family, walk_program(labels[0]), data,
                 "cur(%d)" % labels[target], exact, knobs)


def make_pick(rng, family, keys, values, label_base, knobs):
    weights = {(label_base + k, v): rng.randint(1, 9)
               for k in range(keys) for v in range(values)}
    key, value = label_base, rng.randrange(values)
    data = relation("opts", ["k", "v", "w"],
                    sorted((k, v, w) for (k, v), w in weights.items()))
    return Chain(family, PICK, data, "pick(%d, %d)" % (key, value),
                 pick_reference(weights, key, value), knobs)


# The chain types repeat in this fixed order; the seed draws only labels
# and weights, so the cost of a run does not depend on the seed. Sizes
# vary within each family so that latencies spread out instead of forming
# a few clusters with gaps between them, where a median would jump. Half
# the types, the larger ones, explore with two threads; the small ones,
# where the overall median lies, stay single-threaded, because thread
# start-up per exploration wave makes their latency swing with scheduling
# noise.
CHAIN_PATTERN = [
    ("walk_cycle", 3, 1), ("pick_dense", (2, 3), 1), ("walk_cycle", 4, 1),
    ("pick_dense", (3, 3), 2), ("walk_torus", (2, 2), 1),
    ("pick_dense", (2, 4), 2), ("walk_cycle", 5, 2),
    ("pick_interpreted", (4, 2), 2), ("pick_dense", (3, 2), 1),
    ("pick_interpreted", (5, 2), 2), ("walk_torus", (2, 2), 1),
    ("pick_dense", (3, 3), 2),
]
FAMILIES = list(dict.fromkeys(t[0] for t in CHAIN_PATTERN))


def make_chain(rng, family, shape, index):
    base = 1000 * (index + 1)
    if family == "walk_cycle":
        return make_walk(rng, family, "cycle%d" % shape, cycle_edges(shape),
                         base)
    if family == "walk_torus":
        return make_walk(rng, family, "torus%dx%d" % shape,
                         torus_edges(*shape), base)
    if family == "pick_dense":
        return make_pick(rng, family, shape[0], shape[1], base,
                         {"burn_in": 8, "steps": 2000, "runs": 8})
    # More states than compile_max_states: mcmc and trajectory run on the
    # interpreted tier.
    return make_pick(rng, family, shape[0], shape[1], base,
                     {"burn_in": 8, "steps": 500, "runs": 4,
                      "compile_max_states": 8})


def one_per_family():
    """The first (family, shape) of every family in CHAIN_PATTERN."""
    return [next(t[:2] for t in CHAIN_PATTERN if t[0] == family)
            for family in FAMILIES]


def probe_chains(seed):
    """One chain per family for the known-failure probe."""
    rng = random.Random("probe/%d" % seed)
    return [make_chain(rng, family, shape, 10 ** 5 + j)
            for j, (family, shape) in enumerate(one_per_family())]


def chain_requests(chain, threads, rid, seed):
    """The four noninflationary kinds over one chain."""
    base = {"program_text": chain.program, "data_text": chain.data,
            "event": chain.event, "threads": threads}
    extra = {"compile_max_states": chain.knobs["compile_max_states"]} \
        if "compile_max_states" in chain.knobs else {}
    out = []
    for kind in ("forever", "partition", "mcmc", "trajectory"):
        req = {"id": rid + len(out), "method": kind}
        req.update(base)
        if kind == "mcmc":
            req.update(burn_in=chain.knobs["burn_in"], epsilon=0.1,
                       delta=DELTA, seed=seed)
            req.update(extra)
        elif kind == "trajectory":
            req.update(steps=chain.knobs["steps"], runs=chain.knobs["runs"],
                       seed=seed)
            req.update(extra)
        out.append((kind, req))
    return out


# ---- layered DAGs (Example 3.9) -----------------------------------------

def make_dag(rng, layers, width, degree, label_base):
    """Source 0, then `layers` layers of `width` nodes; every node links to
    `degree` random nodes of the next layer with weights 1..9."""
    ids = list(range(label_base, label_base + layers * width))
    rng.shuffle(ids)
    layer_nodes = [[0]] + [ids[l * width:(l + 1) * width]
                           for l in range(layers)]
    edges = []
    for l in range(layers):
        for x in layer_nodes[l]:
            for y in rng.sample(layer_nodes[l + 1], degree):
                edges.append((x, y, rng.randint(1, 9)))
    edges.sort()
    target = layer_nodes[-1][rng.randrange(width)]
    return edges, layer_nodes, target


def dag_reference(edges, layer_nodes, target):
    out = {}
    for x, y, w in edges:
        out.setdefault(x, []).append((y, w))
    pr = {0: Fraction(1)}
    for layer in layer_nodes[:-1]:
        for x in layer:
            px = pr.get(x, Fraction(0))
            total = sum(w for _, w in out.get(x, []))
            for y, w in out.get(x, []):
                pr[y] = pr.get(y, Fraction(0)) + px * Fraction(w, total)
    return pr.get(target, Fraction(0))


def parse_relations(text):
    """Parses the text instance format into {name: set of int tuples}."""
    rels, name = {}, None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("relation "):
            name = line[len("relation "):line.index("(")]
            rels[name] = set()
        elif line.startswith("(") and name is not None:
            rels[name].add(tuple(int(v) for v in line[1:-1].split(",")))
    return rels


def check_run(fixpoint_text, edges):
    """A sampled fixpoint of Example 3.9 is one path from node 0: every
    visited node with successors chose exactly one of its edges."""
    rels = parse_relations(fixpoint_text)
    cur = {t[0] for t in rels.get("cur", set())}
    chosen = rels.get("c2", set())
    succ = {}
    for x, y, _ in edges:
        succ.setdefault(x, set()).add(y)
    if cur != {0} | {y for _, y in chosen}:
        return False
    for x in cur:
        picks = [y for (a, y) in chosen if a == x]
        expected = 1 if succ.get(x) else 0
        if len(picks) != expected or any(y not in succ[x] for y in picks):
            return False
    return True


# ---- workloads -----------------------------------------------------------

# Warm-up requests use this seed whatever the run's seed, so that set-up
# does the same work on every run.
WARMUP_SEED = 0


class Workload:
    """Generated requests plus what is needed to check their answers.

    conns: client connections; cpus: CPUs the fleet and client share.
    rows: (conn, kind, key, request dict) in send order per connection.
    setup: registrations sent before the timed phase.
    warmup: requests sent after the registrations, outside the timed list.
    checks: key -> callable(result payload) -> bool.
    """

    def __init__(self, conns, cpus):
        self.conns = conns
        self.cpus = cpus
        self.rows = []
        self.setup = []
        self.warmup = []
        self.checks = {}


def _close(value, exact, tol):
    return abs(float(value) - float(exact)) <= tol + 1e-12


def _exact_check(exact):
    return lambda res: res.get("probability") == frac_str(exact)


def frac_str(f):
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (
        f.numerator, f.denominator)


def chain_checks(kind, chain, req):
    if kind in ("forever", "partition"):
        return _exact_check(chain.exact)
    if kind == "mcmc":
        return lambda res: _close(res["estimate"], chain.exact,
                                  req["epsilon"])
    return lambda res: _close(res["estimate"], chain.exact, TRAJECTORY_TOL)


def chains_cold(seed, chains=4800):
    """Four noninflationary kinds over distinct generated chains."""
    rng = random.Random("chains_cold/%d" % seed)
    w = Workload(2, cpus=2)
    rid = 1
    for i in range(chains):
        family, shape, threads = CHAIN_PATTERN[i % len(CHAIN_PATTERN)]
        chain = make_chain(rng, family, shape, i)
        # Shift by one every pattern round so that both connections see
        # every chain type (the pattern length is even).
        conn = (i + i // len(CHAIN_PATTERN)) % w.conns
        for kind, req in chain_requests(chain, threads, rid, seed):
            key = "r%d" % req["id"]
            w.rows.append((conn, kind, key, req))
            w.checks[key] = chain_checks(kind, chain, req)
        rid += 4
    # Warm-up: one chain of every type, outside the timed list. It is
    # most of setup_s, which would otherwise be process start-up jitter.
    # The exact solve's cost depends on the weights, so the warm-up chains
    # are the same on every seed and setup_s does the same work.
    warm = random.Random(WARMUP_SEED)
    for j, (family, shape, threads) in enumerate(CHAIN_PATTERN):
        chain = make_chain(warm, family, shape, chains + j)
        w.warmup += [req for _, req in chain_requests(
            chain, threads, 10 ** 7 + 4 * j, WARMUP_SEED)]
    return w


# Per DAG: run twice, exact, approx, subscribe. With five requests per
# DAG the overall median lands inside the exact cluster, not in a gap.
DAG_KINDS = ("run", "exact", "run", "approx", "subscribe")
DAG_SHAPE = (6, 3, 2)
FIXPOINT_EPSILON = 0.15


def dag_requests(rng, index, rid, seed):
    edges, layer_nodes, target = make_dag(rng, *DAG_SHAPE,
                                          label_base=100 * (index + 1))
    data = relation("e", ["x", "y", "p"], edges)
    exact = dag_reference(edges, layer_nodes, target)
    out = []
    for kind in DAG_KINDS:
        req = {"id": rid + len(out), "method": kind, "program_text": REACH,
               "data_text": data, "seed": seed + len(out)}
        if kind != "run":
            req["event"] = "cur(%d)" % target
        if kind in ("approx", "subscribe"):
            req.update(epsilon=FIXPOINT_EPSILON, delta=DELTA)
        if kind == "subscribe":
            req["target"] = "approx"
        if kind == "exact":
            check = _exact_check(exact)
        elif kind == "run":
            check = (lambda e: lambda res: check_run(res["fixpoint"], e))(
                edges)
        elif kind == "approx":
            check = (lambda x: lambda res: _close(
                res["estimate"], x, FIXPOINT_EPSILON))(exact)
        else:
            check = (lambda x: lambda res: _close(
                res["estimate"], x, res["ci_halfwidth"]))(exact)
        out.append((kind, req, check))
    return out


def fixpoint_sampling(seed, dags=1500):
    """Inflationary kinds over distinct layered weighted DAGs."""
    rng = random.Random("fixpoint_sampling/%d" % seed)
    w = Workload(2, cpus=2)
    rid = 1
    for i in range(dags):
        for kind, req, check in dag_requests(rng, i, rid, seed):
            key = "r%d" % req["id"]
            w.rows.append((i % w.conns, kind, key, req))
            w.checks[key] = check
        rid += len(DAG_KINDS)
    warm = random.Random(WARMUP_SEED)  # the same on every seed
    for j in range(2):
        w.warmup += [req for _, req, _ in dag_requests(
            warm, dags + j, 10 ** 7 + 8 * j, WARMUP_SEED)]
    return w


# cached_reads: a catalog of registered instances, one read key each.
CATALOG = 160
CACHED_KINDS = ("forever", "mcmc", "trajectory", "exact", "approx")
CACHED_EPSILON = 0.3
ZIPF_S = 1.1


def cached_instance(seed, i, version):
    """(data, exact answer of key i) for catalog instance i at a version.
    Keys of the first three kinds read small pick instances, the others
    small DAGs whose event node 1 sits somewhere in every version."""
    rng = random.Random("cached_reads/%d/%d/%d" % (seed, i, version))
    kind = CACHED_KINDS[i % len(CACHED_KINDS)]
    if kind in ("forever", "mcmc", "trajectory"):
        weights = {(k, v): rng.randint(1, 9) for k in range(2)
                   for v in range(3)}
        data = relation("opts", ["k", "v", "w"],
                        sorted((k, v, w) for (k, v), w in weights.items()))
        return data, pick_reference(weights, 0, 1)
    edges, layer_nodes, _ = make_dag(rng, 3, 2, 2, label_base=1)
    data = relation("e", ["x", "y", "p"], edges)
    return data, dag_reference(edges, layer_nodes, 1)


def cached_key_request(seed, i):
    kind = CACHED_KINDS[i % len(CACHED_KINDS)]
    req = {"method": kind, "data": "d%d" % i}
    if kind in ("forever", "mcmc", "trajectory"):
        req.update(program="pick", event="pick(0, 1)")
    else:
        req.update(program="reach", event="cur(1)")
    if kind == "mcmc":
        req.update(burn_in=8, epsilon=CACHED_EPSILON, delta=DELTA, seed=seed)
    elif kind == "approx":
        req.update(epsilon=CACHED_EPSILON, delta=DELTA, seed=seed)
    elif kind == "trajectory":
        req.update(steps=1000, runs=4, seed=seed)
    return kind, req


def cached_reads(seed, per_conn=393216):
    """Zipf-skewed reads of registered programs and instances, with
    registration writes and health checks mixed in.

    One connection on one CPU: a request here is a chain of sub-millisecond
    hops between the client, the router and a worker. Spread over two
    CPUs, every hop that woke an idle CPU waited for the host to run it,
    and throughput swung by 2x with the host's load; see NOTES.md."""
    rng = random.Random("cached_reads/%d" % seed)
    w = Workload(1, cpus=1)
    w.setup.append({"method": "register_program", "name": "pick",
                    "program_text": PICK})
    w.setup.append({"method": "register_program", "name": "reach",
                    "program_text": REACH})
    versions = {i: [0] for i in range(CATALOG)}
    for i in range(CATALOG):
        w.setup.append({"method": "register_instance", "name": "d%d" % i,
                        "data_text": cached_instance(seed, i, 0)[0]})
    # Key i has Zipf rank i and kind i % 5 on every seed, so the hot set
    # mixes all five kinds the same way whatever the seed.
    weights = [1.0 / (i + 1) ** ZIPF_S for i in range(CATALOG)]
    cum = list(itertools.accumulate(weights))
    catalog = range(CATALOG)
    keys = {i: cached_key_request(seed, i) for i in range(CATALOG)}
    w.warmup = [dict(keys[i][1], id=10 ** 7 + i) for i in range(CATALOG)]
    rid = 1
    for n in range(per_conn):
        for conn in range(w.conns):
            slot = (n * w.conns + conn) % 100
            if slot in (17, 67):  # 2%: replace an instance
                i = rng.choices(catalog, cum_weights=cum)[0]
                version = len(versions[i])
                versions[i].append(version)
                req = {"id": rid, "method": "register_instance",
                       "name": "d%d" % i,
                       "data_text": cached_instance(seed, i, version)[0]}
                w.rows.append((conn, "register", "w%d" % i, req))
            elif slot in (5, 39, 81):  # 3%: ping / health
                method = "ping" if slot != 39 else "health"
                w.rows.append((conn, method, method,
                               {"id": rid, "method": method}))
            else:
                # Reads share one request object per key (and so carry no
                # id); the list is long enough never to wrap.
                i = rng.choices(catalog, cum_weights=cum)[0]
                kind, req = keys[i]
                w.rows.append((conn, kind, "k%d" % i, req))
            rid += 1

    def read_check(i):
        kind = CACHED_KINDS[i % len(CACHED_KINDS)]
        answers = [cached_instance(seed, i, v)[1] for v in versions[i]]

        def check(res):
            if kind in ("forever", "exact"):
                return res.get("probability") in {frac_str(a)
                                                  for a in answers}
            tol = TRAJECTORY_TOL if kind == "trajectory" else CACHED_EPSILON
            return any(_close(res["estimate"], a, tol) for a in answers)
        return check

    for i in range(CATALOG):
        w.checks["k%d" % i] = read_check(i)
        w.checks["w%d" % i] = lambda res: True
    w.checks["ping"] = lambda res: res.get("pong") is True
    w.checks["health"] = lambda res: "status" in res
    return w


WORKLOADS = {
    "chains_cold": chains_cold,
    "fixpoint_sampling": fixpoint_sampling,
    "cached_reads": cached_reads,
}
