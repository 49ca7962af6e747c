#!/usr/bin/env python3
"""The benchmark's own tests: generators are deterministic per seed, and
the independent references agree with the library on small instances.

    python3 perfbench/test_perfbench.py

The library checks build the benchmark (as run.py does) and ask a real
pfqlr fleet.
"""

import os
import random
import sys
import tempfile
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def rows_text(w):
    return [(c, k, key, workloads.request_line(r)) for c, k, key, r in
            w.rows] + [workloads.request_line(r) for r in w.setup + w.warmup]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, make in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(rows_text(make(5)), rows_text(make(5)))

    def test_other_seed_other_inputs(self):
        for name, make in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertNotEqual(rows_text(make(5)), rows_text(make(6)))

    def test_cold_workloads_never_repeat_a_request(self):
        for name in ("chains_cold", "fixpoint_sampling"):
            w = workloads.WORKLOADS[name](3)
            lines = [workloads.request_line(dict(r, id=0))
                     for _, _, _, r in w.rows]
            with self.subTest(workload=name):
                self.assertEqual(len(lines), len(set(lines)))

    def test_chain_mix_is_fixed(self):
        w = workloads.chains_cold(9)
        kinds = [k for _, k, _, _ in w.rows[:20]]
        self.assertEqual(kinds, ["forever", "partition", "mcmc",
                                 "trajectory"] * 5)
        threads = {r["threads"] for _, _, _, r in w.rows}
        self.assertEqual(threads, {1, 2})

    def test_cached_reads_mix(self):
        w = workloads.cached_reads(4, per_conn=2000)
        kinds = [k for _, k, _, _ in w.rows]
        self.assertAlmostEqual(kinds.count("register") / len(kinds), 0.02,
                               places=3)
        pings = kinds.count("ping") + kinds.count("health")
        self.assertAlmostEqual(pings / len(kinds), 0.03, places=3)


class ReferenceTest(unittest.TestCase):
    def test_pick_closed_form(self):
        weights = {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 2}
        self.assertEqual(workloads.pick_reference(weights, 0, 1),
                         Fraction(3, 4))

    def test_dag_dp_on_the_diamond(self):
        # The weighted diamond of tests/data/reach.dl: Pr[cur(3)] = 1.
        edges = [(0, 1, 1), (0, 2, 3), (1, 3, 1), (2, 3, 1)]
        layers = [[0], [1, 2], [3]]
        self.assertEqual(workloads.dag_reference(edges, layers, 2),
                         Fraction(3, 4))
        self.assertEqual(workloads.dag_reference(edges, layers, 3), 1)

    def test_check_run_rejects_a_second_choice(self):
        edges = [(0, 1, 1), (0, 2, 1)]
        good = "relation c2(a0, a1) {\n  (0, 1)\n}\n" \
               "relation cur(a0) {\n  (0)\n  (1)\n}\n"
        bad = "relation c2(a0, a1) {\n  (0, 1)\n  (0, 2)\n}\n" \
              "relation cur(a0) {\n  (0)\n  (1)\n  (2)\n}\n"
        self.assertTrue(workloads.check_run(good, edges))
        self.assertFalse(workloads.check_run(bad, edges))


class LibraryAgreementTest(unittest.TestCase):
    """References against the code under test, on small instances."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.fleet = run.Fleet(cls.tmp.name)
        cls.conn = run.Conn(cls.fleet.port)

    @classmethod
    def tearDownClass(cls):
        cls.conn.close()
        cls.fleet.stop()
        cls.tmp.cleanup()

    def ask(self, **req):
        resp = self.conn.call(req)
        self.assertTrue(resp.get("ok"), resp)
        return resp["result"]

    def test_pick_forever(self):
        rng = random.Random(1)
        for i, (keys, values) in enumerate([(2, 2), (2, 3), (3, 2)]):
            chain = workloads.make_pick(rng, "pick", keys, values,
                                        10 * (i + 1), {})
            for kind in ("forever", "partition"):
                res = self.ask(method=kind, program_text=chain.program,
                               data_text=chain.data, event=chain.event)
                self.assertEqual(res["probability"],
                                 workloads.frac_str(chain.exact))

    def test_walk_forever(self):
        rng = random.Random(2)
        for shape, edges in (("cycle4", workloads.cycle_edges(4)),
                             ("cycle5", workloads.cycle_edges(5)),
                             ("torus2x2", workloads.torus_edges(2, 2))):
            chain = workloads.make_walk(rng, "walk", shape, edges, 100)
            res = self.ask(method="forever", program_text=chain.program,
                           data_text=chain.data, event=chain.event)
            self.assertEqual(res["probability"],
                             workloads.frac_str(chain.exact), shape)
            self.assertEqual(
                res["states"],
                workloads.walk_long_run(tuple(edges), 1)[1], shape)

    def test_dag_exact_and_run(self):
        rng = random.Random(3)
        for layers, width in ((2, 2), (3, 2), (4, 3)):
            edges, nodes, target = workloads.make_dag(rng, layers, width, 2,
                                                      label_base=1)
            data = workloads.relation("e", ["x", "y", "p"], edges)
            res = self.ask(method="exact", program_text=workloads.REACH,
                           data_text=data, event="cur(%d)" % target)
            self.assertEqual(res["probability"], workloads.frac_str(
                workloads.dag_reference(edges, nodes, target)))
            res = self.ask(method="run", program_text=workloads.REACH,
                           data_text=data, seed=layers)
            self.assertTrue(workloads.check_run(res["fixpoint"], edges))


if __name__ == "__main__":
    unittest.main()
