"""Self-tests of the benchmark: python3 -m unittest discover -s bench

They run reduced jobs of every workload through run.py and check the
printed metric names and units against BENCHMARK.json, and show that the
checker counts wrong outputs as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _small(workload: str):
    """The workload's generator, cut down to a few quick ops."""
    full = gen.WORKLOADS[workload]

    def make(rng, indir):
        job = full(rng, indir)
        if workload == "global-lattice":
            job["ops"] = [op for op in job["ops"] if op["expect"]["n"] <= 5]
        else:
            job["ops"] = job["ops"][:12]
        return job
    return make


class SmokeRuns(unittest.TestCase):
    def setUp(self):
        os.chdir(run.ROOT)

    def _run(self, workload: str, trace: bool) -> dict:
        with mock.patch.dict(gen.WORKLOADS, {workload: _small(workload)}), \
                contextlib.redirect_stdout(io.StringIO()):
            return run.run_workload(workload, 0, 1, trace)

    def test_end_to_end_metrics_and_units(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in gen.WORKLOADS:
            summary = self._run(name, trace=False)
            self.assertTrue(summary["correct"], name)
            self.assertEqual(summary["failed"], 0)
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            self.assertEqual(got, want, name)
            self.assertTrue(all(v["value"] > 0 for v in summary["metrics"].values()))

    def test_per_layer_metrics_units_and_exact_counts(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in gen.WORKLOADS:
            first = self._run(name, trace=True)
            got = {k: v["unit"] for k, v in first["metrics"].items()}
            self.assertEqual(got, want, name)
            second = self._run(name, trace=True)
            for name in tracer.EXACT:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"], name)

    def test_stated_dominant_layer_holds_at_full_size(self):
        """Each workload's full job, traced once (about 40 s in all)."""
        for name in gen.WORKLOADS:
            with contextlib.redirect_stdout(io.StringIO()):
                summary = run.run_workload(name, 1, 1, True)
            self.assertTrue(summary["correct"], name)
            layers = {k: v["value"] for k, v in summary["metrics"].items()}
            lines, holds = run.dominance(name, layers)
            self.assertTrue(holds, f"{name}: {lines}")


class CheckerCountsFailures(unittest.TestCase):
    def setUp(self):
        os.chdir(run.ROOT)

    def _checked(self, rank_out: bytes, perturb: int) -> run.Run:
        """A two-op job (rank and witness at n = 4) fed the given outputs."""
        def make(rng, indir):
            ops = [{"kind": "cli", "verb": "rank", "expect": {"n": 4},
                    "argv": ["global", "rank", "--n", "4"]}]
            x = gen._image_vector(4, rng)
            ops += [op for op in gen._divisor_ops(4, x, {}, os.path.join(indir, "d.json"))
                    if op["verb"] == "witness"]
            return {"warmup": [], "ops": ops}

        with mock.patch.dict(gen.WORKLOADS, {"global-lattice": make}):
            r = run.Run("global-lattice", 0, 1, False)
        with open(r.job["ops"][1]["expect"]["divisor"], encoding="utf-8") as fh:
            divisor = json.load(fh)
        x = {p: divisor["typeII"].get(gen.partition_key(p), 0) for p in gen.partitions(4)}
        witness = {gen.subset_key(s): c for s, c in gen.closed_form_witness(4, x).items()}
        witness["1,2"] += perturb
        outputs = [rank_out, json.dumps({"n": 4, "witness": witness}).encode()]
        for i, body in enumerate(outputs):
            with open(os.path.join(r.dir, "out", f"{i}.out"), "wb") as fh:
                fh.write(body)
        r._check({"errors": {}, "codes": [0, 0], "digests": ["a", "b"]})
        return r

    def test_right_outputs_pass(self):
        self.assertEqual(self._checked(b"11\n", 0).failed, 0)

    def test_wrong_rank_and_perturbed_witness_fail(self):
        r = self._checked(b"12\n", 1)
        self.assertEqual((r.attempted, r.failed), (2, 2))

    def test_later_child_with_other_bytes_fails(self):
        r = self._checked(b"11\n", 0)
        r._check({"errors": {}, "codes": [0, 0], "digests": ["a", "c"]})
        self.assertEqual((r.attempted, r.failed), (4, 1))

    def test_witness_exit_2_counts_only_for_not_cartier(self):
        import random
        os.chdir(run.ROOT)
        indir = os.path.join(run.OUT_DIR, "selftest")
        os.makedirs(indir, exist_ok=True)
        rng = random.Random(3)
        while True:
            x = gen._sparse_vector(4, rng)
            if gen.closed_form_witness(4, x) is None:
                break
        op = gen._divisor_ops(4, x, {}, os.path.join(indir, "sparse.json"))[1]
        message = b"error: no witness: reconstruction differs at partition 1|2|3,4\n"
        self.assertIsNone(checks.check_op(op, 2, b"", message))
        for err in (b"", b"error: [Errno 2] No such file or directory: 'd.json'\n",
                    b"usage: scaledlines global witness ...\n"):
            self.assertIsNotNone(checks.check_op(op, 2, b"", err), err)

    def test_decide_disagreeing_with_witness(self):
        ops = [{"verb": "decide", "expect": {"divisor": "d"}},
               {"verb": "witness", "expect": {"divisor": "d"}}]
        self.assertEqual(checks.check_agreement(ops, [0, 2], [b'{"cartier": true}', b""]),
                         [0, 1])
        self.assertEqual(checks.check_agreement(ops, [0, 0], [b'{"cartier": true}', b""]), [])


class HostProbes(unittest.TestCase):
    def test_op_clock_leaves_probe_time_out(self):
        import child
        t0 = child.clock()
        child._on_alarm(None, None)
        self.assertLess(child.clock() - t0, child._probes[-1][1] / 2)

    def test_host_factor_is_mean_probe_over_reference(self):
        self.assertAlmostEqual(run.host_factor([run.PROBE_REF_S, 2 * run.PROBE_REF_S]), 1.5)


class Generator(unittest.TestCase):
    def test_counts(self):
        self.assertEqual([gen.tree_count(n) for n in range(2, 7)], [1, 4, 26, 236, 2752])
        self.assertEqual([len(gen.partitions(n)) + 1 for n in range(2, 8)],
                         [gen.bell(n) for n in range(2, 8)])

    def test_same_seed_same_job(self):
        os.chdir(run.ROOT)
        d = os.path.join(run.OUT_DIR, "selftest")
        os.makedirs(d, exist_ok=True)
        for name in gen.WORKLOADS:
            self.assertEqual(gen.make_job(name, 5, d), gen.make_job(name, 5, d))

    def test_every_seed_samples_the_same_mix_of_n6_trees(self):
        import random
        shapes = gen.shapes_over(tuple(range(1, 7)))

        def mix(seed):
            sample = gen._stratified_sample(shapes, 150, random.Random(seed))
            return sorted((len(t.children), len(t.mcs())) for t in map(gen.Tree, sample))
        self.assertEqual(len(set(gen._stratified_sample(shapes, 150, random.Random(1)))), 150)
        self.assertEqual(mix(1), mix(2))

    def test_generator_and_checker_do_not_import_the_package(self):
        code = ("import sys; sys.path.insert(0, 'bench'); import gen, checks; "
                "print(any(m.startswith('scaledlines') for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT,
                             capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout.strip(), "False")

    def test_spec_matches_the_code(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(gen.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         [(name, unit) for name, unit, _, _ in tracer.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
