"""Benchmark runner for scaledlines.

    python3 bench/run.py --workload global-lattice --seed 1 --seconds 45 --trace 0

Each run builds its workload's job from ``--seed`` (``gen.py``) before any
process imports the package, then starts fresh child processes
(``child.py``), one at a time, until ``--seconds`` have passed and at
least ``MIN_CHILDREN`` have finished the job.  Every child starts cold, as
a CLI user does: it imports ``scaledlines`` from ``src/``, does the
workload's warm-up and runs the whole job in a closed loop with one
client.  A few extra children stop after set-up, to measure it more often.

The host is shared and its speed drifts, so every time is divided by
the host factor measured alongside it: how much slower than on the
reference host a fixed probe ran (``host_factor``, ``op_factors``).  The
times as measured are printed beside the metrics.

Every output is checked by an independent route (``checks.py``) for the
first child; later children must reproduce its output bytes.  With
``--trace 1`` half of the children run with every public function wrapped
(``tracer.py``) and the per-layer metrics come from their spans.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

MIN_CHILDREN = 5          # finished jobs per untraced run; sets the tail percentile
SETUP_SAMPLES = 30        # set-up times per run, topped up by children that only set up
RUN_LIMIT_S = 170         # a run never takes longer than this
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 75, 50)
PROBE_REF_S = 0.005       # one host-speed probe (child.probe) on the reference host
OP_PROBES = 5             # fewest probes that set the host factor of one op
OUT_DIR = ".bench_out"

# Workloads whose ops are a stream of like requests, so that latency
# percentiles mean something.  global-lattice is a fixed list of 17 unlike
# verbs: it has no median op, and its op_tail_ms is its slowest verb.
STREAMS = ("divisor-queries", "tree-local")

# The metrics BENCHMARK.json bounds.  BENCHMARK.json cannot scope a metric
# to some workloads, so the median op latency, which only streams have, is
# printed for them but carries no bound.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "ops/s"), ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
PRINTED = END_TO_END[:3] + (("op_p50_ms", "ms"),) + END_TO_END[3:]


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(ops_per_job: int) -> float:
    """Highest percentile with at least 10 samples beyond it in the smallest run."""
    samples = MIN_CHILDREN * ops_per_job
    return next((p for p in TAIL_PERCENTILES if samples * (100 - p) / 100 >= 10), 50)


def host_factor(probes: list[float]) -> float:
    """How many times slower than the reference host the host ran.

    The host is shared, and its speed drifts by half and more for seconds
    or minutes at a time.  A child times a fixed piece of pure-Python work
    (``child.probe``) every 0.2 s while its ops run, and right after
    set-up; each time is divided by the mean over the probes that ran
    alongside it.  The probes call nothing in the package, so a change to
    the package moves the metrics but not the factor.
    """
    return statistics.fmean(probes) / PROBE_REF_S


def op_factors(probes: list[list], ops: int) -> list[float]:
    """The host factor of each op of a child, from its ``[op, seconds]`` probes.

    An op's own probes, or, for an op that ran fewer than ``OP_PROBES``,
    that many around it, taking the probes on either side in turn.
    """
    order = [op for op, _ in probes]
    out = []
    for i in range(ops):
        lo, hi = bisect.bisect_left(order, i), bisect.bisect_right(order, i)
        pad = max(0, -(-(OP_PROBES - (hi - lo)) // 2))
        out.append(host_factor([s for _, s in probes[max(0, lo - pad):hi + pad]]))
    return out


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SCALEDLINES_MAX_N", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """One workload, one seed: children, their samples and the failures found."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = os.path.join(OUT_DIR, f"{workload}-s{seed}-t{int(trace)}")
        shutil.rmtree(os.path.join(ROOT, self.dir), ignore_errors=True)
        os.makedirs(os.path.join(ROOT, self.dir, "in"))
        os.makedirs(os.path.join(ROOT, self.dir, "out"))
        self.job = gen.make_job(workload, seed, os.path.join(self.dir, "in"))
        self.job_path = os.path.join(self.dir, "job.json")
        with open(os.path.join(ROOT, self.job_path), "w", encoding="utf-8") as fh:
            json.dump(self.job, fh)
        self.env = _child_env()
        self.started = time.monotonic()
        self.setup: list[float] = []         # seconds, as measured
        self.setup_factors: list[float] = []  # host factor of each set-up
        self.children: list[dict] = []       # untraced and traced results
        self.reference: list[str] | None = None
        self.bad: dict[int, str] = {}
        self.failures: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def _spawn(self, mode: str) -> dict | None:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        argv = [sys.executable, os.path.join(HERE, "child.py"), self.job_path,
                os.path.join(self.dir, "out"), mode]
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self._lost(mode, "child ran past the run limit")
            return None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self._lost(mode, f"child exited {proc.returncode}: {err.strip()[-300:]}")
            return None
        result = json.loads(lines[-1])
        self.setup.append(result["ready"] - spawned)
        self.setup_factors.append(host_factor(result["setup_probes"]))
        if result.get("probes"):
            result["factors"] = op_factors(result["probes"], len(result["lat"]))
        for k, msg in result["errors"].items():
            if int(k) < 0:
                self._fail(f"warm-up raised {msg}", 1)
        return result

    def _lost(self, mode: str, reason: str) -> None:
        """A child that gave no result fails every op it was to run."""
        count = 1 if mode == "setup" else len(self.job["ops"])
        self.attempted += count
        self._fail(reason, count)

    def _fail(self, reason: str, count: int) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + count
        self.failed += count

    def _check(self, result: dict) -> None:
        """Check the first child's outputs; later children must match its bytes.

        An op whose output failed a check fails again in every child that
        reproduces the same bytes.
        """
        ops = self.job["ops"]
        self.attempted += len(ops)
        if self.reference is None:
            self.reference = result["digests"]
            self.bad = self._check_outputs(result)
        for i in range(len(ops)):
            if str(i) in result["errors"]:
                self._fail(f"op raised {result['errors'][str(i)]}", 1)
            elif result["digests"][i] != self.reference[i]:
                self._fail("output bytes differ between children", 1)
            elif i in self.bad:
                self._fail(self.bad[i], 1)

    def _check_outputs(self, result: dict) -> dict[int, str]:
        """Reasons by op index for the outputs that fail a check."""
        ops = self.job["ops"]
        bodies, errs = [], []
        for i in range(len(ops)):
            stem = os.path.join(ROOT, self.dir, "out", str(i))
            with open(stem + ".out", "rb") as fh:
                bodies.append(fh.read())
            errs.append(b"")
            if os.path.exists(stem + ".err"):
                with open(stem + ".err", "rb") as fh:
                    errs[-1] = fh.read()
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh).get(self.workload, {})
        if recorded.get("seed") == self.seed and recorded.get("digest") != self.digest():
            return dict.fromkeys(range(len(ops)), "output digest differs from the recorded one")
        disagree = set(checks.check_agreement(ops, result["codes"], bodies))
        bad = {}
        for i, op in enumerate(ops):
            if str(i) in result["errors"]:
                continue
            reason = checks.check_op(op, result["codes"][i], bodies[i], errs[i])
            if reason is None and i in disagree:
                reason = "decide and witness disagree"
            if reason is not None:
                bad[i] = reason
        return bad

    def digest(self) -> str:
        return hashlib.sha256("".join(self.reference or []).encode()).hexdigest()

    def execute(self) -> None:
        self._spawn("setup")                  # compiles bytecode and warms the file cache
        self.setup.clear()
        self.setup_factors.clear()
        self.started = time.monotonic()
        modes = ["run", "trace"] if self.trace else ["run"]
        done = {"run": 0, "trace": 0}
        k = 0
        while (time.monotonic() - self.started < self.seconds
               or done["run"] < (1 if self.trace else MIN_CHILDREN) or done[modes[-1]] < 1):
            # Set-up probes go between the job children, so that the set-up
            # samples span the run as the job samples do.
            want = min(SETUP_SAMPLES, (k + 1) * SETUP_SAMPLES // MIN_CHILDREN) - 1
            while len(self.setup) < want and self._spawn("setup") is not None:
                pass
            mode = modes[k % len(modes)]
            k += 1
            result = self._spawn(mode)
            if result is None:
                break
            result["mode"] = mode
            self._check(result)
            self.children.append(result)
            done[mode] += 1
        out = os.path.join(ROOT, self.dir, "out")
        with open(os.path.join(out, "children.json"), "w", encoding="utf-8") as fh:
            json.dump({"setup": self.setup, "setup_factors": self.setup_factors,
                       "children": self.children}, fh)
        for name in os.listdir(out):          # op outputs, up to 17 MB a job; spans stay
            if name.endswith((".out", ".err")):
                os.remove(os.path.join(out, name))

    def untraced(self) -> list[dict]:
        return [c for c in self.children if c["mode"] == "run"]

    def end_to_end(self, scaled: bool = True) -> tuple[dict[str, float], str]:
        """The end-to-end metrics; with ``scaled``, every time divided by
        the host factor measured alongside it (``op_factors``)."""
        kids = self.untraced()
        per_child = [[x / f if scaled else x for x, f in zip(c["lat"], c["factors"])
                      if x is not None] for c in kids]
        lat = [x for xs in per_child for x in xs]
        walls = [sum(xs) for xs in per_child]
        setup = ([s / f for s, f in zip(self.setup, self.setup_factors)] if scaled
                 else self.setup)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "ops_per_s": len(lat) / sum(walls),
            "peak_rss_mib": statistics.median(c["rss_kib"] for c in kids) / 1024,
        }
        if self.workload not in STREAMS:
            slowest = [max(xs) for xs in per_child]
            values["op_tail_ms"] = statistics.median(slowest) * 1e3
            return values, f"slowest op of the job, median of {len(slowest)} children"
        p = tail_percentile(len(self.job["ops"]))
        values["op_p50_ms"] = percentile(lat, 50) * 1e3
        values["op_tail_ms"] = percentile(lat, p) * 1e3
        beyond = sum(x > percentile(lat, p) for x in lat)
        return values, f"p{p:g} of {len(lat)} samples, {beyond} beyond"

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        traced = [c["layers"] for c in self.children if c["mode"] == "trace"]
        out: dict[str, float] = {}
        notes = []
        for name, _, _, _ in tracer.PER_LAYER:
            if name == "trace.overhead_ratio":
                continue
            vals = [t[name] for t in traced]
            if name in tracer.EXACT:
                out[name] = vals[0]
                if len(set(vals)) != 1:
                    notes.append(f"count {name} differs between traced children: {vals}")
            else:
                out[name] = statistics.median(vals)
        walls = {mode: statistics.median(sum(x / f for x, f in zip(c["lat"], c["factors"])
                                             if x is not None)
                                         for c in self.children
                                         if c["mode"] == mode) for mode in ("run", "trace")}
        out["trace.overhead_ratio"] = walls["trace"] / walls["run"]
        return out, notes


def dominance(workload: str, layers: dict[str, float]) -> tuple[list[str], bool]:
    """The layers' self-time shares and whether the workload's stated
    dominant layer holds, as lines to print and a verdict."""
    selfs = {layer: layers[f"{layer}.s" if layer in ("weights", "cones", "cli")
                           else f"{layer}.self_s"] for layer in tracer.LAYERS}
    total = sum(selfs.values()) or 1.0
    lines = ["layer self-time shares: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]))]
    if workload == "global-lattice":
        claim = "intlinalg HNF has the largest self-time share"
        holds = layers["intlinalg.hnf_s"] > max(v for k, v in selfs.items() if k != "intlinalg")
    elif workload == "tree-local":
        share = sum(selfs[k] for k in ("trees", "weights", "cones", "local_divisors")) / total
        claim = f"trees+weights+cones+local_divisors dominate ({share:.1%})"
        holds = share > 0.5
    else:
        claim = "trees self time is zero after set-up"
        holds = selfs["trees"] == 0
    lines.append(f"claim: {claim}: {'holds' if holds else 'does not hold'}")
    return lines, holds


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    run.execute()
    print(f"workload {workload}  seed {seed}  children {len(run.children)}  "
          f"ops/job {len(run.job['ops'])}  attempted {run.attempted}  failed {run.failed}")
    for reason, count in sorted(run.failures.items()):
        print(f"  FAILED x{count}: {reason}")
    print(f"  fail_ratio {run.failed / max(run.attempted, 1):g} 1")
    print(f"  digest {run.digest()}")
    print("  job seconds per child: " + " ".join(
        f"{sum(x for x in c['lat'] if x is not None):.3f}{'t' if c['mode'] == 'trace' else ''}"
        for c in run.children))
    metrics: dict[str, dict] = {}
    if run.children and run.untraced():
        e2e, note = run.end_to_end()
        raw, _ = run.end_to_end(scaled=False)
        print("  mean host factor per child: " + " ".join(
            f"{host_factor([s for _, s in c['probes']]):.3f}" for c in run.untraced())
            + "  (times below are divided by it, op by op; as measured in brackets)")
        for name, unit in PRINTED:
            if name in e2e:
                print(f"  {name:<13} {e2e[name]:.6g} {unit}  [{raw[name]:.6g}]"
                      + (f"  ({note})" if name == "op_tail_ms" else ""))
        if not trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        if trace and any(c["mode"] == "trace" for c in run.children):
            layers, notes = run.per_layer()
            units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
            for name, _, _, _ in tracer.PER_LAYER:
                print(f"  {name:<34} {layers[name]:.6g} {units[name]}")
                metrics[name] = {"value": layers[name], "unit": units[name]}
            for line in notes + dominance(workload, layers)[0]:
                print(f"  {line}")
    correct = run.failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "scaledlines", "cli.py")):
        print(f"no scaledlines sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
