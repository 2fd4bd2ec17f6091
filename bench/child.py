"""One cold benchmark process: set up, run a job's ops in order, report.

Usage: python3 child.py JOB_JSON OUT_DIR MODE

MODE is ``run``, ``trace`` (run with every public function wrapped by
``tracer.Tracer``) or ``setup`` (stop once set-up is done).  The parent
records the spawn time; this process reports, on its last stdout line,
the monotonic time at which set-up ended, the latency of each op, a
digest of each op's exit code, output and stderr, and its peak RSS.  Each
op's output is written to ``OUT_DIR/<index>.out`` (a CLI op's stderr to
``OUT_DIR/<index>.err``) for the parent's correctness checks.

It also reports host-speed probes (``probe``): a few right after set-up
and, unless it only sets up, one before the first op, one every 0.2 s
while the ops run (from ``SIGALRM``, between two bytecodes of the running
op, whose latency and spans leave the probe out) and one after the last
op.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

PROBE_EVERY_S = 0.2       # seconds between two host-speed probes
PROBE_ROUNDS = 4000       # the work of one probe, about 5 ms
SETUP_PROBES = 4          # probes right after set-up, which set-up time leaves out

_probe_s = 0.0            # seconds spent in probes so far
_probes: list = []        # (op index or -1, seconds) of each probe
_op = -1


def clock() -> float:
    """``time.perf_counter`` less the time spent in host-speed probes."""
    return time.perf_counter() - _probe_s


def probe() -> float:
    """Time a fixed piece of pure-Python work that calls nothing in the package.

    Big-integer arithmetic, tuple keys in a dict, list growth and a sort,
    as in the package's own inner loops.  The cyclic collector is off
    while it runs, so that its time does not depend on the package's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    x = 0x9E3779B97F4A7C15
    mask = (1 << 160) - 1
    counts: dict = {}
    row = []
    for i in range(PROBE_ROUNDS):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        row.append(x >> 96)
        key = (i & 63, x & 511)
        counts[key] = counts.get(key, 0) + (x >> 150)
    row.sort()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def _on_alarm(signum, frame) -> None:
    """Probe the host between two bytecodes of whatever op is running.

    The op clocks leave the probe's time out.
    """
    global _probe_s
    t0 = time.perf_counter()
    _probes.append((_op, probe()))
    _probe_s += time.perf_counter() - t0


def _load_inputs(op: dict) -> None:
    """Turn a tree op's JSON inputs into the mappings the package takes."""
    if op["kind"] != "tree":
        return
    op["local"] = [{tuple(y): c for y, c in d} for d in op["divisors"]]
    op["pairs"] = [tuple({int(e): m for e, m in side.items()} for side in pair)
                   for pair in op["multisets"]]


def _run_cli(cli, op: dict, path: str) -> tuple[float, int, str]:
    saved_env = {k: os.environ.get(k) for k in op.get("env", {})}
    os.environ.update(op.get("env", {}))
    real_out, real_err = sys.stdout, sys.stderr
    err = io.StringIO()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            sys.stdout, sys.stderr = fh, err
            t0 = clock()
            code = cli.run(op["argv"])
            dt = clock() - t0
    finally:
        sys.stdout, sys.stderr = real_out, real_err
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return dt, code, err.getvalue()


def _run_recon(sl, op: dict) -> tuple[float, dict]:
    gd = sl.global_divisors
    t0 = clock()
    divisor = gd.DivisorVector.from_json_dict(op["divisor"])
    witness = gd.cartier_witness(op["n"], divisor)
    pp = gd.pushpull_matrix(op["n"])
    rebuilt = pp.pull_push(witness)
    match = all(rebuilt[p] == divisor.typeII_coeff(p) for p in pp.partitions)
    dt = clock() - t0
    return dt, {"match": match, "witness": {s.key(): c for s, c in witness.items()}}


def _run_tree(sl, op: dict) -> tuple[float, dict]:
    trees, weights, cones, local = sl.trees, sl.weights, sl.cones, sl.local_divisors
    t0 = clock()
    raw = trees.ColoredTree.from_json_dict(op["tree"])
    report = trees.validate_tree(raw)
    t = trees.reduce_tree(raw)
    labelled = weights.label_weights(t)
    gens = cones.generators(t)
    count = cones.ray_count(t)
    duality = cones.verify_duality(t)
    subsets = local.minimally_complete_subsets(t)
    rays = [local.ray_of_subset(t, y) for y in subsets]
    parts = [local.partition_of_subset(t, y) for y in subsets]
    back = [local.subset_of_partition(t, p) for p in parts]
    decisions = [local.is_cartier_local(t, d) for d in op["local"]]
    compared = []
    for a, b in op["pairs"]:
        equal = weights.weight_sum_equal(t, a, b)
        cert = weights.pairing_certificate(t, a, b)
        verified = None if cert is None else weights.verify_certificate(t, a, b, cert)
        compared.append((equal, cert is not None, verified))
    dt = clock() - t0
    return dt, {
        "valid": report.ok,
        "canonical": t.to_json_dict(),
        "weights": {str(e): list(v) for e, v in sorted(labelled.items())},
        "generators": [list(v) for v in gens],
        "ray_count": count,
        "duality_ok": duality["ok"],
        "mcs": [list(y) for y in subsets],
        "rays": [list(r) for r in rays],
        "partitions": [p.key() for p in parts],
        "roundtrip": [list(y) for y in back],
        "cartier": [{"cartier": d.cartier,
                     "subsets": [list(y) for y in d.subsets],
                     "witness": None if d.witness is None else list(d.witness),
                     "violated": (None if d.violated_relation is None
                                  else list(d.violated_relation))}
                    for d in decisions],
        "compare": [list(c) for c in compared],
    }


def run_op(sl, op: dict, path: str) -> tuple[float, int, bytes, bytes]:
    """Run one op: its latency, exit code, output bytes and stderr bytes.

    The output is also left at ``path``; a CLI op's stderr beside it, with
    ``.err`` in place of ``.out``.
    """
    if op["kind"] == "cli":
        dt, code, err = _run_cli(sl.cli, op, path)
        with open(path[:-len(".out")] + ".err", "w", encoding="utf-8") as fh:
            fh.write(err)
        with open(path, "rb") as fh:
            return dt, code, fh.read(), err.encode()
    if op["kind"] == "recon":
        dt, doc = _run_recon(sl, op)
    else:
        dt, doc = _run_tree(sl, op)
    body = json.dumps(doc, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(body)
    return dt, 0, body, b""


def _peak_rss_kib() -> int:
    """This process's own peak RSS in KiB.

    On Linux, ``ru_maxrss`` after exec also carries the peak RSS of the
    parent that spawned the process, so the kernel's per-process ``VmHWM``
    is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    global _op
    job_path, out_dir, mode = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    for op in job["warmup"] + job["ops"]:
        _load_inputs(op)
    import scaledlines as sl
    import scaledlines.cli  # noqa: F401  (set-up imports every module an op reaches)
    from scaledlines import cones, global_divisors, local_divisors, trees, weights  # noqa: F401
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracing.clock = clock                 # spans leave the host probes out
        tracer = tracing.Tracer()
    errors: dict[int, str] = {}
    for k, op in enumerate(job["warmup"]):
        try:
            run_op(sl, op, os.path.join(out_dir, f"w{k}.out"))
        except Exception as exc:              # reported as a failed set-up
            errors[-1 - k] = f"{type(exc).__name__}: {exc}"
    ready = time.monotonic()
    result: dict = {"ready": ready, "errors": errors,
                    "setup_probes": [probe() for _ in range(SETUP_PROBES)]}
    if mode != "setup":
        if tracer is not None:
            tracer.begin_ops()
        lat, codes, digests, cli_bytes = [], [], [], 0
        _probes.append((-1, probe()))
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        for i, op in enumerate(job["ops"]):
            _op = i
            path = os.path.join(out_dir, f"{i}.out")
            if tracer is not None:
                tracer.op = i
            try:
                dt, code, body, err = run_op(sl, op, path)
            except Exception as exc:          # an unexpected exception fails the op
                errors[i] = f"{type(exc).__name__}: {exc}"
                dt, code, body, err = None, None, b"", b""
            lat.append(dt)
            codes.append(code)
            digests.append(hashlib.sha256(b"%r\n" % code + body + err).hexdigest())
            if op["kind"] == "cli":
                cli_bytes += len(body)
        signal.setitimer(signal.ITIMER_REAL, 0)
        _probes.append((len(lat), probe()))
        result.update(lat=lat, probes=_probes, codes=codes, digests=digests,
                      rss_kib=_peak_rss_kib())
        if tracer is not None:
            tracer.op = -1
            result["layers"] = tracer.metrics(cli_bytes)
            tracer.dump(os.path.join(out_dir, "spans.jsonl.gz"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
