"""Command line front end.

Every command prints one canonical JSON document (sorted keys, two-space
indent, trailing newline) unless a different format is requested, so that
identical inputs always produce identical bytes.  Exit codes: 0 on
success, 2 on invalid input, 3 when an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional, Sequence

from . import cones, global_divisors, local_divisors, trees, weights
from .global_divisors import DivisorVector, NotCartierError
from .local_divisors import OracleDisagreement
from .trees import ColoredTree, Subset

SCHEMA_PREFIX = "scaledlines"
SCHEMA_VERSION = 1

DEFAULT_GLOBAL_MAX_N = 8
DEFAULT_CROSSCHECK_MAX_N = 5
MAX_N_ENV = "SCALEDLINES_MAX_N"


def _schema(name: str) -> str:
    return f"{SCHEMA_PREFIX}.{name}/{SCHEMA_VERSION}"


#: Characters of JSON gathered before each write to stdout.
_BATCH_CHARS = 1 << 16
_CONTAINERS = (dict, list, tuple)


def _emit_json(doc) -> None:
    """Write exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    The layout of dicts, lists and tuples is written here, and the output
    goes out in batches of about 64 KiB that never split a row of ints,
    so no large document is ever held as one string.  Every key and
    scalar goes through the stdlib encoders.  (``json`` itself skips its
    C encoder when ``indent`` is set, which made it the slowest part of
    large documents.)
    """
    write = sys.stdout.write
    batch: list[str] = []
    size = 0
    for chunk in _json_chunks(doc, "\n"):
        batch.append(chunk)
        size += len(chunk)
        # Batched, because unbuffered stdout turns every write into a system call.
        if size >= _BATCH_CHARS:
            write("".join(batch))
            batch, size = [], 0
    batch.append("\n")
    write("".join(batch))


def _json_chunks(value, newline: str):
    # ``newline`` is the line break plus the indent of ``value`` itself.
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = newline + "  "
        lead = "{" + inner
        # Sorting the items sorts int keys as ints, before they become
        # strings, as ``json`` does.
        for key, item in sorted(value.items()):
            if isinstance(item, _CONTAINERS):
                yield lead + _json_key(key) + ": "
                yield from _json_chunks(item, inner)
            else:
                yield lead + _json_key(key) + ": " + _json_scalar(item)
            lead = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = newline + "  "
        # A row of plain ints is one chunk; bools and int subclasses are
        # left to json.dumps.
        if {*map(type, value)} == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]"
            return
        lead = "[" + inner
        for item in value:
            if isinstance(item, _CONTAINERS):
                yield lead
                yield from _json_chunks(item, inner)
            else:
                yield lead + _json_scalar(item)
            lead = "," + inner
        yield newline + "]"
    else:
        yield _json_scalar(value)


def _json_scalar(value) -> str:
    if type(value) is str:
        return _encode_str(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _json_key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit_text(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_lines(lines) -> None:
    write = sys.stdout.write
    for line in lines:
        write(line + "\n")


def _bound(n: int, default: int, what: str) -> None:
    env = os.environ.get(MAX_N_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{MAX_N_ENV} must be an integer") from None
    else:
        cap = default
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the {what} bound {cap}; set {MAX_N_ENV} to raise it")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _load_tree(path: str) -> tuple[ColoredTree, trees.ValidationReport]:
    t = ColoredTree.from_json_dict(_load_json(path))
    return t, t.validation


def _load_reduced_tree(path: str) -> ColoredTree:
    t, report = _load_tree(path)
    if not report.ok:
        raise ValueError(f"{path}: invalid tree: " + "; ".join(report.issues))
    return trees.reduce_tree(t)


def _load_local_divisor(path: str) -> dict[tuple[int, ...], int]:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: local divisor must be an object")
    out = {}
    for key, coeff in data.items():
        try:
            edges = tuple(sorted(int(x) for x in key.split(",")))
        except ValueError:
            raise ValueError(f"{path}: bad edge subset key {key!r}") from None
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError(f"{path}: coefficient for {key!r} must be an integer")
        out[edges] = coeff
    return out


def _load_multisets(path: str) -> tuple[dict[int, int], dict[int, int]]:
    data = _load_json(path)
    if not isinstance(data, dict) or "a" not in data or "b" not in data:
        raise ValueError(f"{path}: expected an object with multisets 'a' and 'b'")

    def side(name: str) -> dict[int, int]:
        raw = data[name]
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: multiset {name!r} must be an object")
        out = {}
        for key, mult in raw.items():
            try:
                edge = int(key)
            except ValueError:
                raise ValueError(f"{path}: bad edge id {key!r}") from None
            out[edge] = mult
        return out

    return side("a"), side("b")


def _load_divisor(path: str, n: Optional[int]) -> DivisorVector:
    divisor = DivisorVector.from_json_dict(_load_json(path))
    if n is not None and divisor.n != n:
        raise ValueError(f"{path}: divisor has n={divisor.n}, command asked for n={n}")
    return divisor


def _weights_doc(t: ColoredTree) -> dict:
    labelled = weights.label_weights(t)
    return {e: list(v) for e, v in sorted(labelled.items())}


def _cmd_strata(args) -> int:
    _bound(args.n, DEFAULT_GLOBAL_MAX_N, "strata")
    if args.s is None:
        listing = global_divisors.enumerate_strata(args.n)
        type_two = [p.key() for p in listing.typeII]
    else:
        listing = global_divisors.enumerate_strata_multi(args.n, args.s)
        type_two = [{"partition": p.key(), "scales": list(j)} for p, j in listing.typeII]
    doc = {
        "schema": _schema("strata"),
        "n": args.n,
        "typeI": [s.key() for s in listing.typeI],
        "typeII": type_two,
        "counts": {"typeI": len(listing.typeI), "typeII": len(listing.typeII)},
    }
    if args.s is not None:
        doc["s"] = args.s
    if args.format == "csv":
        _emit_text("kind,label")
        _emit_lines(f"typeI,{s.key()}" for s in listing.typeI)
        if args.s is None:
            _emit_lines(f"typeII,{p.key()}" for p in listing.typeII)
        else:
            _emit_lines(
                f"typeII,{p.key()};{'+'.join(str(x) for x in j)}" for p, j in listing.typeII)
    else:
        _emit_json(doc)
    return 0


def _cmd_tree(args) -> int:
    if args.verb == "validate":
        t, report = _load_tree(args.tree)
        doc = {"schema": _schema("tree-validation"), "report": report.to_json_dict()}
        if report.ok:
            canonical = trees.reduce_tree(t)
            doc["tree"] = canonical.to_json_dict()
            if args.format == "dot":
                _emit_text(canonical.to_dot())
                return 0
        _emit_json(doc)
        return 0 if report.ok else 2

    t = _load_reduced_tree(args.tree)
    if args.verb == "weights":
        if args.format == "dot":
            labels = {e: ",".join(str(x) for x in v)
                      for e, v in weights.label_weights(t).items()}
            _emit_text(t.to_dot(edge_labels=labels))
            return 0
        doc = {
            "schema": _schema("tree-weights"),
            "tree": t.to_json_dict(),
            "weights": _weights_doc(t),
            "total": list(weights.total_weight(t)),
        }
        if args.multisets:
            a, b = _load_multisets(args.multisets)
            cert = weights.pairing_certificate(t, a, b)
            doc["comparison"] = {
                "equal": weights.weight_sum_equal(t, a, b),
                "certificate": None if cert is None else [
                    {
                        "a_edges": list(p.a_edges),
                        "b_edges": list(p.b_edges),
                        "meet": p.meet,
                        "a_mark": p.a_mark,
                        "b_mark": p.b_mark,
                    }
                    for p in cert.pairs
                ],
            }
        _emit_json(doc)
        return 0

    if args.verb == "cone":
        gens = cones.generators(t)
        _emit_json({
            "schema": _schema("tree-cone"),
            "generators": [list(v) for v in gens],
            "ray_count": cones.ray_count(t),
            "checks": cones.verify_duality(t),
        })
        return 0

    if args.verb == "mcs":
        subsets = local_divisors.minimally_complete_subsets(t)
        _emit_json({
            "schema": _schema("tree-mcs"),
            "subsets": [list(y) for y in subsets],
            "count": len(subsets),
        })
        return 0

    if args.verb == "rays":
        subsets = local_divisors.minimally_complete_subsets(t)
        table = [
            {
                "subset": list(y),
                "ray": list(local_divisors.ray_of_subset(t, y)),
                "partition": local_divisors.partition_of_subset(t, y).key(),
            }
            for y in subsets
        ]
        _emit_json({"schema": _schema("tree-rays"), "rays": table})
        return 0

    if args.verb == "cartier-local":
        if not args.divisor:
            raise ValueError("cartier-local needs --divisor")
        coeffs = _load_local_divisor(args.divisor)
        decision = local_divisors.is_cartier_local(t, coeffs)
        _emit_json({
            "schema": _schema("tree-cartier"),
            "cartier": decision.cartier,
            "witness": None if decision.witness is None else list(decision.witness),
            "violated_relation": (
                None if decision.violated_relation is None else {
                    ",".join(str(e) for e in y): m
                    for y, m in zip(decision.subsets, decision.violated_relation)
                    if m
                }),
        })
        return 0

    raise ValueError(f"unknown tree verb {args.verb!r}")


def _cmd_global(args) -> int:
    n = args.n
    if args.verb == "crosscheck":
        _bound(n, DEFAULT_CROSSCHECK_MAX_N, "crosscheck")
        report = global_divisors.local_global_crosscheck(n)
        _emit_json({"schema": _schema("crosscheck"), **report.to_json_dict()})
        return 0 if report.ok else 3

    _bound(n, DEFAULT_GLOBAL_MAX_N, "global")

    if args.verb == "rank":
        _emit_text(json.dumps(global_divisors.pushpull_rank(n)))
        return 0

    if args.verb == "relations":
        basis = global_divisors.relations_basis(n)
        partitions = [p.key() for p in global_divisors.pushpull_matrix(n).partitions]
        if args.format == "csv":
            _emit_text(",".join(partitions))
            _emit_lines(",".join(map(str, row)) for row in basis)
            return 0
        _emit_json({
            "schema": _schema("relations"),
            "n": n,
            "partitions": partitions,
            "basis": tuple(basis),
        })
        return 0

    if args.verb == "pushpull":
        pp = global_divisors.pushpull_matrix(n)
        if args.format == "csv":
            _emit_text("subset," + ",".join(p.key() for p in pp.partitions))
            _emit_lines(
                s.key().replace(",", "+") + "," + ",".join(map(str, row))
                for s, row in zip(pp.subsets, pp.matrix))
            return 0
        _emit_json({
            "schema": _schema("pushpull"),
            "n": n,
            "subsets": [s.key() for s in pp.subsets],
            "partitions": [p.key() for p in pp.partitions],
            "matrix": tuple(pp.matrix),
        })
        return 0

    if args.verb == "decide":
        if not args.divisor:
            raise ValueError("decide needs --divisor")
        divisor = _load_divisor(args.divisor, n)
        _emit_json({
            "schema": _schema("decide"),
            "n": n,
            "cartier": global_divisors.is_cartier_global(n, divisor),
        })
        return 0

    if args.verb == "witness":
        if not args.divisor:
            raise ValueError("witness needs --divisor")
        divisor = _load_divisor(args.divisor, n)
        witness = global_divisors.cartier_witness(n, divisor)
        _emit_json({
            "schema": _schema("witness"),
            "n": n,
            "witness": {s.key(): c for s, c in witness.items()},
        })
        return 0

    if args.verb == "pullback":
        if bool(args.subset) == bool(args.fij):
            raise ValueError("pullback needs exactly one of --subset or --fij")
        if args.subset:
            subset = Subset.from_key(args.subset)
            divisor = global_divisors.pullback_forgetful(n, subset)
            doc = divisor.to_json_dict()
            doc["schema"] = _schema("pullback-forgetful")
        else:
            try:
                i, j = (int(x) for x in args.fij.split(","))
            except ValueError:
                raise ValueError("--fij wants two comma-separated markings") from None
            two = global_divisors.pullback_fij(n, i, j)
            one = global_divisors.pullback_fij_typeI(n, i, j)
            doc = DivisorVector.of(
                n, dict(one.typeI), dict(two.typeII)).to_json_dict()
            doc["schema"] = _schema("pullback-crossratio")
        _emit_json(doc)
        return 0

    raise ValueError(f"unknown global verb {args.verb!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaledlines",
        description="Exact boundary-divisor computations for moduli of scaled marked lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_strata = sub.add_parser("strata", help="enumerate boundary strata")
    p_strata.add_argument("--n", type=int, required=True, help="number of markings")
    p_strata.add_argument("--s", type=int, default=None, help="number of scales")
    p_strata.add_argument("--format", choices=["json", "csv"], default="json")
    p_strata.set_defaults(func=_cmd_strata)

    p_tree = sub.add_parser("tree", help="local computations on a colored tree")
    p_tree.add_argument("verb", choices=[
        "validate", "weights", "cone", "rays", "mcs", "cartier-local"])
    p_tree.add_argument("--tree", required=True, help="tree JSON file")
    p_tree.add_argument("--divisor", help="local divisor JSON file")
    p_tree.add_argument("--multisets", help="edge multisets JSON file for weights")
    p_tree.add_argument("--format", choices=["json", "dot"], default="json")
    p_tree.set_defaults(func=_cmd_tree)

    p_global = sub.add_parser("global", help="global divisor computations")
    p_global.add_argument("verb", choices=[
        "rank", "relations", "decide", "witness", "pullback", "crosscheck", "pushpull"])
    p_global.add_argument("--n", type=int, required=True, help="number of markings")
    p_global.add_argument("--divisor", help="divisor JSON file")
    p_global.add_argument("--subset", help="type I subset key, e.g. 1,2")
    p_global.add_argument("--fij", help="two markings for the cross-ratio map, e.g. 1,4")
    p_global.add_argument("--format", choices=["json", "csv"], default="json")
    p_global.set_defaults(func=_cmd_global)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except OracleDisagreement as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except NotCartierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
