"""Independent checks of each op's output.

No check calls ``scaledlines``: every expected value is computed here from
the generator's own subsets, partitions and trees (``gen.py``), by a route
other than the one under test.  ``check_op`` returns None when the output
is right and a short reason when it is not.
"""

from __future__ import annotations

import json

import gen


def _expected_rank(n: int) -> int:
    return 2 ** n - n - 1


def _read_divisor(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_rank(n: int, code: int, out: str):
    if code != 0 or out.strip() != str(_expected_rank(n)):
        return f"rank at n={n} is {out.strip()!r}, expected {_expected_rank(n)}"
    return None


def _check_pushpull(n: int, doc: dict):
    subsets = [gen.subset_key(s) for s in gen.proper_subsets(n)]
    parts = gen.partitions(n)
    if sorted(doc["subsets"]) != sorted(subsets) or len(doc["partitions"]) != len(parts):
        return "pushpull labels differ from the subsets and partitions of 1..n"
    if sorted(doc["partitions"]) != sorted(gen.partition_key(p) for p in parts):
        return "pushpull partitions differ"
    row = {key: i for i, key in enumerate(doc["subsets"])}
    matrix = doc["matrix"]
    if len(matrix) != len(subsets) or any(len(r) != len(parts) for r in matrix):
        return "pushpull matrix has the wrong shape"
    ones = 0
    for j, key in enumerate(doc["partitions"]):
        for block in key.split("|"):
            ones += 1
            if matrix[row[block]][j] != 1:
                return f"pushpull entry ({block}, {key}) is not 1"
    if not set().union(*map(set, matrix)) <= {0, 1} or sum(map(sum, matrix)) != ones:
        return "pushpull matrix has entries outside the incidence pattern"
    return None


def _check_relations(n: int, doc: dict):
    keys = doc["partitions"]
    if sorted(keys) != sorted(gen.partition_key(p) for p in gen.partitions(n)):
        return "relations are not over the partitions of 1..n"
    want = gen.bell(n) - 1 - _expected_rank(n)
    if len(doc["basis"]) != want:
        return f"{len(doc['basis'])} relation rows at n={n}, expected {want}"
    blocks = [key.split("|") for key in keys]
    for r in doc["basis"]:
        acc: dict[str, int] = {}
        for j, v in enumerate(r):
            if v:
                for b in blocks[j]:
                    acc[b] = acc.get(b, 0) + v
        if not any(r) or any(acc.values()):
            return "a relation row is zero or not in the push-pull kernel"
    return None


def _check_witness(n: int, x: dict, witness: dict):
    subsets = {gen.subset_key(s) for s in gen.proper_subsets(n)}
    if set(witness) != subsets:
        return "witness is not a function on the proper subsets"
    for p in gen.partitions(n):
        key = gen.partition_key(p)
        if sum(witness[gen.subset_key(b)] for b in p) != x.get(key, 0):
            return f"witness pull-push differs from the divisor at {key}"
    return None


def _check_pullback(op: dict, doc: dict):
    n = op["expect"]["n"]
    if "subset" in op["expect"]:
        s = tuple(op["expect"]["subset"])
        one = {gen.subset_key(s): 1}
        two = {gen.partition_key(p): 1 for p in gen.partitions(n) if s in p}
    else:
        i, j = op["expect"]["fij"]
        full = tuple(range(1, n + 1))
        one = {gen.subset_key(t): 1 for t in gen.proper_subsets(n) + (full,)
               if i in t and j in t}
        two = {gen.partition_key(p): 1 for p in gen.partitions(n)
               if not any(i in b and j in b for b in p)}
    if doc.get("n") != n or doc.get("typeI") != one or doc.get("typeII") != two:
        return f"pullback {' '.join(op['argv'][3:])} differs from its definition"
    return None


def _check_crosscheck(n: int, doc: dict):
    r = _expected_rank(n)
    ok = (doc["ok"] is True and doc["lattices_equal"] is True
          and doc["trees_checked"] == gen.tree_count(n)
          and doc["rank_expected"] == doc["rank_image"] == doc["rank_local"] == r
          and doc["separating_vector"] is None
          and isinstance(doc["relation_rows"], int) and doc["relation_rows"] >= 0)
    return None if ok else f"crosscheck at n={n} is wrong: {doc}"


# What ``cli`` writes to stderr when a witness is asked of a non-Cartier
# divisor.  Exit 2 alone is not enough: argument, value and IO errors exit 2 too.
NOT_CARTIER_MESSAGE = "error: no witness:"


def _check_cli(op: dict, code: int, out: str, err: str):
    verb, n = op["verb"], op["expect"]["n"]
    if verb == "rank":
        return _check_rank(n, code, out)
    if verb == "witness":
        x = _read_divisor(op["expect"]["divisor"])["typeII"]
        if not op["expect"]["cartier"]:
            if code == 2 and not out and err.startswith(NOT_CARTIER_MESSAGE):
                return None
            return f"witness on a non-Cartier divisor exited {code}: {err.strip()[:200]!r}"
        if code != 0:
            return f"witness exited {code} on a Cartier divisor"
        return _check_witness(n, x, json.loads(out)["witness"])
    if code != 0:
        return f"{' '.join(op['argv'])} exited {code}"
    doc = json.loads(out)
    if verb == "pushpull":
        return _check_pushpull(n, doc)
    if verb == "relations":
        return _check_relations(n, doc)
    if verb == "decide":
        if doc.get("cartier") is not op["expect"]["cartier"]:
            return f"decide says {doc.get('cartier')} for {op['expect']['divisor']}"
        return None
    if verb.startswith("pullback"):
        return _check_pullback(op, doc)
    if verb == "crosscheck":
        return _check_crosscheck(n, doc)
    return f"unknown verb {verb}"


def _pair(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _check_tree(op: dict, doc: dict):
    tree = gen.Tree(_shape(json.loads(op["shape"])))
    if not doc["valid"]:
        return "a valid tree was reported invalid"
    canon = doc["canonical"]
    mine = tree.doc()
    if (canon["root"] != mine["root"] or canon["vertices"] != mine["vertices"]
            or sorted(canon["edges"]) != mine["edges"]):
        return "reduce_tree did not give the canonical form"
    weights = tree.weights()
    if doc["weights"] != {str(e): list(w) for e, w in sorted(weights.items())}:
        return "edge weights differ"
    mcs = sorted(tuple(sorted(y)) for y in tree.mcs())
    count = tree.ray_count()
    if not (len(doc["generators"]) == doc["ray_count"] == len(doc["mcs"]) == count
            == len(set(map(tuple, doc["generators"])))):
        return "generator count, ray count and minimally complete subsets disagree"
    if not doc["duality_ok"]:
        return "verify_duality failed"
    if sorted(map(tuple, doc["mcs"])) != mcs:
        return "minimally complete subsets differ"
    for y, ray, part, back in zip(doc["mcs"], doc["rays"], doc["partitions"],
                                  doc["roundtrip"]):
        if tuple(ray) != tree.ray(set(y)):
            return f"ray of {y} differs"
        if part != gen.partition_key(tree.partition_of(y)):
            return f"partition of {y} differs"
        if back != y:
            return f"subset/partition round trip fails at {y}"
    for k, (given, decision) in enumerate(zip(op["divisors"], doc["cartier"])):
        a = {tuple(y): c for y, c in given}
        subsets = [tuple(y) for y in decision["subsets"]]
        if decision["cartier"]:
            u = decision["witness"]
            if any(_pair(u, tree.ray(set(y))) != a.get(y, 0) for y in subsets):
                return "local witness does not pair to the divisor on every ray"
        else:
            if k == 0:
                return "a sum of vertex generators was called non-Cartier"
            r = dict(zip(subsets, decision["violated"]))
            if not sum(m * a.get(y, 0) for y, m in r.items()):
                return "violated relation does not detect the divisor"
            for e in tree.edges:
                if sum(m for y, m in r.items() if e in y):
                    return "violated relation is not in the incidence kernel"
    for (a, b), (equal, found, verified) in zip(op["multisets"], doc["compare"]):
        truth = (tree.weight_sum({int(e): m for e, m in a.items()})
                 == tree.weight_sum({int(e): m for e, m in b.items()}))
        if equal is not truth or found is not truth or (found and verified is not True):
            return "weight-sum comparison or its certificate is wrong"
    return None


def _shape(s):
    return s if isinstance(s, int) else tuple(_shape(c) for c in s)


def check_op(op: dict, code: int | None, body: bytes, err: bytes = b""):
    """None if ``body`` (the op's output), ``err`` (its stderr) and ``code``
    are right, else a reason."""
    if code is None:
        return "the op raised"
    out = body.decode("utf-8")
    if op["kind"] == "cli":
        return _check_cli(op, code, out, err.decode("utf-8"))
    doc = json.loads(out)
    if op["kind"] == "recon":
        if not doc["match"]:
            return "reconstruction does not match by typeII_coeff"
        x = {k: v for k, v in op["divisor"]["typeII"].items()}
        return _check_witness(op["n"], x, doc["witness"])
    return _check_tree(op, doc)


def check_agreement(ops: list[dict], codes: list, bodies: list[bytes]) -> list[int]:
    """Indices of decide and witness ops that disagree on the same divisor.

    ``decide`` answering true must go with ``witness`` exiting 0, and false
    with exit 2.
    """
    decided, witnessed = {}, {}
    for i, op in enumerate(ops):
        if op.get("verb") == "decide" and codes[i] == 0:
            decided[op["expect"]["divisor"]] = (i, json.loads(bodies[i])["cartier"])
        elif op.get("verb") == "witness":
            witnessed[op["expect"]["divisor"]] = (i, codes[i])
    bad = []
    for path, (i, cartier) in decided.items():
        if path in witnessed and witnessed[path][1] != (0 if cartier else 2):
            bad += [i, witnessed[path][0]]
    return bad
