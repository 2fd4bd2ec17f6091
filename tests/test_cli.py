"""Command line interface: output bytes, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import helpers
from scaledlines import cli, global_divisors
from scaledlines.cli import run
from scaledlines.intlinalg import IntMatrix
from scaledlines.trees import proper_subsets

FIG_DOC = helpers.fig_tree().to_json_dict()


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(FIG_DOC))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGlobalCommands:
    def test_rank_prints_bare_number(self, capsys):
        code, out, err = invoke(capsys, "global", "rank", "--n", "4")
        assert (code, out, err) == (0, "11\n", "")

    def test_relations_json(self, capsys):
        code, out, _ = invoke(capsys, "global", "relations", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert len(doc["partitions"]) == 14
        assert len(doc["basis"]) == 3

    def test_relations_csv(self, capsys):
        code, out, _ = invoke(capsys, "global", "relations", "--n", "4",
                              "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].count(",") > 10

    def test_pushpull_formats(self, capsys):
        code, out, _ = invoke(capsys, "global", "pushpull", "--n", "3")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["subsets"]) == 6 and len(doc["partitions"]) == 4
        code, out, _ = invoke(capsys, "global", "pushpull", "--n", "3",
                              "--format", "csv")
        assert code == 0
        assert out.startswith("subset,")
        assert len(out.strip().split("\n")) == 7

    def test_decide_and_witness(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"n": 4, "typeII": {"1,2|3|4": 1, "1,2|3,4": 1}}))
        code, out, _ = invoke(capsys, "global", "decide", "--n", "4",
                              "--divisor", str(good))
        assert code == 0 and json.loads(out)["cartier"] is True

        code, out, _ = invoke(capsys, "global", "witness", "--n", "4",
                              "--divisor", str(good))
        assert code == 0
        witness = json.loads(out)["witness"]
        assert witness["1,2"] == 1
        assert set(witness) == {s.key() for s in proper_subsets(range(1, 5))}

    def test_witness_refused_for_non_cartier(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 4, "typeII": {"1,2|3,4": 1}}))
        code, out, err = invoke(capsys, "global", "decide", "--n", "4",
                                "--divisor", str(bad))
        assert code == 0 and json.loads(out)["cartier"] is False
        code, out, err = invoke(capsys, "global", "witness", "--n", "4",
                                "--divisor", str(bad))
        assert code == 2 and out == "" and "witness" in err

    def test_divisor_n_mismatch(self, capsys, tmp_path):
        doc = tmp_path / "d.json"
        doc.write_text(json.dumps({"n": 3, "typeII": {"1|2|3": 1}}))
        code, _, err = invoke(capsys, "global", "decide", "--n", "4",
                              "--divisor", str(doc))
        assert code == 2 and "n=3" in err

    def test_pullback_forgetful(self, capsys):
        code, out, _ = invoke(capsys, "global", "pullback", "--n", "4",
                              "--subset", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["typeI"] == {"1,2": 1}
        assert set(doc["typeII"]) == {"1,2|3|4", "1,2|3,4"}

    def test_pullback_crossratio(self, capsys):
        code, out, _ = invoke(capsys, "global", "pullback", "--n", "4",
                              "--fij", "1,4")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["typeII"]) == 10
        assert doc["typeI"]["1,4"] == 1

    def test_pullback_needs_exactly_one_selector(self, capsys):
        code, _, err = invoke(capsys, "global", "pullback", "--n", "4")
        assert code == 2 and "exactly one" in err
        code, _, err = invoke(capsys, "global", "pullback", "--n", "4",
                              "--subset", "1,2", "--fij", "1,4")
        assert code == 2

    def test_malformed_fij(self, capsys):
        code, _, err = invoke(capsys, "global", "pullback", "--n", "4",
                              "--fij", "1-4")
        assert code == 2 and "comma" in err

    def test_crosscheck(self, capsys):
        code, out, _ = invoke(capsys, "global", "crosscheck", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["trees_checked"] == 4

    @pytest.mark.parametrize("wrong", ["sublattice", "superlattice"])
    def test_crosscheck_mismatch(self, capsys, monkeypatch, wrong):
        # A wrong image lattice is caught: exit 3, ok false, and a separating
        # vector in the local lattice (the true image) and not the wrong one,
        # or the other way round.
        real = global_divisors.image_lattice_basis(4)
        if wrong == "sublattice":
            rows = [[2 * x for x in real[0]], *real[1:]]
        else:
            rows = [[int(i == j) for j in range(real.cols)] for i in range(real.cols)]
        monkeypatch.setattr(global_divisors, "image_lattice_basis",
                            lambda n: IntMatrix(rows, cols=real.cols))
        code, out, err = invoke(capsys, "global", "crosscheck", "--n", "4")
        doc = json.loads(out)
        assert (code, err) == (3, "")
        assert not doc["ok"] and not doc["lattices_equal"]
        v = doc["separating_vector"]
        in_local, in_wrong = helpers.in_row_lattice(real, v), helpers.in_row_lattice(rows, v)
        assert (in_local, in_wrong) == ((True, False) if wrong == "sublattice" else (False, True))

    def test_crosscheck_bound(self, capsys):
        code, _, err = invoke(capsys, "global", "crosscheck", "--n", "6")
        assert code == 2 and "SCALEDLINES_MAX_N" in err

    def test_global_bound_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SCALEDLINES_MAX_N", "3")
        code, _, err = invoke(capsys, "global", "rank", "--n", "4")
        assert code == 2 and "bound 3" in err
        monkeypatch.setenv("SCALEDLINES_MAX_N", "4")
        code, out, _ = invoke(capsys, "global", "rank", "--n", "4")
        assert code == 0 and out == "11\n"

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("SCALEDLINES_MAX_N", "many")
        code, _, err = invoke(capsys, "global", "rank", "--n", "4")
        assert code == 2 and "integer" in err


class TestStrataCommand:
    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "strata", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == {"typeI": 4, "typeII": 4}
        assert doc["typeII"] == ["1|2|3", "1|2,3", "1,2|3", "1,3|2"]

    def test_multi_scale(self, capsys):
        code, out, _ = invoke(capsys, "strata", "--n", "2", "--s", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["s"] == 2
        assert doc["counts"]["typeII"] == 3
        assert doc["typeII"][0] == {"partition": "1|2", "scales": [1]}

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "strata", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,label"
        assert "typeI,1,2,3" in lines and "typeII,1|2|3" in lines


class TestTreeCommands:
    def test_validate_ok(self, capsys, fig_file):
        code, out, _ = invoke(capsys, "tree", "validate", "--tree", fig_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["ok"] and doc["tree"]["root"] == 3

    def test_validate_bad_tree(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        bad = {"root": 1,
               "vertices": [{"id": 1, "colored": False},
                            {"id": 2, "colored": True, "label": 1},
                            {"id": 3, "colored": True, "label": 1}],
               "edges": [[1, 2], [1, 3]]}
        path.write_text(json.dumps(bad))
        code, out, _ = invoke(capsys, "tree", "validate", "--tree", str(path))
        assert code == 2
        doc = json.loads(out)
        assert not doc["report"]["ok"] and "tree" not in doc

    def test_validate_dot(self, capsys, fig_file):
        code, out, _ = invoke(capsys, "tree", "validate", "--tree", fig_file,
                              "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_weights(self, capsys, fig_file):
        code, out, _ = invoke(capsys, "tree", "weights", "--tree", fig_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == [1, 1, 1]
        assert doc["weights"]["1"] == [0, 1, 1]

    def test_weights_with_multisets(self, capsys, fig_file, tmp_path):
        ms = tmp_path / "ms.json"
        ms.write_text(json.dumps(
            {"a": {"1": 3, "4": 2, "5": 1, "6": 1}, "b": {"2": 3, "7": 4}}))
        code, out, _ = invoke(capsys, "tree", "weights", "--tree", fig_file,
                              "--multisets", str(ms))
        assert code == 0
        doc = json.loads(out)
        assert doc["comparison"]["equal"] is True
        assert len(doc["comparison"]["certificate"]) == 4

    def test_weights_dot(self, capsys, fig_file):
        code, out, _ = invoke(capsys, "tree", "weights", "--tree", fig_file,
                              "--format", "dot")
        assert code == 0 and 'label="0,1,1"' in out

    def test_cone_and_mcs_and_rays(self, capsys, fig_file):
        code, out, _ = invoke(capsys, "tree", "cone", "--tree", fig_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["generators"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, -1]]
        assert doc["checks"]["ok"]

        code, out, _ = invoke(capsys, "tree", "mcs", "--tree", fig_file)
        doc = json.loads(out)
        assert doc["count"] == 4
        assert doc["subsets"][0] == [1, 2]

        code, out, _ = invoke(capsys, "tree", "rays", "--tree", fig_file)
        doc = json.loads(out)
        assert doc["rays"][0] == {"subset": [1, 2], "ray": [0, 0, 1],
                                  "partition": "1,2|3,4"}

    def test_cartier_local(self, capsys, fig_file, tmp_path):
        div = tmp_path / "div.json"
        div.write_text(json.dumps({"1,2": 1, "1,6,7": 1, "2,4,5": 1,
                                   "4,5,6,7": 1}))
        code, out, _ = invoke(capsys, "tree", "cartier-local", "--tree", fig_file,
                              "--divisor", str(div))
        assert code == 0
        doc = json.loads(out)
        assert doc["cartier"] and doc["witness"] == [1, 1, 1]

        div.write_text(json.dumps({"1,2": 1}))
        code, out, _ = invoke(capsys, "tree", "cartier-local", "--tree", fig_file,
                              "--divisor", str(div))
        doc = json.loads(out)
        assert code == 0 and not doc["cartier"]
        assert doc["violated_relation"] == {"1,2": 1, "1,6,7": -1,
                                            "2,4,5": -1, "4,5,6,7": 1}

    def test_cartier_local_needs_divisor(self, capsys, fig_file):
        code, _, err = invoke(capsys, "tree", "cartier-local", "--tree", fig_file)
        assert code == 2 and "--divisor" in err

    def test_non_canonical_input_is_reduced_first(self, capsys, tmp_path):
        scrambled = helpers.relabeled(helpers.fig_tree(), random.Random(2))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scrambled.to_json_dict()))
        code, out, _ = invoke(capsys, "tree", "mcs", "--tree", str(path))
        assert code == 0
        assert json.loads(out)["subsets"] == [[1, 2], [1, 6, 7], [2, 4, 5],
                                              [4, 5, 6, 7]]


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "tree", "mcs", "--tree", "/no/such.json")
        assert code == 2 and out == "" and err

    def test_invalid_json_file(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{broken")
        code, _, err = invoke(capsys, "tree", "mcs", "--tree", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["global", "rank", "--n", "4", "--wat"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_bad_multiset_file(self, capsys, fig_file, tmp_path):
        ms = tmp_path / "ms.json"
        ms.write_text(json.dumps({"a": {"1": 1}}))
        code, _, err = invoke(capsys, "tree", "weights", "--tree", fig_file,
                              "--multisets", str(ms))
        assert code == 2 and "'a' and 'b'" in err

    def test_bad_local_divisor_key(self, capsys, fig_file, tmp_path):
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"1,x": 1}))
        code, _, err = invoke(capsys, "tree", "cartier-local", "--tree", fig_file,
                              "--divisor", str(div))
        assert code == 2 and "edge subset key" in err


class TestMalformedDocuments:
    """Malformed documents are input errors: exit 2 and a message, no traceback."""

    def test_tree_vertices_not_a_list(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"root": 1, "vertices": 5, "edges": []}))
        code, out, err = invoke(capsys, "tree", "validate", "--tree", str(path))
        assert (code, out) == (2, "") and "must be lists" in err

    def test_divisor_part_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"n": 4, "typeI": [1]}))
        code, out, err = invoke(capsys, "global", "decide", "--n", "4",
                                "--divisor", str(path))
        assert (code, out) == (2, "") and "typeI must be an object" in err

    def test_boolean_label(self, capsys, tmp_path):
        doc = json.loads(json.dumps(FIG_DOC))
        doc["vertices"][-1]["label"] = True
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "weights"):
            code, out, err = invoke(capsys, "tree", verb, "--tree", str(path))
            assert (code, out) == (2, "") and "integer label" in err


class TestDeepTrees:
    def test_long_uncolored_chain(self, capsys, tmp_path):
        depth = 3000
        doc = {"root": 0,
               "vertices": [{"id": i, "colored": False} for i in range(depth)]
               + [{"id": depth, "colored": True, "label": 1}],
               "edges": [[i, i + 1] for i in range(depth)]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "tree", "validate", "--tree", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["ok"]
        code, out, err = invoke(capsys, "tree", "mcs", "--tree", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == depth

    def test_rays_and_cartier_on_long_chain(self, capsys, tmp_path):
        # Deeper than the default recursion limit.  The root also carries
        # marking 2, so every cut yields a partition with two blocks.
        depth = 1200
        doc = {"root": 0,
               "vertices": [{"id": i, "colored": False} for i in range(depth)]
               + [{"id": depth, "colored": True, "label": 1},
                  {"id": depth + 1, "colored": True, "label": 2}],
               "edges": [[i, i + 1] for i in range(depth)] + [[0, depth + 1]]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        divisor = tmp_path / "divisor.json"
        code, out, err = invoke(capsys, "tree", "rays", "--tree", str(path))
        assert (code, err) == (0, "")
        rays = json.loads(out)["rays"]
        assert len(rays) == depth
        # Canonical ids: uncolored 1..depth from the bottom up (the root is
        # depth), markings 1 and 2 are depth + 1 and depth + 2.  Cutting the
        # edge above vertex k leaves k + 1 the lowest uncut vertex, and the
        # ray is its unit vector; cutting at marking 1 leaves vertex 1.
        units = {tuple(r["subset"]): r["ray"].index(1) + 1 for r in rays}
        assert all(r["ray"].count(0) == depth - 1 and sum(r["ray"]) == 1
                   and r["partition"] == "1|2" for r in rays)
        assert units == {**{(k, depth + 2): k + 1 for k in range(1, depth)},
                         (depth + 1, depth + 2): 1}
        divisor.write_text(json.dumps({f"{depth + 1},{depth + 2}": 1,
                                       f"{depth - 1},{depth + 2}": -2}))
        code, out, err = invoke(capsys, "tree", "cartier-local", "--tree", str(path),
                                "--divisor", str(divisor))
        assert (code, err) == (0, "")
        assert json.loads(out)["cartier"]

    def test_weight_certificate_on_long_chain(self, capsys, tmp_path):
        # The chain of the test above.  Canonical edge ids: k for the edge
        # above uncolored vertex k (1..depth - 1), depth + 1 and depth + 2
        # for the edges to markings 1 and 2.
        depth = 1200
        doc = {"root": 0,
               "vertices": [{"id": i, "colored": False} for i in range(depth)]
               + [{"id": depth, "colored": True, "label": 1},
                  {"id": depth + 1, "colored": True, "label": 2}],
               "edges": [[i, i + 1] for i in range(depth)] + [[0, depth + 1]]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        ms = tmp_path / "ms.json"
        ms.write_text(json.dumps({"a": {"1": 1}, "b": {str(depth + 1): 1}}))
        code, out, err = invoke(capsys, "tree", "weights", "--tree", str(path),
                                "--multisets", str(ms))
        assert (code, err) == (0, "")
        assert json.loads(out)["comparison"] == {"equal": False, "certificate": None}
        # The two paths from the root: down the whole chain to marking 1,
        # and straight to marking 2.
        down = {str(k): 1 for k in range(1, depth)}
        ms.write_text(json.dumps({"a": {str(depth + 2): 1},
                                  "b": {**down, str(depth + 1): 1}}))
        code, out, err = invoke(capsys, "tree", "weights", "--tree", str(path),
                                "--multisets", str(ms))
        assert (code, err) == (0, "")
        assert json.loads(out)["comparison"] == {"equal": True, "certificate": [{
            "a_edges": [depth + 2], "b_edges": [*range(1, depth), depth + 1],
            "meet": depth, "a_mark": 2, "b_mark": 1}]}


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# Runs the CLI on its arguments and prints the elapsed seconds to stderr.
TIMED_RUN = ("import sys, time\n"
             "from scaledlines.cli import run\n"
             "t0 = time.perf_counter()\n"
             "code = run(sys.argv[1:])\n"
             "print(f'elapsed {time.perf_counter() - t0}', file=sys.stderr)\n"
             "sys.exit(code)\n")


class TestSizeGuards:
    def test_huge_multiplicity_refused(self, tmp_path, fig_file):
        # Run in a child under a 1 GiB address-space limit: building one
        # path per unit of multiplicity would need gigabytes.
        ms = tmp_path / "ms.json"
        ms.write_text(json.dumps({"a": {"4": 10 ** 7}, "b": {"5": 1}}))
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_RUN, "tree", "weights", "--tree", fig_file,
             "--multisets", str(ms)],
            capture_output=True, text=True, timeout=300, preexec_fn=_limit_memory)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        message, timing = proc.stderr.strip().split("\n")
        assert "total multiplicity 10000001" in message
        assert float(timing.split()[1]) < 1.0

    def test_huge_scale_count_refused(self):
        # 2^30 - 1 type II strata would need hundreds of GiB; the child runs
        # under a 1 GiB address-space limit.
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_RUN, "strata", "--n", "2", "--s", "30"],
            capture_output=True, text=True, timeout=300, preexec_fn=_limit_memory)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        message, timing = proc.stderr.strip().split("\n")
        assert "more than 250000 type II strata" in message
        assert float(timing.split()[1]) < 1.0


# Arbitrary JSON documents, and documents with each loader's top-level keys
# holding arbitrary JSON, so that the fuzzing reaches past the first check.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8) | st.sampled_from(["1", "1,2", "1|2", "2,3|1"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["1", "1,2", "1|2,3"]),
                      inner, max_size=4),
    max_leaves=12)
SMALL_INTS = st.integers(-2, 12)


def _shaped(keys):
    return st.fixed_dictionaries({k: JSON_VALUES | SMALL_INTS for k in keys})


TREE_DOCS = (JSON_VALUES | _shaped(["root", "vertices", "edges"])
             | st.fixed_dictionaries({
                 "root": SMALL_INTS,
                 "vertices": st.lists(st.fixed_dictionaries(
                     {"id": SMALL_INTS, "colored": st.booleans()},
                     optional={"label": SMALL_INTS | JSON_VALUES}), max_size=6),
                 "edges": st.lists(st.lists(SMALL_INTS, min_size=2, max_size=2)
                                   | JSON_VALUES, max_size=6)}))
LOCAL_DIVISOR_DOCS = JSON_VALUES | st.dictionaries(
    st.sampled_from(["4,6", "5,6", "6,5", "4", "x", "4,5,6,7", ""]), SMALL_INTS | JSON_VALUES)
MULTISET_DOCS = JSON_VALUES | _shaped(["a", "b"]) | st.fixed_dictionaries({
    side: st.dictionaries(st.sampled_from(["1", "2", "4", "5", "9", "-1", "x"]),
                          SMALL_INTS | JSON_VALUES, max_size=4) for side in ("a", "b")})
DIVISOR_DOCS = JSON_VALUES | _shaped(["n", "typeI", "typeII"]) | st.fixed_dictionaries({
    "n": SMALL_INTS | JSON_VALUES,
    "typeI": st.dictionaries(st.sampled_from(["1,2", "2,3,4", "1,5", "0,1", "1"]),
                             SMALL_INTS | JSON_VALUES, max_size=3),
    "typeII": st.dictionaries(st.sampled_from(["1|2,3,4", "1,2|3,4", "1|2|3|4", "1|2", "x"]),
                              SMALL_INTS | JSON_VALUES, max_size=3)})


class TestLoaderFuzz:
    """Every loader answers any JSON document with exit 0, 2 or 3, never a traceback."""

    @staticmethod
    def _run(capsys, tmp_path, doc, *argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "{doc}" else a for a in argv]
        code, _, err = invoke(capsys, *argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=TREE_DOCS, verb=st.sampled_from(["validate", "mcs", "rays"]))
    def test_tree_loader(self, capsys, tmp_path, doc, verb):
        self._run(capsys, tmp_path, doc, "tree", verb, "--tree", "{doc}")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=LOCAL_DIVISOR_DOCS)
    def test_local_divisor_loader(self, capsys, tmp_path, fig_file, doc):
        self._run(capsys, tmp_path, doc, "tree", "cartier-local", "--tree", fig_file,
                  "--divisor", "{doc}")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=MULTISET_DOCS)
    def test_multiset_loader(self, capsys, tmp_path, fig_file, doc):
        self._run(capsys, tmp_path, doc, "tree", "weights", "--tree", fig_file,
                  "--multisets", "{doc}")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=DIVISOR_DOCS, verb=st.sampled_from(["decide", "witness"]))
    @example(doc={"n": 2 ** 62, "typeII": {"1|2": 1}}, verb="decide")
    def test_global_divisor_loader(self, capsys, tmp_path, doc, verb):
        self._run(capsys, tmp_path, doc, "global", verb, "--n", "4", "--divisor", "{doc}")


# Documents for the emitter: int rows (with bools and None mixed in), big
# and negative ints, text that needs escapes or is not ASCII, and dicts
# keyed by ints (10 and above sort differently once they are strings) or
# by strings, nested as lists, tuples and dicts, empty ones included.
EMIT_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n\t", "\x00\x1f\x7f", "é", "日本", "\U0001f600", "\ud800"])
EMIT_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
                | st.integers(-2 ** 80, 2 ** 80) | st.floats() | EMIT_TEXT)
EMIT_ROWS = st.lists(st.integers(-2, 12) | st.integers(-2 ** 70, 2 ** 70), max_size=6)
EMIT_MIXED_ROWS = st.lists(st.integers(-2, 12) | st.booleans() | st.none(), max_size=6)
EMIT_DOCS = st.recursive(
    EMIT_SCALARS | EMIT_ROWS | EMIT_ROWS.map(tuple) | EMIT_MIXED_ROWS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.integers(-5, 120), inner, max_size=5)
    | st.dictionaries(EMIT_TEXT, inner, max_size=5),
    max_leaves=20)


def emitted(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(doc)
    return out.getvalue()


class TestEmitter:
    """The streaming emitter prints exactly what the stdlib encoder would."""

    @settings(max_examples=400, deadline=None)
    @given(doc=EMIT_DOCS)
    @example(doc={10: [True, None, 1], 2: {}, -1: ()})
    def test_matches_stdlib_encoder(self, doc):
        assert emitted(doc) == helpers.reference_json(doc)

    def test_rows_are_streamed(self):
        doc = {"rows": tuple((k,) * 2000 for k in range(200))}
        chunks = []

        class Sink:
            write = staticmethod(chunks.append)

        with contextlib.redirect_stdout(Sink()):
            cli._emit_json(doc)
        assert "".join(chunks) == helpers.reference_json(doc)
        assert len(chunks) > 10
        assert max(map(len, chunks)) < len("".join(chunks)) // 10

    # sha256 of each command's stdout as printed through json.dumps.
    PINNED = {
        ("global", "pushpull", "--n", "6"):
            "30591c6d6e5c27a6c3145ce9315c00fd78989c533cb12dd2f0dfc0053c3c8ec9",
        ("global", "relations", "--n", "6"):
            "b18e607fd023e1e597a670342179c47d5eaa7d93145610d543c61654170e2a80",
        ("strata", "--n", "5"):
            "f9533f796803d28787311134e8026d215da8fc841b9d27e3d565764af5a56ac2",
        ("strata", "--n", "4", "--s", "2"):
            "365419df4c065d2a2fe0451e7b81d690861d10239ad0d68779ea38cf50833cdf",
        ("global", "pushpull", "--n", "6", "--format", "csv"):
            "3581e645c9efd2377124431511cc6b7376ce753ebdf37cbd902c76317b2209a2",
        ("global", "relations", "--n", "6", "--format", "csv"):
            "cf21d8a07055e36ef8ff368f042ed633808816ed6dce37782c1ae7b33260a2bc",
        ("strata", "--n", "5", "--format", "csv"):
            "f6dde9bd7c322addb496a65d9652d2405f064fd7bb13a0c7bc1200641dcc2de9",
    }

    @pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
    def test_pinned_digest(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[argv]

    def test_pinned_digest_tree_weights(self, capsys, tmp_path, fig_file):
        code, out, err = invoke(capsys, "tree", "weights", "--tree", fig_file)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "80c97a4b9080174cd9fdca22c44b68739217d7b5bb4d0a72dd923c7bdcfe6654")
        ms = tmp_path / "ms.json"
        ms.write_text(json.dumps({"a": {"4": 2, "6": 1}, "b": {"5": 2, "7": 1}}))
        code, out, err = invoke(capsys, "tree", "weights", "--tree", fig_file,
                                "--multisets", str(ms))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "383f89097ef59cb5df3b225541c7985f9d37bef9f5b4753439474aa1ee784a65")


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, fig_file):
        outputs = set()
        for _ in range(3):
            _, out, _ = invoke(capsys, "tree", "rays", "--tree", fig_file)
            outputs.add(out)
        assert len(outputs) == 1

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scaledlines.cli", "global", "rank", "--n", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "4\n"
