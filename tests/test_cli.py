"""Command line interface: output bytes, formats, exit codes."""

import json
import random
import subprocess
import sys

import pytest

import helpers
from scaledlines.cli import run
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
