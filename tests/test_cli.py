import json

import pytest

import latticekit.freedist as fd
from latticekit import catalog, cli
from latticekit.cli import main

from conftest import FIXTURES


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_pentagon_not_modular(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES / "n5.json", "--property", "modular")
        assert code == 1
        assert "modular: false" in out
        assert "pentagon sublattice" in out

    def test_divisor_distributive(self, capsys):
        code, out, _ = run(
            capsys, "check", FIXTURES / "divisor12.json", "--property", "distributive"
        )
        assert code == 0 and "true" in out

    def test_diamond_not_distributive(self, capsys):
        code, out, _ = run(
            capsys, "check", FIXTURES / "m3.json", "--property", "distributive"
        )
        assert code == 1 and "diamond sublattice" in out

    def test_graded(self, capsys):
        code, out, _ = run(
            capsys, "check", FIXTURES / "divisor12.json", "--property", "graded"
        )
        assert code == 0 and "degree 3" in out
        code, out, _ = run(capsys, "check", FIXTURES / "n5.json", "--property", "graded")
        assert code == 1 and "chain:" in out

    def test_multfree(self, capsys):
        code, out, _ = run(
            capsys, "check", FIXTURES / "divisor12.json", "--property", "multfree"
        )
        assert code == 0

    def test_jordanholder_pathology_needs_override(self, capsys):
        code, _, err = run(
            capsys, "check", FIXTURES / "n5.json", "--property", "jordanholder"
        )
        assert code == 2 and "modular" in err
        code, out, _ = run(
            capsys,
            "check", FIXTURES / "n5.json", "--property", "jordanholder",
            "--allow-nonmodular",
        )
        assert code == 1
        assert "0 < a < 1" in out and "0 < c < b < 1" in out

    def test_semimodular(self, capsys):
        code, out, _ = run(
            capsys, "check", FIXTURES / "m3.json", "--property", "semimodular"
        )
        assert code == 0

    def test_not_a_lattice_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"elements": ["0", "x", "y"], "covers": [["0", "x"], ["0", "y"]]}
            )
        )
        code, _, err = run(capsys, "check", bad, "--property", "modular")
        assert code == 2 and "join" in err



class TestMalformedPosetFiles:
    """Each file shape error exits 2 with a message naming the field."""

    @pytest.mark.parametrize(
        "data, field",
        [
            ([["0", "a"]], "JSON object"),
            ({"covers": []}, "'elements'"),
            ({"elements": "0a", "covers": []}, "'elements' must be a list"),
            ({"elements": ["0", "a"]}, "'covers'"),
            ({"elements": ["0", "a"], "covers": {"0": "a"}}, "'covers' must be a list"),
            ({"elements": ["0", "a"], "covers": [["0"]]}, "[lower, upper] pair, not ['0']"),
            ({"elements": ["0", "a"], "covers": ["0a"]}, "[lower, upper] pair, not '0a'"),
            (
                {"elements": ["0", "a"], "covers": [["0", "a"]], "labels": ["g"]},
                "'labels' must be an object",
            ),
            (
                {"elements": ["0", "a"], "covers": [["0", "a"]], "labels": {"0a": "g"}},
                "'labels' key '0a'",
            ),
        ],
    )
    def test_shape_errors(self, capsys, tmp_path, data, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", bad, "--property", "modular")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and field in err

    def test_spec_file_is_not_a_poset(self, capsys):
        code, _, err = run(
            capsys, "check", FIXTURES / "case_n1.json", "--property", "modular"
        )
        assert code == 2 and "no 'elements' list" in err

class TestBirkhoffVerbs:
    def test_ideals(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "birkhoff", "ideals", FIXTURES / "b3_poset.json", "--out", out_path
        )
        assert code == 0 and "20 order ideals" in out
        data = json.loads(out_path.read_text())
        assert len(data["elements"]) == 20
        assert len(data["labels"]) == len(data["covers"])

    def test_irr(self, capsys):
        code, out, _ = run(capsys, "birkhoff", "irr", FIXTURES / "divisor12.json")
        assert code == 0
        assert "3 join irreducibles: 2, 3, 4" in out
        assert "2 < 4" in out

    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "birkhoff", "roundtrip", FIXTURES / "divisor12.json")
        assert code == 0 and "ok" in out

    def test_ideals_past_table_limit(self, capsys, tmp_path):
        # a 16-element antichain has 2^16 down-sets, more than int16 tables hold
        wide = tmp_path / "antichain16.json"
        wide.write_text(
            json.dumps({"elements": [f"x{i}" for i in range(16)], "covers": []})
        )
        code, out, err = run(capsys, "birkhoff", "ideals", wide)
        assert code == 3
        assert "size limit" in err and "65536" in err
        assert "Traceback" not in err and out == ""

    def test_irr_rejects_nonmodular(self, capsys):
        code, _, err = run(capsys, "birkhoff", "irr", FIXTURES / "n5.json")
        assert code == 2 and "distributiv" in err


class TestStanley:
    def test_trace_files(self, capsys, tmp_path):
        trace = tmp_path / "trace"
        code, out, _ = run(
            capsys, "stanley", FIXTURES / "b3_poset.json", "--trace-dir", trace
        )
        assert code == 0
        files = sorted(f.name for f in trace.iterdir())
        assert files[0] == "step_000.dot"
        assert len(files) == out.count("step ")
        first = (trace / "step_000.dot").read_text()
        assert first.startswith("digraph") and "rankdir=BT" in first


class TestFreedist:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "dedekind", "--n", "3")
        assert code == 0 and out.strip() == "20"
        code, out, _ = run(capsys, "freedist", "count", "--n", "4")
        assert code == 0 and out.strip() == "168"

    def test_count_cap(self, capsys):
        code, _, err = run(capsys, "dedekind", "--n", "9")
        assert code == 3 and "size limit" in err

    def test_dnf(self, capsys):
        code, out, _ = run(capsys, "freedist", "dnf", "P1 & (P2 | P3)")
        assert code == 0 and out.strip() == "{1,2}|{1,3}"

    def test_dnf_syntax_error(self, capsys):
        code, _, err = run(capsys, "freedist", "dnf", "P1 &")
        assert code == 2 and "offset 4" in err

    def test_generate(self, capsys, tmp_path):
        out_path = tmp_path / "free3.json"
        code, out, _ = run(
            capsys, "freedist", "generate", "--n", "3", "--extended", "--out", out_path
        )
        assert code == 0 and "20 elements" in out
        data = json.loads(out_path.read_text())
        assert len(data["elements"]) == 20


class TestReconstruct:
    def test_case_n2_with_bounds(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", FIXTURES / "case_n2.json", "--with-bounds"
        )
        assert code == 0
        assert "20 elements; isomorphic to extended Λ3" in out

    def test_case_n2_core(self, capsys):
        code, out, _ = run(capsys, "reconstruct", FIXTURES / "case_n2.json")
        assert code == 0
        assert "18 elements; isomorphic to restricted Λ3" in out

    def test_case_n1(self, capsys):
        code, out, _ = run(capsys, "reconstruct", FIXTURES / "case_n1.json")
        assert code == 0 and out.startswith("21 elements")

    def test_outputs_and_factors(self, capsys, tmp_path):
        out_path = tmp_path / "n1.json"
        code, _, _ = run(
            capsys,
            "reconstruct", FIXTURES / "case_n1.json",
            "--with-bounds", "--out", out_path,
        )
        assert code == 0
        code, out, _ = run(capsys, "factors", out_path, "A∩B+A∩C+B∩C")
        assert code == 0 and out.strip() == "d+f+g+h"
        code, out, _ = run(capsys, "factors", out_path, "M")
        assert code == 0 and out.strip() == "a+b+c+d+e+f+g+h"
        code, out, _ = run(capsys, "factors", out_path, "zero")
        assert code == 0 and out.strip() == "(empty)"

    def test_infer_flag_recovers_order(self, capsys, tmp_path):
        data = json.loads((FIXTURES / "case_n2.json").read_text())
        del data["order"]
        del data["edges"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(data, ensure_ascii=False))
        code, out, _ = run(capsys, "reconstruct", bare)
        assert code == 0 and out.startswith("64 elements")  # antichain: 2^6
        code, out, _ = run(capsys, "reconstruct", bare, "--infer")
        assert code == 0
        assert "18 elements; isomorphic to restricted Λ3" in out

    def test_limit_caps_reconstruction(self, capsys):
        code, _, err = run(
            capsys, "--limit", "5", "reconstruct", FIXTURES / "case_n2.json"
        )
        assert code == 3 and "size limit" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "reconstruct", "no_such_file.json")
        assert code == 2



class TestRecognize:
    def test_free_sizes_are_dedekind_counts(self):
        assert cli.FREE_LATTICE_SIZES == {k: fd.dedekind_count(k) for k in range(1, 5)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_free_labels(self, k):
        assert cli._recognize(fd.generate_lattice(k)) == f"restricted Λ{k}"
        assert cli._recognize(fd.generate_lattice(k, extended=True)) == f"extended Λ{k}"

    @pytest.mark.parametrize("k", [1, 3, 4])  # B2 is the restricted Λ2, tried first
    def test_boolean_labels(self, k):
        assert cli._recognize(catalog.boolean_lattice(k)) == f"B{k}"

    def test_reconstruct_counts_nothing(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("dedekind_count called")

        monkeypatch.setattr(fd, "dedekind_count", refuse)
        code, out, _ = run(capsys, "reconstruct", FIXTURES / "case_n2.json", "--with-bounds")
        assert code == 0 and "isomorphic to extended Λ3" in out

class TestRenderAndDeterminism:
    def test_render(self, capsys, tmp_path):
        out_path = tmp_path / "n5.dot"
        code, _, _ = run(capsys, "render", FIXTURES / "n5.json", "--out", out_path)
        assert code == 0
        text = out_path.read_text()
        assert "rankdir=BT" in text
        assert '"0" -> "a"' in text

    def test_rendered_labels(self, capsys, tmp_path):
        src = tmp_path / "n1.json"
        run(capsys, "reconstruct", FIXTURES / "case_n1.json", "--out", src)
        out_path = tmp_path / "n1.dot"
        code, _, _ = run(capsys, "render", src, "--out", out_path)
        assert code == 0
        assert '[label="g"]' in out_path.read_text()

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "reconstruct", FIXTURES / "case_n1.json", "--out", a)
        run(capsys, "reconstruct", FIXTURES / "case_n1.json", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_limit_flag(self, capsys):
        code, _, err = run(
            capsys, "--limit", "5", "birkhoff", "ideals", FIXTURES / "b3_poset.json"
        )
        assert code == 3 and "size limit" in err

    def test_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_LIMIT", "5")
        code, _, err = run(capsys, "birkhoff", "ideals", FIXTURES / "b3_poset.json")
        assert code == 3
