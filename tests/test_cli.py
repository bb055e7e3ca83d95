import contextlib
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import latticekit as lk
import latticekit.freedist as fd
from latticekit import catalog, cli
from latticekit import io as lkio
from latticekit.cli import main

from conftest import FIXTURES


# every verb that reads a file, with "{}" standing for its path
FILE_VERBS = [
    ("check", "{}", "--property", "modular"),
    ("render", "{}", "--out", "{}.dot"),
    ("birkhoff", "ideals", "{}"),
    ("birkhoff", "irr", "{}"),
    ("birkhoff", "roundtrip", "{}"),
    ("stanley", "{}", "--trace-dir", "{}.trace"),
    ("reconstruct", "{}"),
    ("factors", "{}", "a"),
]


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

    def test_redundant_pair_warning_is_one_plain_line(self, capsys, tmp_path):
        # no source path or line of the package, whatever its install
        chain = tmp_path / "chain.json"
        chain.write_text(
            json.dumps(
                {"elements": ["x1", "x2", "x6"], "covers": [["x1", "x2"], ["x2", "x6"], ["x1", "x6"]]}
            )
        )
        code, out, err = run(capsys, "check", chain, "--property", "distributive")
        assert (code, out) == (0, "distributive: true\n")
        assert err == "warning: redundant cover pair ('x1', 'x6') dropped\n"

    def test_limit(self, capsys):
        # divisor12.json has 6 elements: 5 is below it, 6 admits it
        code, out, err = run(
            capsys, "--limit", "5", "check", FIXTURES / "divisor12.json", "--property", "graded"
        )
        assert (code, out) == (3, "")
        assert err == "size limit: lattice has 6 elements, more than the limit 5\n"
        code, out, _ = run(
            capsys, "--limit", "6", "check", FIXTURES / "divisor12.json", "--property", "graded"
        )
        assert code == 0 and "degree 3" in out

    def test_limit_env_checked_before_tables(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.io, "as_lattice", lambda p: pytest.fail("tables built"))
        monkeypatch.setenv("LATTICE_LIMIT", "4")
        code, out, err = run(capsys, "check", FIXTURES / "m3.json", "--property", "modular")
        assert (code, out) == (3, "")
        assert err == "size limit: lattice has 5 elements, more than the limit 4\n"


def write_poset(path, elements, covers=()):
    path.write_text(json.dumps({"elements": elements, "covers": list(covers)}))
    return path


class TestSizeGate:
    """Every verb that reads a lattice honours ``--limit``; larger inputs exit
    3 before any n×n array exists."""

    @pytest.mark.parametrize(
        "verb",
        [
            ("check", "{}", "--property", "modular"),
            ("birkhoff", "irr", "{}"),
            ("birkhoff", "roundtrip", "{}"),
        ],
    )
    def test_lattice_verbs(self, capsys, verb):
        # divisor12.json has 6 elements
        argv = [a.format(FIXTURES / "divisor12.json") for a in verb]
        code, out, err = run(capsys, "--limit", "2", *argv)
        assert (code, out) == (3, "")
        assert err == "size limit: lattice has 6 elements, more than the limit 2\n"
        code, _, _ = run(capsys, "--limit", "6", *argv)
        assert code == 0

    def test_factors(self, capsys, tmp_path):
        bounded = tmp_path / "bounded.json"
        code, _, _ = run(
            capsys, "reconstruct", FIXTURES / "case_n2.json", "--with-bounds", "--out", bounded
        )
        assert code == 0 and len(json.loads(bounded.read_text())["elements"]) == 20
        code, out, err = run(capsys, "--limit", "19", "factors", bounded, "one")
        assert (code, out) == (3, "")
        assert err == "size limit: lattice has 20 elements, more than the limit 19\n"
        code, out, _ = run(capsys, "--limit", "20", "factors", bounded, "zero")
        assert (code, out) == (0, "(empty)\n")

    def test_long_chain_is_refused_before_the_poset_is_built(self, capsys, tmp_path, monkeypatch):
        names = [f"c{i}" for i in range(6000)]
        chain = write_poset(tmp_path / "chain.json", names, zip(names, names[1:]))
        monkeypatch.setattr(cli.io, "build_poset", lambda *a, **k: pytest.fail("poset built"))
        code, out, err = run(capsys, "--limit", "5", "check", chain, "--property", "modular")
        assert (code, out) == (3, "")
        assert err == "size limit: lattice has 6000 elements, more than the limit 5\n"

    def test_poset_files_hold_what_tables_hold(self, capsys, tmp_path, monkeypatch):
        wide = write_poset(tmp_path / "wide.json", [f"x{i}" for i in range(32768)])
        monkeypatch.setattr(cli.io, "build_poset", lambda *a, **k: pytest.fail("poset built"))
        code, out, err = run(capsys, "render", wide, "--out", tmp_path / "wide.dot")
        assert (code, out) == (3, "")
        assert err == "size limit: meet/join tables hold at most 32767 elements (got 32768)\n"

    def test_stanley_counts_the_down_sets_first(self, capsys, tmp_path, monkeypatch):
        # a 15-element antichain has 2^15 = 32768 down-sets, one more than tables hold
        wide = write_poset(tmp_path / "antichain15.json", [f"x{i}" for i in range(15)])
        monkeypatch.setattr(cli.birkhoff, "_snapshot", lambda *a: pytest.fail("snapshot taken"))
        code, out, err = run(capsys, "stanley", wide, "--trace-dir", tmp_path / "trace")
        assert (code, out) == (3, "")
        assert err == "size limit: meet/join tables hold at most 32767 elements (got 32768)\n"
        code, out, err = run(
            capsys, "--limit", "1000", "stanley", wide, "--trace-dir", tmp_path / "trace"
        )
        assert (code, out) == (3, "")
        assert err == "size limit: more than 1000 order ideals; raise the cap to proceed\n"

    def test_reconstruct_counts_the_irreducibles_first(self, capsys, tmp_path, monkeypatch):
        # J(P) of k irreducibles has at least k + 1 elements; this spec also
        # declares an order its factors contradict and two equal factor sets
        k = 2000
        irreducibles = [{"name": f"m{i}", "top": f"f{i}", "factors": [f"f{i}"]} for i in range(k)]
        irreducibles[0]["factors"] = irreducibles[1]["factors"] = ["f0", "f1"]
        spec = {
            "factors": [f"f{i}" for i in range(k)],
            "irreducibles": irreducibles,
            "order": [[f"m{i}", f"m{i + 1}"] for i in range(1, k - 1)],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        recon = importlib.import_module("latticekit.reconstruct")
        monkeypatch.setattr(recon, "build_poset", lambda *a, **kw: pytest.fail("poset built"))
        code, out, err = run(capsys, "--limit", "2000", "reconstruct", path)
        assert (code, out) == (3, "")
        assert err == "size limit: more than 2000 order ideals; raise the cap to proceed\n"
        monkeypatch.undo()
        code, out, err = run(capsys, "--limit", "2001", "reconstruct", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: order conflict on ('m1', 'm2')")

    @pytest.mark.parametrize(
        "argv, verb",
        [
            (("check", FIXTURES / "m3.json", "--property", "modular"), "check"),
            (("birkhoff", "roundtrip", FIXTURES / "m3.json"), "birkhoff roundtrip"),
        ],
    )
    def test_out_of_memory(self, capsys, monkeypatch, argv, verb):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.io, "as_lattice", exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"size limit: out of memory ({verb})\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_limit_must_be_positive(self, capsys, value):
        code, out, err = run(capsys, "--limit", value, "dedekind", "--n", "3")
        assert (code, out) == (2, "")
        assert err == f"input error: --limit must be a positive integer, not {value}\n"

    def test_limit_env_must_be_positive(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_LIMIT", "-3")
        code, out, err = run(capsys, "check", FIXTURES / "m3.json", "--property", "modular")
        assert (code, out) == (2, "")
        assert err == "input error: LATTICE_LIMIT must be a positive integer, not -3\n"


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

    @pytest.mark.parametrize(
        "verb",
        [("check", "{}", "--property", "modular"), ("birkhoff", "irr", "{}"), ("birkhoff", "roundtrip", "{}")],
    )
    def test_no_elements(self, capsys, tmp_path, verb):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"elements": [], "covers": []}))
        code, out, err = run(capsys, *(a.format(empty) for a in verb))
        assert (code, out, err) == (2, "", "error: lattice has no elements\n")

    def test_spec_file_is_not_a_poset(self, capsys):
        code, _, err = run(
            capsys, "check", FIXTURES / "case_n1.json", "--property", "modular"
        )
        assert code == 2 and "no 'elements' list" in err

    @pytest.mark.parametrize(
        "verb",
        [
            ("check", "{}", "--property", "modular"),
            ("render", "{}", "--out", "{}.dot"),
            ("birkhoff", "irr", "{}"),
            ("birkhoff", "ideals", "{}"),
        ],
    )
    def test_repeated_element_name(self, capsys, tmp_path, verb):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"elements": ["0", "a", "0"], "covers": []}))
        code, out, err = run(capsys, *(a.format(bad) for a in verb))
        assert (code, out) == (2, "")
        assert err == "error: 'elements' repeats the name '0'\n"

    def test_labels_must_be_strings(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        data = {"elements": ["0", "a"], "covers": [["0", "a"]], "labels": {"0|a": [1]}}
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "factors", bad, "a")
        assert code == 2 and "'labels' value for '0|a' must be a string" in err

    def test_factors_needs_every_edge_labeled(self, capsys):
        code, _, err = run(capsys, "factors", FIXTURES / "divisor12.json", "12")
        assert code == 2 and "edge labels do not match cover edges" in err


class TestMalformedSpecFiles:
    """Each spec shape error exits 2 with a message naming the field."""

    GOOD = {
        "factors": ["a", "b"],
        "irreducibles": [
            {"name": "A", "top": "a", "factors": ["a"]},
            {"name": "B", "top": "b", "factors": ["a", "b"]},
        ],
        "order": [["A", "B"]],
    }

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: [d], "spec file must hold a JSON object, not list"),
            (lambda d: {"factors": ["a"]}, "spec has no 'irreducibles' list"),
            (lambda d: {"irreducibles": []}, "spec has no 'factors' list"),
            (lambda d: {**d, "factors": "ab"}, "spec has no 'factors' list"),
            (lambda d: {**d, "factors": ["a", 1]}, "'factors' must be a list of strings"),
            (
                lambda d: {**d, "irreducibles": ["A"]},
                "'irreducibles' item 0 must be an object",
            ),
            *[
                (
                    lambda d, key=key: {
                        **d,
                        "irreducibles": [
                            d["irreducibles"][0],
                            {k: v for k, v in d["irreducibles"][1].items() if k != key},
                        ],
                    },
                    f"'irreducibles' item 1 has no {key!r}",
                )
                for key in ("name", "top", "factors")
            ],
            (
                lambda d: {**d, "irreducibles": [{"name": 1, "top": "a", "factors": []}]},
                "'irreducibles' item 0 'name' must be a string",
            ),
            (lambda d: {**d, "order": [["A"]]}, "'order' item 0 must be a list of 2 strings"),
            (lambda d: {**d, "order": "AB"}, "'order' must be a list"),
            (
                lambda d: {**d, "edges": [["0", "A"]]},
                "'edges' item 0 must be a list of 3 strings",
            ),
            (
                lambda d: {**d, "bounds": {"top_name": "T", "socle": "s"}},
                "'bounds' has unknown keys ['socle']",
            ),
            (lambda d: {**d, "bounds": ["T"]}, "'bounds' must be an object"),
            (
                lambda d: {**d, "bounds": {"top_name": 1}},
                "'bounds' 'top_name' must be a string",
            ),
        ],
    )
    def test_shape_errors(self, capsys, tmp_path, change, message):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps(change(self.GOOD)))
        code, out, err = run(capsys, "reconstruct", bad)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("name", ["0", "A+B"])
    def test_reserved_irreducible_names(self, capsys, tmp_path, name):
        # "0" and "A+B" would also name the bottom and the join of A and B
        irreducibles = [*self.GOOD["irreducibles"], {"name": name, "top": "c", "factors": ["c"]}]
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({**self.GOOD, "factors": ["a", "b", "c"], "irreducibles": irreducibles}))
        code, _, err = run(capsys, "reconstruct", bad)
        assert code == 2 and f"irreducible name {name!r} is '0' or contains '+'" in err

    def test_bound_name_taken(self, capsys, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({**self.GOOD, "bounds": {"top_name": "A"}}))
        code, _, err = run(capsys, "reconstruct", bad, "--with-bounds")
        assert code == 2 and "name 'A' already present" in err

    def test_good_spec(self, capsys, tmp_path):
        good = tmp_path / "spec.json"
        good.write_text(json.dumps({**self.GOOD, "bounds": {"top_name": "T"}}))
        code, out, _ = run(capsys, "reconstruct", good, "--with-bounds")
        assert (code, out) == (0, "5 elements\n")  # the chain 0 < A < B, plus bounds

    def test_valid_spec_formats_no_message(self):
        # a message is built only when its check fails: no part is repr'd
        class Unprintable(list):
            def __repr__(self):
                raise AssertionError("repr of a valid part")

        class UnprintableDict(dict):
            __repr__ = Unprintable.__repr__

        def wrap(x):
            if isinstance(x, dict):
                return UnprintableDict({k: wrap(v) for k, v in x.items()})
            if isinstance(x, list):
                return Unprintable(wrap(v) for v in x)
            return x

        spec = lk.load_spec(wrap({**self.GOOD, "edges": [["0", "A", "a"]], "bounds": {"top_name": "T"}}))
        assert spec == lk.load_spec({**self.GOOD, "edges": [["0", "A", "a"]], "bounds": {"top_name": "T"}})
        assert spec.order == (("A", "B"),) and spec.bounds.top_name == "T"

    def test_message_text(self):
        with pytest.raises(lk.InvalidSpec) as err:
            lk.load_spec({**self.GOOD, "order": [["A", "B"], ["A", 2]]})
        assert str(err.value) == "'order' item 1 must be a list of 2 strings, not ['A', 2]"
        with pytest.raises(lk.InvalidSpec) as err:
            lk.load_spec({**self.GOOD, "irreducibles": [{"name": "A", "top": ["{}"], "factors": []}]})
        assert str(err.value) == "'irreducibles' item 0 'top' must be a string, not ['{}']"


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("dedekind", "--n", "-1"), "n must be nonnegative"),
            (("freedist", "count", "--n", "-1"), "n must be nonnegative"),
            (("freedist", "generate", "--n", "0", "--out", "x.json"), "at least one generator"),
        ],
    )
    def test_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err


# -- fuzzing the input boundary -----------------------------------------------------

NAMES = ["0", "a", "b", "1", "a|b", "a+b"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES), inner, max_size=3),
    max_leaves=6,
)
names = st.sampled_from(NAMES)


def maybe(strategy):
    """``strategy`` most of the time, otherwise any small JSON value."""
    return st.one_of(*[strategy] * 7, json_values)


def fields(**strategies):
    """An object with the given fields, now and then one of them left out."""
    return st.fixed_dictionaries({k: maybe(v) for k, v in strategies.items()}).flatmap(
        lambda d: st.sampled_from([None] * 4 + list(d)).map(
            lambda drop: {k: v for k, v in d.items() if k != drop}
        )
    )


def tuples_of(size):
    """Lists of names, mostly ``size`` long."""
    return maybe(st.lists(names, min_size=size, max_size=size))


def fixtures_with_one_field_replaced(*files):
    """The fixture files, each as it is or with one field given any value."""
    data = [json.loads((FIXTURES / f).read_text(encoding="utf-8")) for f in files]
    return st.tuples(st.sampled_from(data), json_values).flatmap(
        lambda dv: st.sampled_from([None, None, *dv[0]]).map(
            lambda key: dv[0] if key is None else {**dv[0], key: dv[1]}
        )
    )


# one_of flattens nested one_ofs and picks among all their branches alike
poset_files = st.one_of(
    *[fixtures_with_one_field_replaced("n5.json", "m3.json", "divisor12.json")] * 2,
    json_values,
    *[fields(
        elements=st.lists(names, max_size=5, unique=True) | st.lists(names, max_size=5),
        covers=st.lists(tuples_of(2), max_size=6),
        labels=st.dictionaries(st.sampled_from(["0|a", "a|1", "0|b", "b|1", "a"]), names),
    )] * 2,
)
spec_files = st.one_of(
    *[fixtures_with_one_field_replaced("case_n1.json", "case_n2.json")] * 2,
    json_values,
    *[fields(
        factors=st.lists(names, max_size=4, unique=True),
        irreducibles=st.lists(
            fields(name=names, top=names, factors=st.lists(names, max_size=3, unique=True)),
            max_size=4,
        ),
        order=st.lists(tuples_of(2), max_size=3),
        edges=st.lists(tuples_of(3), max_size=2),
        bounds=st.dictionaries(
            st.sampled_from(["top_name", "bottom_label", "socle"]), names, max_size=2
        ),
    )] * 2,
)
poset_verbs = st.sampled_from(
    [
        *[
            ("check", "{}", "--property", p)
            for p in ("modular", "distributive", "semimodular", "graded", "multfree")
        ],
        ("check", "{}", "--property", "jordanholder", "--allow-nonmodular"),
        ("render", "{}", "--out", "{}.dot"),
        ("birkhoff", "ideals", "{}"),
        ("birkhoff", "irr", "{}"),
        ("birkhoff", "roundtrip", "{}"),
        ("factors", "{}", "a"),
    ]
)
spec_verbs = st.sampled_from(
    [("reconstruct", "{}"), ("reconstruct", "{}", "--with-bounds", "--infer")]
)


class TestInputFuzz:
    """Malformed files get a documented exit code and no traceback; 1
    ("property false") comes only from ``check``."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(st.tuples(poset_files, poset_verbs), st.tuples(spec_files, spec_verbs)))
    def test_exit_codes(self, case):
        data, verb = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.format(path) for a in verb])
        assert code in (0, 1, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert code != 1 or verb[0] == "check"

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

    def test_roundtrip_on_a_1000_chain(self, capsys, tmp_path):
        # 999 join-irreducibles and a 1000-element J ∪ M, inside the search's
        # cap: the recursive search ran out of stack here and exited 1
        chain = [f"c{i}" for i in range(1000)]
        path = write_poset(tmp_path / "chain.json", chain, zip(chain, chain[1:]))
        assert run(capsys, "birkhoff", "roundtrip", path) == (0, "roundtrip: ok\n", "")

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

    def test_generate_limit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(fd, "set_family_lattice", lambda *a: pytest.fail("tables built"))
        out_path = tmp_path / "free3.json"
        code, out, err = run(
            capsys, "--limit", "19", "freedist", "generate", "--n", "3", "--extended",
            "--out", out_path,
        )
        assert (code, out) == (3, "")
        assert err == "size limit: lattice has 20 elements, more than the limit 19\n"
        assert not out_path.exists()

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

    @pytest.mark.parametrize("verb", FILE_VERBS)
    def test_file_not_utf8(self, capsys, tmp_path, verb):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *(a.format(bad) for a in verb))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "can't decode" in err
        assert err.startswith(f"input error: {bad}: ")

    @pytest.mark.parametrize("verb", FILE_VERBS)
    def test_file_not_json(self, capsys, tmp_path, verb):
        bad = tmp_path / "bad.json"
        bad.write_text('{"elements": [', encoding="utf-8")
        code, out, err = run(capsys, *(a.format(bad) for a in verb))
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {bad}: Expecting value")



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

# names that exercise JSON string escapes: quotes, backslashes, control
# characters, the line separator U+2028 and the bounds' combining hats
ODD_NAMES = ["0̂", 'say "x"', "back\\slash", "tab\there\n", "\x00\x1f", "line\u2028sep", "ü", "1̂"]


def odd_lattice(k):
    """The first k odd names as a chain, so every one is in a cover pair."""
    names = ODD_NAMES[:k]
    return lk.build_poset(names, zip(names, names[1:]))


def reference_dot(p, labels=None, name="lattice"):
    def quote(text):
        return json.dumps(text, ensure_ascii=False)

    lines = [f"digraph {quote(name)} {{", "  rankdir=BT;"]
    lines += [f"  {quote(x)};" for x in p.names]
    for a, b in p.cover_names():
        attr = f" [label={quote(labels[(a, b)])}]" if labels and (a, b) in labels else ""
        lines.append(f"  {quote(a)} -> {quote(b)}{attr};")
    return "\n".join(lines + ["}"]) + "\n"


class TestWriters:
    """Files and DOT text equal what json.dumps writes, byte for byte."""

    @pytest.mark.parametrize("k", [0, 1, 2, len(ODD_NAMES)])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_write_poset_is_json_dumps(self, tmp_path, k, labeled):
        p = odd_lattice(k)
        labels = {edge: ODD_NAMES[-1 - i] for i, edge in enumerate(p.cover_names())} if labeled else None
        path = tmp_path / "out.json"
        lkio.write_poset(path, p, labels)
        expected = json.dumps(lkio.poset_to_dict(p, labels), ensure_ascii=False, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        if labeled and k > 1:
            assert '"labels": {' in expected
        assert lkio.read_poset(path)[0].names == p.names

    def test_empty_labels_and_lists(self, tmp_path):
        path = tmp_path / "out.json"
        lkio.write_poset(path, odd_lattice(0), {})
        assert path.read_text(encoding="utf-8") == '{\n  "elements": [],\n  "covers": []\n}\n'
        assert lkio._dumps([], [], {}) == (
            json.dumps({"elements": [], "covers": [], "labels": {}}, indent=2) + "\n"
        )

    @pytest.mark.parametrize("k", [0, 1, len(ODD_NAMES)])
    def test_to_dot_is_json_quoted(self, k):
        p = odd_lattice(k)
        labels = {edge: ODD_NAMES[i] for i, edge in enumerate(p.cover_names()) if i % 2}
        for lab in (None, labels):
            assert lkio.to_dot(p, lab) == reference_dot(p, lab)
            assert lkio.to_dot(p, lab, name=ODD_NAMES[1]) == reference_dot(p, lab, ODD_NAMES[1])

    def test_non_string_label_is_refused(self, tmp_path):
        p = odd_lattice(3)
        lower, upper = p.cover_names()[1]
        path = tmp_path / "out.json"
        with pytest.raises(lk.InvalidSpec, match="label of edge .* must be a string, not 7"):
            lkio.write_poset(path, p, {(lower, upper): 7})
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("birkhoff", "ideals", "{antichain}", "--out", "{out}"),  # 1024 down-sets: dense path
            ("freedist", "generate", "--n", "3", "--extended", "--out", "{out}"),  # 0̂ and 1̂
            ("reconstruct", FIXTURES / "case_n1.json", "--with-bounds", "--out", "{out}"),
        ],
    )
    def test_cli_files(self, capsys, tmp_path, argv):
        antichain = write_poset(tmp_path / "antichain.json", [f"x{i}" for i in range(10)])
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, *(str(a).format(antichain=antichain, out=out) for a in argv))
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), ensure_ascii=False, indent=2) + "\n"


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

    def test_limit_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_LIMIT", "abc")
        code, out, err = run(capsys, "dedekind", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "input error: LATTICE_LIMIT must be an integer, not 'abc'\n"
