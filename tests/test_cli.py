import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wreathstats
from reference_group import reference_stats_dict
from wreathstats import cli, group
from wreathstats.cli import _stats_dict, main
from wreathstats.group import ColoredPermutation, _windows
from wreathstats.identities import CATALOG


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_worked_example_json(self, capsys):
        code, out, _ = run(capsys, "stats", "--r", "5",
                           "--window", "[4^1,3,2^4,1^2]", "--json")
        assert code == 0
        info = json.loads(out)
        assert info["inv"] == 2
        assert info["length"] == 13
        assert info["maj"] == 2
        assert info["fmaj"] == 17
        assert info["des_set"] == [0, 2]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "stats", "--r", "5",
                           "--window", "[4^1,3,2^4,1^2]")
        assert code == 0
        assert "length=13" in out
        assert "fmaj=17" in out

    def test_invalid_window_is_mathematical_error(self, capsys):
        code, out, err = run(capsys, "stats", "--r", "5", "--window", "[1,1]")
        assert code == 1
        assert not out
        assert "invalid input" in err


class TestEncodeDecode:
    def test_decode_follows_definitions(self, capsys):
        code, out, _ = run(capsys, "decode", "--r", "3",
                           "--window", "[5^1,3^1,1,2^2,4^2]",
                           "--partition", "0,2,2,3,3")
        assert code == 0
        assert out.strip() == "3,5^2,3^1,6^2,1^1"

    def test_encode_worked_example(self, capsys):
        code, out, _ = run(capsys, "encode", "--r", "4",
                           "--f", "4^2,4^1,1,3^3,6,3^1,4^2", "--json")
        assert code == 0
        info = json.loads(out)
        assert info["window"] == "[3,6^1,4^3,7^2,2^1,1^2,5]"
        assert info["partition"] == [1, 2, 2, 2, 2, 2, 4]

    def test_round_trip_corpus(self, capsys):
        rng = random.Random(20240817)
        for r in (1, 2, 3):
            for n in range(6):
                for _ in range(100):
                    values = [rng.randrange(4) for _ in range(n)]
                    colors = [rng.randrange(r) if v else 0 for v in values]
                    f = ",".join(f"{v}^{c}" if c else str(v)
                                 for v, c in zip(values, colors))
                    code, out, _ = run(capsys, "encode", "--r", str(r),
                                       "--f", f, "--json")
                    assert code == 0
                    info = json.loads(out)
                    code, out, _ = run(capsys, "decode", "--r", str(r),
                                       "--window", info["window"],
                                       "--partition",
                                       ",".join(map(str, info["partition"])))
                    assert code == 0
                    assert out.strip() == f


class TestDecompose:
    def test_block_factorization(self, capsys):
        code, out, _ = run(capsys, "decompose", "--r", "3",
                           "--window", "[5,2^2,4^1,3,1^1,6^2,8,7^2]",
                           "--J", "1,2,4,5,7", "--json")
        assert code == 0
        info = json.loads(out)
        assert info["tau"] == "[4^1,2^2,5,6^2,1^1,3,7^2,8]"
        assert info["delta"] == "[3,2,1,6,5,4,8,7]"

    def test_colored_first_block(self, capsys):
        code, out, _ = run(capsys, "decompose", "--r", "3",
                           "--window", "[5,2^2,4^1,3,1^1,6^2]",
                           "--J", "0,1,2,4,5", "--json")
        assert code == 0
        info = json.loads(out)
        assert info["tau"] == "[2,4,5,6^2,1^1,3]"
        assert info["delta"] == "[3,1^2,2^1,6,5,4]"

    def test_bad_generator_index(self, capsys):
        code, _, err = run(capsys, "decompose", "--r", "2",
                           "--window", "[2,1]", "--J", "7")
        assert code == 1
        assert "invalid input" in err


class TestBiword:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "biword", "--r", "4",
                           "--g", "0,1,1,3,3,4,5",
                           "--f", "4,4^1,1,3^3,6,3^1,4^2", "--json")
        assert code == 0
        info = json.loads(out)
        assert info["gamma"] == "[3,6^1,4^3,7^2,2^1,1,5]"
        assert info["lambda"] == [0, 1, 1, 3, 3, 4, 5]
        assert info["mu"] == [1, 3, 3, 4, 4, 4, 6]

    def test_invalid_biword(self, capsys):
        code, _, err = run(capsys, "biword", "--r", "3",
                           "--g", "1,1,3,3", "--f", "4,4^1,6^2,0")
        assert code == 1
        assert "invalid input" in err


class TestVerify:
    def test_single_entry_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "length_gf",
                           "--r", "2", "--n", "2")
        assert code == 0
        assert "PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "carlitz",
                           "--r", "1", "--n", "1", "--tmax", "2", "--json")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["identity"] == "carlitz"
        assert reports[0]["pass"] is True

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "nope")
        assert code == 2
        assert "unknown identity" in err

    def test_missing_selector_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_both_selectors_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "length_gf",
                             "--all")
        assert code == 2
        assert not out
        assert "not allowed with" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "length_gf",
                           "--r", "4", "--n", "5", "--max-elements", "10")
        assert code == 2
        assert "budget" in err

    def test_all_entries_ordered_by_catalog(self, capsys):
        from wreathstats.identities import CATALOG
        code, out, _ = run(capsys, "verify", "--all", "--json")
        assert code == 0
        reports = json.loads(out)
        assert [r["identity"] for r in reports] == list(CATALOG)
        assert all(r["pass"] for r in reports)

    def test_all_gives_each_entry_only_its_flags(self, capsys):
        from wreathstats.identities import CATALOG
        code, out, _ = run(capsys, "verify", "--all", "--r", "3", "--n", "2",
                           "--json")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)
        for r in reports:
            assert set(r["params"]) <= set(CATALOG[r["identity"]][1])

    def test_all_checks_every_entry_before_any_runs(self, capsys, monkeypatch):
        from wreathstats import identities
        ran = []
        monkeypatch.setattr(identities, "verify_identity",
                            lambda name, **kwargs: ran.append(name))
        code, out, err = run(capsys, "verify", "--all", "--r", "1")
        assert (code, out, ran) == (1, "", [])
        assert err == "invalid input: projection: parameter r=1, need r >= 2\n"

    def test_all_entries_run_one_after_another(self, capsys):
        # Run concurrently, each report's millis would include waiting on
        # the others, and their sum would exceed the wall time.
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--all", "--json")
        wall_ms = (time.perf_counter() - start) * 1000
        assert code == 0
        reports = json.loads(out)
        assert sum(r["millis"] for r in reports) <= wall_ms + len(reports)


class TestVerifyFlags:
    """The verify flags are written out in ``cli``; they must stay the
    catalog's parameter names and the list README.md gives."""

    def test_flags_are_the_catalog_parameters(self):
        spelled = (cli._FLAG_SPELLING.get(param, param)
                   for _, defaults in CATALOG.values() for param in defaults)
        assert cli._VERIFY_FLAGS == tuple(dict.fromkeys(spelled))

    def test_flags_are_the_readme_list(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("`verify`'s parameter flags are")
        listed = readme[start:readme.index("(the last two", start)]
        assert cli._VERIFY_FLAGS == tuple(re.findall(r"`--(\w+)`", listed))


# Prints, as its last line, which of the catalog and the ring a fresh
# interpreter has loaded after importing the CLI and running one command.
_LOADED_PROBE = """
import contextlib, io, json, sys
from wreathstats.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
print(json.dumps([name for name in ("wreathstats.identities", "wreathstats.qseries")
                  if name in sys.modules]))
"""


def loaded_after(*argv):
    src = Path(wreathstats.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyCatalog:
    """A process that does not verify loads neither the catalog
    (``identities``) nor the ring (``qseries``)."""

    @pytest.mark.parametrize("argv", [
        [],
        ["stats", "--r", "5", "--window", "[4^1,3,2^4,1^2]"],
        ["table", "--r", "2", "--n", "3", "--json"],
        ["encode", "--r", "4", "--f", "4^2,4^1,1,3^3,6,3^1,4^2"],
        ["decode", "--r", "3", "--window", "[5^1,3^1,1,2^2,4^2]",
         "--partition", "0,2,2,3,3"],
        ["decompose", "--r", "3", "--window", "[5,2^2,4^1,3,1^1,6^2,8,7^2]",
         "--J", "1,2,4,5,7"],
        ["biword", "--r", "4", "--g", "0,1,1,3,3,4,5", "--f", "4,4^1,1,3^3,6,3^1,4^2"],
    ], ids=lambda argv: argv[0] if argv else "import")
    def test_other_commands_load_neither(self, argv):
        assert loaded_after(*argv) == []

    @pytest.mark.parametrize("argv", [
        ["verify", "--identity", "length_gf"],
        ["selftest"],
    ], ids=lambda argv: argv[0])
    def test_verifying_commands_load_both(self, argv):
        assert loaded_after(*argv) == ["wreathstats.identities", "wreathstats.qseries"]


class TestTableRows:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_row_matches_the_value_object_row(self, r):
        for n in range(5):
            for sigma, colors in _windows(r, n):
                assert (_stats_dict(r, sigma, colors)
                        == reference_stats_dict(r, ColoredPermutation(r, sigma, colors)))


class TestNoValueObject:
    """``table`` reads every row from window tuples: no checked
    ``ColoredPermutation`` and no ``StatRecord`` is built for any element."""

    @pytest.fixture(autouse=True)
    def refuse_value_objects(self, monkeypatch):
        def refuse(obj, *args):
            raise AssertionError(f"table built a {type(obj).__name__}")
        monkeypatch.setattr(ColoredPermutation, "__post_init__", refuse)
        monkeypatch.setattr(group, "StatRecord", refuse)

    def test_no_value_object_tool_is_bound(self):
        for name in ("statistics", "enumerate_group"):
            assert not hasattr(cli, name), name

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_table(self, capsys, as_json):
        code, out, err = run(capsys, "table", "--r", "3", "--n", "3", *as_json)
        assert (code, err) == (0, "")
        assert out


class TestDeterminism:
    def test_text_output_is_stable(self, capsys):
        first = run(capsys, "verify", "--identity", "ell_col",
                    "--r", "2", "--n", "2")
        second = run(capsys, "verify", "--identity", "ell_col",
                     "--r", "2", "--n", "2")
        assert first == second

    def test_table_deterministic(self, capsys):
        a = run(capsys, "table", "--r", "2", "--n", "2")
        b = run(capsys, "table", "--r", "2", "--n", "2")
        assert a == b and a[0] == 0


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_parser_reused_after_errors(self, capsys):
        # The parser is built once per process; errors must not leave state
        # behind that changes a later call.
        readme = ("stats", "--r", "5", "--window", "[4^1,3,2^4,1^2]")
        first = run(capsys, *readme)
        assert run(capsys, "stats", "--window", "[1]")[0] == 2
        assert run(capsys, "stats", "--r", "2", "--window", "[1,1]")[0] == 1
        assert run(capsys, *readme) == first
        assert first[0] == 0 and "fmaj=17" in first[1]

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.count("PASS") == 3


# Every failure lands in its documented exit class: 2 for usage errors and
# budgets, 1 for invalid mathematical input; stdout stays empty either way.
@pytest.mark.parametrize("argv,code,named", [
    ("verify --identity length_gf --tmax 3", 2, "'tmax'"),
    ("verify --identity gg1 --r 3", 2, "'r'"),
    ("verify --identity length_gf --n x", 2, "--n"),
    ("table --r 2 --n 3 --max-elements 1", 2, "budget"),
    # counts with more digits than int-to-str converts are named by a power of 2
    ("table --r 2 --n 2000", 2, "budget exceeded: group of order 2^"),
    ("verify --identity length_gf --n 2000", 2, "budget exceeded: group of order 2^"),
    ("verify --identity desmaj --n 6000", 2, "or more sequences exceed budget"),
    ("verify --identity theorem_A --n 70000", 2, "budget exceeded: group of order 2^"),
    ("verify --identity theorem_B --n 70000", 2, "budget exceeded: group of order 2^"),
    # the graded entries refuse at their first group over the budget, before any walk
    ("verify --identity gessel_roselle --ucap 70000", 2,
     "budget exceeded: group of order 10321920 exceeds budget 10000000"),
    ("verify --identity adin_roichman --ucap 70000", 2,
     "budget exceeded: group of order 10321920 exceeds budget 10000000"),
    ("verify --identity gessel_roselle --r 2 --ucap 9", 2,
     "budget exceeded: group of order 10321920 exceeds budget 10000000"),
    # keylem's first composition (1000,) is one sequence, its second over budget
    ("verify --identity keylem --n 1000", 2, "sequences exceed budget 10000000"),
    ("encode --r 2 --f 0^1", 1, "colored zero"),
    ("encode --r 0 --f 1", 1, "r must be a positive integer"),
    ("decode --r 2 --window [1,2] --partition 0,1,2", 1, "lengths"),
    ("verify --identity length_gf --n -1", 1, "n=-1"),
    ("verify --identity keylem --parts_max 0", 1, "parts_max=0"),
    ("verify --all --r 1", 1, "projection: parameter r=1"),
])
def test_exit_class(capsys, argv, code, named):
    got, out, err = run(capsys, *argv.split())
    assert (got, out) == (code, "")
    assert named in err


# brenti and reiner refuse at their first group over the budget, before any
# context is built (u capped at 70000 would be past the exponent limit) or
# any smaller group walked
@pytest.mark.parametrize("argv", [
    "verify --identity brenti --nmax 70000",
    "verify --identity brenti --r 2 --nmax 9",
    "verify --identity reiner --r 2 --nmax 9",
])
def test_group_budget_refused_before_any_walk(capsys, argv):
    start = time.perf_counter()
    got = run(capsys, *argv.split())
    assert time.perf_counter() - start < 0.1
    assert got == (2, "", "budget exceeded: group of order 10321920 "
                          "exceeds budget 10000000\n")


# entries that walk sequences or biwords before the group check the group's
# budget before either walk
@pytest.mark.parametrize("argv", [
    "verify --identity bijection_stats --r 3 --n 7 --cap 2",
    "verify --identity desmaj --r 3 --n 7 --tmax 2",
    "verify --identity biword_count --r 3 --n 7 --capf 1 --capg 1",
])
def test_group_budget_refused_before_the_other_walk(capsys, argv):
    start = time.perf_counter()
    got = run(capsys, *argv.split())
    assert time.perf_counter() - start < 0.1
    assert got == (2, "", "budget exceeded: group of order 11022480 "
                          "exceeds budget 10000000\n")


# a thousand positions and 1200 parts: neither walk recurses per position
@pytest.mark.parametrize("argv", [
    "verify --identity keylem --n 1000 --parts_max 1",
    "verify --identity keylem --n 0 --parts_max 1200",
])
def test_long_keylem_cases_pass(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.startswith("keylem ") and out.endswith(" PASS\n")


class TestWarnings:
    def test_zero_cap_warning_is_one_line(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "carlitz", "--tmax", "0")
        assert (code, out) == (0, "carlitz n=2 r=2 tmax=0 PASS\n")
        assert err == "warning: carlitz: cap tmax=0 compares only the constant term\n"

    def test_warning_printed_before_error(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "desmaj", "--tmax", "0",
                             "--n", "6000")
        assert (code, out) == (2, "")
        assert err == ("warning: desmaj: cap tmax=0 compares only the constant term\n"
                       "budget exceeded: group of order 2^72655 or more exceeds "
                       "budget 10000000\n")


# Generated argv for the parsing commands and for verify: every input is
# either answered or rejected in its exit class, with the error text on
# stderr only.
_TEXT = st.text(alphabet="0123456789^, []", max_size=12)
_WINDOW = st.one_of(_TEXT, _TEXT.map(lambda text: f"[{text}]"))
_R = st.tuples(st.just("--r"), st.integers(-1, 4).map(str))


def _flag(name, values):
    return st.tuples(st.just(f"--{name}"), values.map(str))


def _verify_argv(name):
    """verify one entry, each of its parameters in -1..3, maybe budgeted."""
    params = [_flag(key, st.integers(-1, 3)) for key in CATALOG[name][1]]
    budgets = [st.one_of(st.just(()), _flag(flag, st.integers(0, 3000)))
               for flag in ("max-elements", "max-terms")]
    return st.tuples(st.just(("verify", "--identity", name)), *params, *budgets)


_ARGV = st.one_of(
    st.tuples(st.just(("stats", "--window")), _WINDOW, _R),
    st.tuples(st.just(("encode", "--f")), _TEXT, _R),
    st.tuples(st.just(("decode", "--window")), _WINDOW, st.just("--partition"), _TEXT, _R),
    st.tuples(st.just(("decompose", "--window")), _WINDOW, st.just("--J"), _TEXT, _R),
    st.tuples(st.just(("biword", "--g")), _TEXT, st.just("--f"), _TEXT, _R),
    st.sampled_from(sorted(CATALOG)).flatmap(_verify_argv),
).map(lambda parts: [word for part in parts
                     for word in ((part,) if isinstance(part, str) else part)])


@settings(max_examples=300, deadline=None)
@given(argv=_ARGV)
def test_generated_argv_lands_in_an_exit_class(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == "" and err.getvalue() != ""
