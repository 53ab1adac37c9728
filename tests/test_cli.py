import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathstats.cli import main


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
        from wreathstats import cli
        ran = []
        monkeypatch.setattr(cli, "verify_identity",
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


class TestWarnings:
    def test_zero_cap_warning_is_one_line(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "carlitz", "--tmax", "0")
        assert (code, out) == (0, "carlitz n=2 r=2 tmax=0 PASS\n")
        assert err == "warning: carlitz: cap tmax=0 compares only the constant term\n"

    def test_warning_printed_before_error(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "keylem", "--parts_max", "0")
        assert (code, out) == (1, "")
        assert err == ("warning: keylem: cap parts_max=0 compares only the constant term\n"
                       "invalid input: keylem: no case to check at n=3 parts_max=0 r=2\n")


# Generated argv for the parsing commands: every input is either answered
# or rejected in its exit class, with the error text on stderr only.
_TEXT = st.text(alphabet="0123456789^, []", max_size=12)
_WINDOW = st.one_of(_TEXT, _TEXT.map(lambda text: f"[{text}]"))
_ARGV = st.one_of(
    st.tuples(st.just("stats"), st.just("--window"), _WINDOW),
    st.tuples(st.just("encode"), st.just("--f"), _TEXT),
    st.tuples(st.just("decode"), st.just("--window"), _WINDOW, st.just("--partition"), _TEXT),
    st.tuples(st.just("decompose"), st.just("--window"), _WINDOW, st.just("--J"), _TEXT),
    st.tuples(st.just("biword"), st.just("--g"), _TEXT, st.just("--f"), _TEXT),
)


@settings(max_examples=300, deadline=None)
@given(argv=_ARGV, r=st.integers(-1, 4))
def test_generated_argv_lands_in_an_exit_class(argv, r):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--r", str(r)])
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == "" and err.getvalue() != ""
