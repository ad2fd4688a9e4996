"""End-to-end CLI behaviour: commands, formats, env overrides, exit codes."""

import io
import sys
from fractions import Fraction

import pytest

from cbpvdp.cli import EXIT_OK, EXIT_PARSE, EXIT_SEMANTIC, main

COIN = "produce (ret * (+) omega[V unit])\n"


@pytest.fixture
def coin_file(tmp_path):
    p = tmp_path / "coin.cbpv"
    p.write_text(COIN)
    return str(p)


def run_cli(capsys, argv, stdin_text=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["check", coin_file])
    assert code == EXIT_OK
    assert "ok:" in out
    assert "F V unit" in out


def test_check_type_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.cbpv"
    p.write_text("obs[1/2] (produce 3)\n")
    code, _out, err = run_cli(capsys, ["check", str(p)])
    assert code == EXIT_SEMANTIC
    assert "error" in err


def test_check_unbound_variable_exit_1(tmp_path, capsys):
    p = tmp_path / "free.cbpv"
    p.write_text("produce zz\n")
    code, _out, err = run_cli(capsys, ["check", str(p)])
    assert code == EXIT_SEMANTIC
    assert "unbound" in err


def test_check_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.cbpv"
    p.write_text("produce (ret *\n")
    code, _out, err = run_cli(capsys, ["check", str(p)])
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_run_non_decimal_digit_exit_2(tmp_path, capsys):
    p = tmp_path / "digit.cbpv"
    p.write_text("produce (ret ²)\n", encoding="utf-8")
    code, _out, err = run_cli(capsys, ["run", str(p)])
    assert code == EXIT_PARSE
    assert "line 1, column 14: unexpected character '²'" in err


def test_check_overlong_numeral_exit_2(tmp_path, capsys):
    p = tmp_path / "big.cbpv"
    p.write_text("produce (ret " + "9" * 5000 + ")\n")
    code, _out, err = run_cli(capsys, ["check", str(p)])
    assert code == EXIT_PARSE
    assert "line 1, column 14: numeral of 5000 digits is too long" in err


# Inputs the parser builds in a loop but the structural walks recurse over.
DEEP_INPUTS = {
    "choice-chain": "produce (" + " (+) ".join(["ret *"] * 1200) + ")\n",
    "demonic-chain": " /\\ ".join(["produce (ret *)"] * 1200) + "\n",
    "wide-pswitch": "pswitch[F V unit] 1 {"
                    + " | ".join(["produce (ret *)"] * 700) + "}\n",
}


@pytest.mark.parametrize("command", ["check", "run", "eval", "expand", "trace"])
@pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
def test_deep_input_is_refused_without_a_traceback(tmp_path, capsys, shape,
                                                   command):
    p = tmp_path / "deep.cbpv"
    p.write_text(DEEP_INPUTS[shape])
    code, _out, err = run_cli(capsys, [command, str(p)])
    assert code == EXIT_PARSE
    assert err == "error: input nested too deeply\n"
    assert "Traceback" not in err


def test_check_deep_nesting(tmp_path, capsys):
    def nested(depth):
        return ("produce * to x : unit in (" * depth + "produce (ret *)"
                + ")" * depth + "\n")

    p = tmp_path / "deep.cbpv"
    p.write_text(nested(100))
    code, out, _err = run_cli(capsys, ["check", str(p)])
    assert code == EXIT_OK and "ok:" in out
    p.write_text(nested(300))
    code, _out, err = run_cli(capsys, ["check", str(p)])
    assert code == EXIT_PARSE
    assert "parse error at line 1, column" in err
    assert "input nested too deeply" in err


def test_pif_threshold_limit(tmp_path, capsys):
    from cbpvdp.surface import PIF_MAX_THRESHOLD

    branches = "1 (produce (ret *)) (produce (ret *))\n"
    at = tmp_path / "at.cbpv"
    at.write_text(f"pif[{PIF_MAX_THRESHOLD}] {branches}")
    for cmd in ("check", "run", "eval", "expand", "trace"):
        code, _out, err = run_cli(capsys, [cmd, str(at)])
        assert (code, err) == (EXIT_OK, ""), cmd
    # A threshold this large once unfolded into as many nodes and never
    # returned; now it is refused at the pif token.
    for n in (PIF_MAX_THRESHOLD + 1, 99999999999999999999):
        over = tmp_path / "over.cbpv"
        over.write_text(f"pif[{n}] {branches}")
        code, _out, err = run_cli(capsys, ["run", str(over)])
        assert code == EXIT_PARSE
        assert f"line 1, column 1: pif threshold {n} exceeds" in err


def test_run_human(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["run", coin_file])
    assert code == EXIT_OK
    assert "lower bound 1/2" in out
    assert "interval [1/2, 1/2]" in out
    assert "exact" in out


def test_run_epsilon_zero_geometric_is_exact(tmp_path, capsys):
    # Once a RecursionError traceback; the closed graph solves to 1.
    p = tmp_path / "geo.cbpv"
    p.write_text("produce (rec u : V unit. (ret * (+) u))\n")
    code, out, err = run_cli(capsys, ["--format", "records", "--epsilon", "0",
                                      "--max-budget", "100000", "run", str(p)])
    assert (code, err) == (EXIT_OK, "")
    fields = dict(ln.split("=", 1) for ln in out.splitlines() if ln)
    assert (fields["lower"], fields["upper"], fields["exact"]) == \
        ("1", "1", "true")


def test_run_records(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["--format", "records", "run", coin_file])
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln]
    fields = dict(ln.split("=", 1) for ln in lines)
    assert fields["lower"] == "1/2"
    assert fields["upper"] == "1/2"
    assert fields["exact"] == "true"
    assert fields["lower_decimal"] == "0.500000"


def test_run_with_trace(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["run", coin_file, "--trace"])
    assert code == EXIT_OK
    assert "start" in out
    assert "init-produce" in out
    assert "split-pchoice" in out
    assert "lower bound 1/2" in out


def test_run_reads_stdin(capsys):
    code, out, _ = run_cli(capsys, ["run", "-"], stdin_text=COIN)
    assert code == EXIT_OK
    assert "lower bound 1/2" in out


def test_eval_reports_value_and_mass(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["eval", coin_file])
    assert code == EXIT_OK
    assert "must{dist{1/2 @ tt}}" in out
    assert "guaranteed mass 1/2" in out


def test_eval_records_fields(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["--format", "records", "eval", coin_file])
    assert code == EXIT_OK
    fields = dict(ln.split("=", 1) for ln in out.splitlines() if ln)
    assert fields["mass"] == "1/2"
    assert fields["exact"] == "true"


def test_eval_rec_depth_flag(tmp_path, capsys):
    p = tmp_path / "geo.cbpv"
    p.write_text("produce (rec u : V unit. (ret * (+) u))\n")
    code, out, _ = run_cli(capsys, ["--rec-depth", "3", "eval", str(p)])
    assert code == EXIT_OK
    assert "7/8" in out
    assert "approximant" in out


def test_eval_recursion_capturing_its_iterate_twice(tmp_path, capsys):
    # Each iterate holds two closures over the previous one; at the default
    # depth of 64 this finishes only if a closure's key does not grow with
    # what its environment holds.
    p = tmp_path / "twice.cbpv"
    p.write_text("produce (rec p : U (int -> F V unit) * U (int -> F V unit)."
                 " (thunk (\\x : int. force (pi1 p) x),"
                 " thunk (\\x : int. force (pi2 p) x)))\n")
    code, out, _ = run_cli(capsys, ["--format", "records", "eval", str(p)])
    assert code == EXIT_OK
    fields = dict(ln.split("=", 1) for ln in out.splitlines() if ln)
    assert fields["value"] == "must{(<function>, <function>)}"
    assert fields["exact"] == "false"


def test_expand_elaborates_arrow_sequencing(tmp_path, capsys):
    p = tmp_path / "eta.cbpv"
    p.write_text(
        "produce * to x : unit in \\y : int. produce (ret *)\n")
    code, out, _ = run_cli(capsys, ["expand", str(p)])
    assert code == EXIT_OK
    # elaboration pushes sequencing under a fresh lambda
    assert out.startswith("(\\")
    assert "to x : unit in" in out
    assert ": (int -> F V unit)" in out


def test_trace_command(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["trace", coin_file])
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("start")
    assert any(ln.startswith("split-pchoice") for ln in out.splitlines())


def test_trace_records(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["--format", "records", "trace", coin_file])
    assert code == EXIT_OK
    assert "rule=start" in out
    assert "rule=split-pchoice" in out


def test_adequacy_command(capsys):
    code, out, _ = run_cli(capsys, [
        "--max-budget", "20000", "adequacy", "--count", "15",
        "--max-depth", "5"])
    assert code == EXIT_OK
    assert "total: 15" in out
    assert "exact-match" in out


def test_adequacy_records(capsys):
    code, out, _ = run_cli(capsys, [
        "--format", "records", "--max-budget", "20000",
        "adequacy", "--count", "5", "--max-depth", "4"])
    assert code == EXIT_OK
    assert "total=5" in out
    assert out.count("verdict=") == 5
    assert out.count("op_upper=") == 5


def test_adequacy_show_terms(capsys):
    code, out, _ = run_cli(capsys, [
        "--max-budget", "20000", "adequacy", "--count", "6",
        "--max-depth", "4", "--show-terms"])
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert [ln[:6] for ln in lines] == [f"[{i:4d}]" for i in range(6)]
    for ln in lines:
        verdict = ln[6:].split()[0]
        assert verdict in ("exact-match", "convergent", "inconclusive")
        assert " op=" in ln and " den=" in ln and "produce" in ln
    assert "total: 6" in out
    code, out, _ = run_cli(capsys, [
        "--format", "records", "--max-budget", "20000", "adequacy",
        "--count", "3", "--max-depth", "4", "--show-terms"])
    assert code == EXIT_OK
    assert out.count("verdict=") == 3 and out.count("term=") == 3


def test_adequacy_options_reach_the_campaign(capsys, monkeypatch):
    from cbpvdp import harness

    checks, policies = [], []
    check = harness.adequacy_check

    def recording_check(term, **kwargs):
        checks.append(kwargs)
        return check(term, **kwargs)

    class RecordingGen(harness.TermGen):
        def __init__(self, policy):
            policies.append(policy)
            super().__init__(policy)

    monkeypatch.setattr(harness, "adequacy_check", recording_check)
    monkeypatch.setattr(harness, "TermGen", RecordingGen)
    code, out, _ = run_cli(capsys, [
        "--seed", "3", "--max-budget", "5000", "--epsilon", "1/1000",
        "--rec-depth", "5",
        "adequacy", "--count", "4", "--max-depth", "4",
        "--rec-probability", "0.5", "--omega-weight", "2"])
    assert code == EXIT_OK
    assert "total: 4" in out
    assert [p for p in policies] == [harness.GenPolicy(
        max_depth=4, seed=3, rec_probability=0.5, omega_weight=2)]
    assert checks == [dict(epsilon=Fraction(1, 1000), max_budget=5000,
                           rec_depth=5)] * 4


def test_adequacy_defaults_reach_the_campaign(capsys, monkeypatch):
    from cbpvdp import densem, harness

    checks = []
    check = harness.adequacy_check
    monkeypatch.setattr(harness, "adequacy_check", lambda term, **kw: (
        checks.append(kw) or check(term, **kw)))
    code, _out, _ = run_cli(capsys, ["--max-budget", "5000", "adequacy",
                                     "--count", "2", "--max-depth", "3"])
    assert code == EXIT_OK
    assert [kw["rec_depth"] for kw in checks] == \
        [densem.DEFAULT_REC_DEPTH] * 2


def test_parser_defaults_are_the_library_defaults(monkeypatch):
    from cbpvdp import densem, opsem
    from cbpvdp.cli import build_parser
    for name in ("EPSILON", "MAX_BUDGET", "REC_DEPTH"):
        monkeypatch.delenv(f"CBPVDP_{name}", raising=False)
    args = build_parser().parse_args(["check", "-"])
    assert args.epsilon == opsem.DEFAULT_EPSILON
    assert args.max_budget == opsem.DEFAULT_MAX_BUDGET
    assert args.rec_depth == densem.DEFAULT_REC_DEPTH


def test_adequacy_violation_is_reported(capsys, monkeypatch):
    from cbpvdp import harness

    def violating(term, **kwargs):
        return harness.AdequacyReport(term, Fraction(1), True, Fraction(1, 2),
                                      True, "violation", "both exact yet 1 != 1/2")

    monkeypatch.setattr(harness, "adequacy_check", violating)
    code, out, err = run_cli(capsys, ["adequacy", "--count", "2",
                                      "--max-depth", "3"])
    assert code == EXIT_SEMANTIC
    assert "violation: 2" in out
    assert err.count("violation: both exact yet 1 != 1/2") == 2
    assert err.count("op_lower=1 (exact=True) den_mass=1/2 (exact=True)") == 2
    assert err.count("  term: ") == 2


def test_fuzz_command(capsys):
    code, out, _ = run_cli(capsys, ["fuzz", "--count", "20",
                                    "--max-depth", "5"])
    assert code == EXIT_OK
    assert "fuzz: 20/20 ok" in out


def test_fuzz_reports_a_configuration_that_does_not_type(capsys, monkeypatch):
    from cbpvdp import opsem
    from cbpvdp.syntax import EMPTY_CTX, NumLit

    def ill_typed(cfg):
        return opsem.Det(opsem.Configuration(EMPTY_CTX, NumLit(1)), "bad")

    monkeypatch.setattr(opsem, "step", ill_typed)
    code, out, err = run_cli(capsys, ["--format", "records", "fuzz",
                                      "--count", "3", "--max-depth", "4"])
    assert code == EXIT_SEMANTIC
    assert "fuzz case 0 failed: expected type F V unit, found int" in err
    assert err.count("  term: ") == 3
    assert "ok=0" in out.splitlines()
    assert "total=3" in out.splitlines()


def test_seed_changes_fuzz_corpus(capsys):
    argv = ["fuzz", "--count", "8", "--max-depth", "5", "--print-terms"]
    _c, out_a, _ = run_cli(capsys, ["--seed", "1"] + argv)
    _c, out_b, _ = run_cli(capsys, ["--seed", "2"] + argv)
    _c, out_a2, _ = run_cli(capsys, ["--seed", "1"] + argv)
    assert out_a == out_a2
    assert out_a != out_b


def test_env_overrides(coin_file, capsys, monkeypatch):
    monkeypatch.setenv("CBPVDP_FORMAT", "records")
    code, out, _ = run_cli(capsys, ["run", coin_file])
    assert code == EXIT_OK
    assert "lower=1/2" in out


def test_env_rec_depth(tmp_path, capsys, monkeypatch):
    p = tmp_path / "geo.cbpv"
    p.write_text("produce (rec u : V unit. (ret * (+) u))\n")
    monkeypatch.setenv("CBPVDP_REC_DEPTH", "2")
    code, out, _ = run_cli(capsys, ["eval", str(p)])
    assert code == EXIT_OK
    assert "3/4" in out


def test_flag_beats_env(coin_file, capsys, monkeypatch):
    monkeypatch.setenv("CBPVDP_FORMAT", "records")
    code, out, _ = run_cli(capsys, ["--format", "human", "run", coin_file])
    assert code == EXIT_OK
    assert "lower bound 1/2" in out


@pytest.mark.parametrize("name,flag", [("MAX_BUDGET", "--max-budget"),
                                       ("REC_DEPTH", "--rec-depth"),
                                       ("SEED", "--seed")])
def test_env_bad_int_is_usage_error(coin_file, capsys, monkeypatch, name,
                                    flag):
    monkeypatch.setenv(f"CBPVDP_{name}", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["run", coin_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid int value: 'abc'" in err
    assert "Traceback" not in err


def test_env_bad_format_is_usage_error(coin_file, capsys, monkeypatch):
    monkeypatch.setenv("CBPVDP_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        main(["run", coin_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CBPVDP_FORMAT: invalid choice: 'xml'" in captured.err
    # A flag on the command line still wins over the bad variable.
    code, out, _ = run_cli(capsys, ["--format", "records", "run", coin_file])
    assert code == EXIT_OK
    assert "lower=1/2" in out


def test_env_valid_int_acts_like_the_flag(tmp_path, capsys, monkeypatch):
    # A graph that never closes, so the budget decides the answer.
    p = tmp_path / "open.cbpv"
    p.write_text("produce (rec u : V unit. "
                 "(ret * (+) (do x : unit <- u in u)))\n")
    argv = ["--format", "records", "--epsilon", "0", "run", str(p)]
    code, by_flag, _ = run_cli(capsys, ["--max-budget", "100"] + argv)
    assert code == EXIT_OK
    monkeypatch.setenv("CBPVDP_MAX_BUDGET", "100")
    code, by_env, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert by_env == by_flag
    assert "exact=false" in by_env
    code, larger, _ = run_cli(capsys, ["--max-budget", "200"] + argv)
    assert larger != by_env


# Numeric flags that cannot be negative, with the subcommand they belong
# to (None for a global flag) and a bad value of each.
BAD_NUMBERS = [
    (None, "--max-budget", "-5", "must not be negative, got -5"),
    (None, "--rec-depth", "-1", "must not be negative, got -1"),
    (None, "--epsilon", "-1", "must not be negative, got -1"),
    (None, "--epsilon", "-1/2", "must not be negative, got -1/2"),
    (None, "--max-budget", "-1/2", "invalid int value: '-1/2'"),
    ("adequacy", "--count", "-1", "must not be negative, got -1"),
    ("adequacy", "--max-depth", "-2", "must not be negative, got -2"),
    ("adequacy", "--omega-weight", "-3", "must not be negative, got -3"),
    ("adequacy", "--rec-probability", "7", "must be between 0 and 1, got 7"),
    ("adequacy", "--rec-probability", "-0.5",
     "must be between 0 and 1, got -0.5"),
    ("adequacy", "--rec-probability", "nan",
     "must be between 0 and 1, got nan"),
    ("fuzz", "--count", "-1", "must not be negative, got -1"),
    ("fuzz", "--max-depth", "-1", "must not be negative, got -1"),
    ("trace", "--max-steps", "-1", "must not be negative, got -1"),
]


@pytest.mark.parametrize("command,flag,value,message", BAD_NUMBERS)
def test_nonsense_numbers_are_usage_errors(coin_file, capsys, command, flag,
                                           value, message):
    if command is None:
        argv = [flag, value, "run", coin_file]
    else:
        argv = [command, flag, value] + ([coin_file] if command == "trace"
                                         else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: {message}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name,flag,value", [("MAX_BUDGET", "--max-budget", "-5"),
                                             ("REC_DEPTH", "--rec-depth", "-1"),
                                             ("EPSILON", "--epsilon", "-1/2")])
def test_env_nonsense_numbers_are_usage_errors(coin_file, capsys, monkeypatch,
                                               name, flag, value):
    monkeypatch.setenv(f"CBPVDP_{name}", value)
    with pytest.raises(SystemExit) as exc:
        main(["run", coin_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must not be negative, got {value}" in err


def test_boundary_numbers_are_accepted(coin_file, capsys):
    code, out, _ = run_cli(capsys, ["--max-budget", "0", "--epsilon", "0",
                                    "--rec-depth", "0", "--format", "records",
                                    "run", coin_file])
    assert code == EXIT_OK
    assert "steps=0" in out.splitlines()
    for p in ("0", "1"):
        code, out, _ = run_cli(capsys, ["adequacy", "--count", "1",
                                        "--max-depth", "0",
                                        "--rec-probability", p])
        assert code == EXIT_OK and "total: 1" in out
    code, out, _ = run_cli(capsys, ["fuzz", "--count", "0"])
    assert code == EXIT_OK and "fuzz: 0/0 ok" in out


def test_epsilon_flag_parses_fractions(coin_file, capsys):
    code, _out, _ = run_cli(capsys, ["--epsilon", "1/1000", "run", coin_file])
    assert code == EXIT_OK
    with pytest.raises(SystemExit):
        main(["--epsilon", "nonsense", "run", coin_file])


def test_console_script_is_wired(coin_file, monkeypatch):
    """The `cbpvdp` console script is declared, resolves to `main`, and runs.

    The declaration and its target are checked in every checkout; the
    installed entry-point metadata only where a `cbpvdp` distribution exists
    (after `pip install`).
    """
    import importlib
    import importlib.metadata as md
    from pathlib import Path

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        declared = tomllib.load(f)["project"]["scripts"]["cbpvdp"]
    assert declared == "cbpvdp.cli:main"

    module_name, _, attr = declared.partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert target is main
    # A generated console script calls the target with no arguments.
    monkeypatch.setattr(sys, "argv", ["cbpvdp", "check", coin_file])
    assert target() == EXIT_OK

    try:
        md.distribution("cbpvdp")
    except md.PackageNotFoundError:
        return
    scripts = md.entry_points().select(group="console_scripts", name="cbpvdp")
    assert any(e.value == declared and e.load() is main for e in scripts)
