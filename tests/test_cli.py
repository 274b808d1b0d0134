"""The command-line front end: output formats, exit codes, determinism."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from oreelim import FieldCtx, field_new, make_rings, modres, parse_ore_poly
from oreelim.cli import _find_acceptance_tests, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_eliminate_example():
    """The README's first `ore-elim eliminate` command line and the output
    lines commented under it."""
    lines = README.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("ore-elim eliminate"))
    shown = []
    for line in lines[at + 1 :]:
        if not line.startswith("# "):
            break
        shown.append(line[2:])
    return shlex.split(lines[at])[1:], shown


def test_readme_eliminate_example_prints_what_it_shows(capsys):
    argv, shown = readme_eliminate_example()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(shown) == 3
    assert re.sub(r"micros=\d+", "micros=...", out).splitlines() == shown


def test_readme_json_example_matches_the_cli(capsys):
    argv, _ = readme_eliminate_example()
    shown = json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S)[1])
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    for doc in (shown, payload):
        for result in doc["results"].values():
            assert isinstance(result.pop("micros"), int)
    assert payload == shown


def test_eliminate_classical_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "eliminate", "--field", "GF(5)", "--f", "x2 - x1", "--g", "x2 - 2",
    )
    assert code == 0
    assert "eliminant=x1 + 3" in out
    assert "degree=1" in out
    assert "agree=true" in out


def test_eliminate_common_factor_reports_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "eliminate", "--field", "GF(2^2)", "--sigma1", "1", "--sigma2", "1",
        "--f", "(x2 + 1)*(x2 + x1)", "--g", "(x2 + t)*(x2 + x1)",
    )
    assert code == 0
    assert "is_zero=true" in out
    assert "eliminant=0" in out


def test_eliminate_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "eliminate", "--field", "GF(5)", "--f", "x2 - x1", "--g", "x2 - 2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "GF(5; modulus = t)"
    assert payload["agree"] is True
    for method in ("direct", "modular"):
        r = payload["results"][method]
        assert set(r) == {"eliminant", "degree", "is_zero", "micros"}
        assert r["eliminant"] == "x1 + 3"


def test_eliminate_text_output_reparses(capsys):
    code, out, _ = run_cli(
        capsys,
        "eliminate", "--field", "GF(2^2)", "--sigma1", "1", "--sigma2", "1",
        "--f", "(x1 + t)*x2^2 + x2 + 1", "--g", "x2 + x1", "--method", "direct",
    )
    assert code == 0
    text = out.splitlines()[0].split("eliminant=")[1].split(" degree=")[0]
    ring = make_rings(field_new(2, 2), 1, 1)
    parse_ore_poly(text, ring.inner, var="x1")


def test_eliminate_single_method(capsys):
    code, out, _ = run_cli(
        capsys,
        "eliminate", "--field", "GF(5)", "--f", "x2 - x1", "--g", "x2 - 2",
        "--method", "modular",
    )
    assert code == 0
    assert "method=modular" in out and "method=direct" not in out
    assert "agree" not in out


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eliminate", "--field", "GF(5)", "--f", "x2 ++ 1", "--g", "x2",
    )
    assert code == 3
    assert "error[parse-error]" in err


@pytest.mark.parametrize(
    "field, f",
    [("GF(5)", "x2 - x1^\u00b2"), ("GF(5^\u00b2)", "x2 - x1"), ("GF(5)", "x2 - \u0663")],
)
def test_non_ascii_digit_is_a_parse_error(capsys, field, f):
    code, out, err = run_cli(capsys, "eliminate", "--field", field, "--f", f, "--g", "x2 - 2")
    assert (code, out) == (3, "")
    assert err.startswith("error[parse-error]: unexpected character")


@pytest.mark.parametrize("f", ["x2\x1c+ 1", "x2\u3000+ 1"])
def test_non_ascii_space_is_a_parse_error(capsys, f):
    code, out, err = run_cli(capsys, "eliminate", "--field", "GF(5)", "--f", f, "--g", "x2 - 2")
    assert (code, out) == (3, "")
    assert err.startswith("error[parse-error]: unexpected character")


def test_math_domain_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eliminate", "--field", "GF(5)", "--f", "3", "--g", "4",
    )
    assert code == 4
    assert "error[both-constant]" in err


def test_modular_both_constant_exit_code(capsys):
    # the modular route triangularizes before it plans, so it reports the
    # direct route's error
    code, _, err = run_cli(
        capsys, "eliminate", "--field", "GF(5)", "--f", "3", "--g", "4",
        "--method", "modular",
    )
    assert code == 4
    assert err.startswith("error[both-constant]")


def test_field_order_cap_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eliminate", "--field", "GF(2^63)", "--f", "x2", "--g", "x2 + 1",
    )
    assert code == 4
    assert err.startswith("error[degree-mismatch]")


def test_working_field_may_exceed_the_input_domain(capsys):
    # D = 64 plans GF(2^72); only the input field is capped at 2^63
    code, out, err = run_cli(
        capsys, "eliminate", "--field", "GF(2^8)", "--sigma1", "1", "--sigma2", "1",
        "--f", "x1^4*x2^8 + x2 + x1", "--g", "x1^4*x2^8 + x1^3*x2^2 + 1",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "agree=true"


def test_usage_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "eliminate", "--field", "GF(5)")
    assert code == 2
    code, _, err = run_cli(
        capsys, "bench", "--field", "GF(5)", "--trials", "0",
    )
    assert code == 2
    assert "--trials" in err
    for flag, value in (("--deg-x1", "-1"), ("--deg-x2", "-1"), ("--deg-x2", "0")):
        code, out, err = run_cli(
            capsys, "bench", "--field", "GF(7)", "--trials", "1", flag, value,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error[usage]:") and flag in err


def test_bench_csv_format_and_determinism(capsys):
    args = (
        "bench", "--field", "GF(2^2)", "--sigma1", "1", "--sigma2", "1",
        "--trials", "3", "--deg-x1", "1", "--deg-x2", "1", "--seed", "9",
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["trial", "method", "micros", "degree", "is_zero", "verdict"]
    assert len(rows) == 1 + 2 * 3  # one row per trial per method
    assert {r[1] for r in rows[1:]} == {"direct", "modular"}
    assert all(r[5] == "ok" for r in rows[1:])
    # timings differ between runs, everything else is deterministic
    strip = lambda text: [r[:2] + r[3:] for r in list(csv.reader(io.StringIO(text)))]
    assert strip(out1) == strip(out2)


def test_bench_respects_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("ORE_ELIM_SEED", "77")
    args = ("bench", "--field", "GF(2^2)", "--sigma1", "1", "--trials", "2",
            "--deg-x1", "1", "--deg-x2", "1")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    strip = lambda text: [r[:2] + r[3:] for r in list(csv.reader(io.StringIO(text)))]
    assert strip(out1) == strip(out2)


def test_bench_rejects_non_integer_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("ORE_ELIM_SEED", "abc")
    code, out, err = run_cli(
        capsys, "bench", "--field", "GF(2^2)", "--sigma1", "1", "--trials", "1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error[usage]: ORE_ELIM_SEED")


def test_threads_flag_output_identical(capsys):
    base = (
        "eliminate", "--field", "GF(2^8)", "--sigma1", "1", "--sigma2", "1",
        "--f", "(x1 + t)*x2^2 + t*x1*x2 + 1", "--g", "x2 - x1^2",
        "--method", "modular", "--json",
    )
    code, out1, _ = run_cli(capsys, *base)
    code2, out2, _ = run_cli(capsys, *base, "--threads", "4")
    assert code == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1["results"]["modular"].pop("micros")
    r2["results"]["modular"].pop("micros")
    assert r1 == r2


def test_verify_locates_acceptance_suite():
    assert _find_acceptance_tests() is not None


def test_inconsistent_chain_is_internal_error(capsys, monkeypatch):
    # a chain value with one digit flipped is no chain value of a base-field
    # eliminant: recovery refuses it, exit code 5
    chain = modres.chain_evaluate
    monkeypatch.setattr(modres, "chain_evaluate", lambda diag, plan: chain(diag, plan) ^ 1)
    code, _, err = run_cli(
        capsys,
        "eliminate", "--field", "GF(2^2)", "--sigma1", "1", "--sigma2", "1",
        "--f", "x1^2*x2 + x1", "--g", "x1^2*x2 + 1", "--method", "modular",
    )
    assert code == 5
    assert err.startswith("error[singular-moore-system]: chain values are inconsistent")


def test_a_division_pass_that_makes_no_progress_is_an_internal_error(
    capsys, monkeypatch
):
    # a row sum that drops its second operand is a fault in the arithmetic:
    # triangularization stops at the elimination loop's progress check, exit code 5
    tables = field_new(3, 4).byte_tables()
    broken = tables._replace(adder=lambda nbytes: lambda x, y: x)
    monkeypatch.setattr(FieldCtx, "byte_tables", lambda ctx: broken)
    code, _, err = run_cli(
        capsys,
        "eliminate", "--field", "GF(3^4)", "--sigma1", "1", "--sigma2", "2",
        "--f", "x1^2*x2 + x1", "--g", "x1*x2^2 + 1", "--method", "direct",
    )
    assert code == 5
    assert err.startswith(
        "error[internal]: AssertionError('division pass made no progress')"
    )
