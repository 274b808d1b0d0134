"""The command-line front end: output formats, exit codes, determinism."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

from oreelim import field_new, make_rings, modres, parse_ore_poly
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


def test_usage_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "eliminate", "--field", "GF(5)")
    assert code == 2
    code, _, err = run_cli(
        capsys, "bench", "--field", "GF(5)", "--trials", "0",
    )
    assert code == 2
    assert "--trials" in err
    for flag in ("--deg-x1", "--deg-x2"):
        code, out, err = run_cli(
            capsys, "bench", "--field", "GF(7)", "--trials", "1", flag, "-1",
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


def test_coefficient_outside_base_field_is_internal_error(capsys, monkeypatch):
    def outside(plan, values):
        inverse = plan.embedding.inverse_packed
        return [next(v for v in range(plan.work_ctx.q) if inverse(v) is None)]

    monkeypatch.setattr(modres.ModularPlan, "recover", outside)
    code, _, err = run_cli(
        capsys,
        "eliminate", "--field", "GF(2^2)", "--sigma1", "1", "--sigma2", "1",
        "--f", "x1^2*x2 + x1", "--g", "x1^2*x2 + 1", "--method", "modular",
    )
    assert code == 5
    assert err.startswith("error[coefficient-outside-base-field]")
