"""CLI surface: parsing, output formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from pnfield.cli import main


def run_cli(args):
    """Run in-process, captured; returns (exit_code, stdout)."""
    import contextlib
    import io

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse exits
            code = exc.code
    return code, buf.getvalue()


def test_field_info_examples(capsys):
    code, out = run_cli(["field-info", "--field", "2^1:2"])
    assert code == 0
    assert "Phi_q(x^n - 1) = 2" in out
    assert "phi(q^n - 1) = 2" in out
    code, out = run_cli(["field-info", "--field", "3^1:2"])
    assert code == 0
    assert "Phi_q(x^n - 1) = 4" in out
    assert "phi(q^n - 1) = 4" in out


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "pnfield.cli", "field-info", "--field", "banana"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "position" in proc.stderr


def test_verify_small_range(tmp_path):
    out_path = tmp_path / "report.txt"
    code, _ = run_cli(["verify", "--range", "4..16", "--seed", "3",
                       "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "[FAIL]" not in text
    assert "[REPORTED]" in text
    assert text.strip().endswith("0 fail")


def test_verify_reports_at_least_three_discrepancies(tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify", "--range", "4..64", "--seed", "3",
                       "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == "pnfield/1"
    assert payload["summary"]["FAIL"] == 0
    assert payload["summary"]["REPORTED"] >= 3


def test_verify_empty_range(tmp_path):
    out_path = tmp_path / "empty.txt"
    code, _ = run_cli(["verify", "--range", "6..5", "--seed", "1", "--out", str(out_path)])
    assert code == 0
    assert "summary: 0 asserted-pass" in out_path.read_text()


def test_verify_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli(["verify", "--range", "4..32", "--seed", "42",
                           "--format", "json", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(["sweep", "--range", "2..5,2..4", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "q,k,n,numPrimitive,numNormal,numPN,predicted,delta"
    assert len(lines) == 13  # 12 rows: q in {2,3,4,5} x n in {2,3,4}
    assert any(ln.startswith("2,1,2,2,2,2,") for ln in lines)


def test_sweep_budget(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pnfield.cli", "sweep", "--range", "2..2,2..30",
         "--budget", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_bad_budget_variable_is_named(monkeypatch, capsys):
    monkeypatch.setenv("PNFIELD_BUDGET", "abc")
    code, _ = run_cli(["verify", "--range", "4..8"])
    assert code == 2
    assert "error: PNFIELD_BUDGET must be an integer, got 'abc'" in capsys.readouterr().err


def test_search_json(tmp_path):
    out_path = tmp_path / "search.json"
    code, _ = run_cli([
        "search", "--field", "2^1:8",
        "--subset", '{"kind":"heightBox","d":2,"H":1}',
        "--out", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == "pnfield/1"
    assert payload["kind"] == "search"
    assert payload["subsetSize"] == 7
    assert payload["hit"] == bool(payload["witnesses"])
    assert payload["opCount"] > 0


def test_search_is_charged_for_its_subset_not_the_field():
    # q^n = 2^40 is far above the default budget; the box has 7 members
    code, out = run_cli([
        "search", "--field", "2^1:40",
        "--subset", '{"kind":"heightBox","d":2,"H":1}',
    ])
    assert code == 0
    assert json.loads(out)["subsetSize"] == 7
    proc = subprocess.run(
        [sys.executable, "-m", "pnfield.cli", "search", "--field", "2^1:40",
         "--budget", "2", "--subset", '{"kind":"explicit","elements":[1,2,3]}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_search_explicit_subset():
    code, out = run_cli([
        "search", "--field", "2^1:2",
        "--subset", '{"kind":"explicit","elements":["0,1"]}',
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["hit"] is True
    assert payload["witnessTexts"] == ["0,1"]


def test_search_on_f2_exits_2_naming_the_threshold_bound():
    # log 2 < 1, so loglog 2 is not real; F_3 is the smallest field with a threshold
    err = _cli_exit_2(["search", "--field", "2^1:1", "--subset", '{"kind":"explicit","elements":[1]}'])
    assert err == "error: field 2^1:1: the threshold needs q^n ≥ 3 (loglog q^n > 0)\n"
    code, out = run_cli(["search", "--field", "3^1:1", "--subset", '{"kind":"explicit","elements":[1,2]}'])
    assert code == 0 and json.loads(out)["witnesses"] == [2]


def test_conjecture_flags():
    code, out = run_cli([
        "conjecture", "--field", "3^1:2", "--element", "1,1",
        "--range", "2..8", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    rows = {r["n"]: r for r in payload["rows"]}
    assert set(rows) == set(range(2, 9))
    for n in (3, 5, 7):
        assert rows[n]["present"] is False
    for n in (2, 4, 6, 8):
        assert rows[n]["present"] is True
        assert rows[n]["primitiveNormal"] == (rows[n]["primitive"] and rows[n]["normal"])
    assert rows[2]["primitiveNormal"] is True  # τ of F_9 is primitive normal


def test_conjecture_hypothesis_violations():
    # α = 1 violates the hypotheses by name
    proc = subprocess.run(
        [sys.executable, "-m", "pnfield.cli", "conjecture", "--field", "3^1:2",
         "--element", "1,0", "--range", "2..4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "α = 1" in proc.stderr or "hypothesis" in proc.stderr
    # a square: τ² has even discrete log
    proc = subprocess.run(
        [sys.executable, "-m", "pnfield.cli", "conjecture", "--field", "3^1:2",
         "--element", "0,1", "--range", "2..4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_conjecture_home_root_is_the_least_orbit_member():
    # the first root of the minimal polynomial in the home field is the least
    # member of the Frobenius orbit, which the home row now takes directly
    from pnfield.cli import _minimal_polynomial
    from pnfield.field import get_field
    from pnfield.polyfq import poly_eval

    for p, k, n in [(2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 2, 2), (2, 2, 3)]:
        ctx = get_field(p, k, n)
        for a in range(1, ctx.order):
            min_poly, orbit = _minimal_polynomial(ctx, a)
            scan = next(b for b in ctx.elements() if poly_eval(ctx, min_poly, b) == 0)
            assert min(orbit) == scan, (p, k, n, a)


def test_conjecture_home_row_above_the_table_cap():
    # 5^10 elements: the home row no longer scans for the first root
    proc = subprocess.run(
        [sys.executable, "-m", "pnfield.cli", "conjecture", "--field", "5^1:10",
         "--element", "3,3,0,0,4,1,0,4,2,0", "--range", "10..10"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "10,True,True,True,True,43"


@pytest.mark.parametrize("command,rng,form", [
    ("conjecture", "5", "range must be LO..HI"),
    ("conjecture", "2..x", "range must be LO..HI"),
    ("verify", "4..x", "range must be LO..HI or HI (meaning 4..HI)"),
    ("verify", "x", "range must be LO..HI or HI (meaning 4..HI)"),
])
def test_bad_range_names_the_expected_form(command, rng, form):
    args = [command, "--range", rng]
    if command == "conjecture":
        args += ["--field", "3^1:2", "--element", "1,1"]
    err = _cli_exit_2(args)
    assert f"usage error: {form}" in err


def _cli_exit_2(args):
    """Run in a fresh interpreter that must exit 2 within 60 s; its stderr."""
    proc = subprocess.run([sys.executable, "-m", "pnfield.cli", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    return proc.stderr


@pytest.mark.parametrize("field", ["5^1:10", "3^1:15"])
def test_conjecture_square_test_above_the_table_cap(field):
    # both fields are above the table cap: Euler's criterion needs no logs
    n = field.split(":")[1]
    err = _cli_exit_2(["conjecture", "--field", field, "--element", "1,1",
                       "--range", f"{n}..{n}"])
    assert "α is a square" in err


@pytest.mark.parametrize("field,rng,degree", [("3^1:2", "2..16", 16), ("3^1:24", "24..24", 24)])
def test_conjecture_checks_the_budget_before_any_work(field, rng, degree):
    err = _cli_exit_2(["conjecture", "--field", field, "--element", "1,1", "--range", rng])
    assert f"extension degree {degree} exceeds budget" in err


def test_sweep_stops_at_the_table_cap():
    # 2^21 is within the default budget but above the table cap
    err = _cli_exit_2(["sweep", "--range", "2..2,21..21"])
    assert "table cap" in err


@pytest.mark.parametrize("args,message", [
    (["search", "--field", "2^1:8", "--subset", '{"kind":"heightBox"}'], "needs the key 'd'"),
    (["search", "--field", "2^1:8", "--subset", '{"kind":"hammingBall"}'], "needs the key 'H'"),
    (["search", "--field", "2^1:8", "--subset", '{"kind":"explicit"}'], "needs the key 'elements'"),
    (["search", "--field", "2^1:8", "--subset", "[1, 2]"], "must be an object"),
    (["search", "--field", "2^1:8", "--subset", "@/no/such/dir/subset.json"],
     "/no/such/dir/subset.json"),
    (["sweep", "--range", "2..2,2..3", "--out", "/no/such/dir/x.csv"], "/no/such/dir/x.csv"),
])
def test_bad_subset_and_unwritable_out_exit_2(args, message):
    err = _cli_exit_2(args)
    assert message in err and "Traceback" not in err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pnfield.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "field-info" in proc.stdout
