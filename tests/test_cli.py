"""End-to-end command line behavior via subprocess."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import cli_env
from tests.test_verify import EXPECTED_CHECKS

BASE = "domain = 0 0 1 1\ngrid = 4 4\n"


def run_cli(*args, cwd=None, binary=False):
    return subprocess.run(
        [sys.executable, "-m", "dirichlet_fem", *args],
        capture_output=True,
        text=not binary,
        cwd=cwd,
        env=cli_env(),
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "node_index,x,y,u,is_boundary"
    return np.array([[float(p) for p in ln.split(",")] for ln in lines[1:]])


def test_solve_zero_problem(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 0\ng = 0\n")
    proc = run_cli("solve", "--spec", spec)
    assert proc.returncode == 0
    table = read_csv(proc.stdout)
    assert table.shape == (25, 5)
    assert np.all(table[:, 3] == 0.0)


def test_solve_hand_oracle(tmp_path):
    spec = write(tmp_path, "p.txt", "domain = 0 0 1 1\ngrid = 2 2\nf = 1\ng = 0\n")
    proc = run_cli("solve", "--spec", spec)
    assert proc.returncode == 0
    table = read_csv(proc.stdout)
    center = table[(table[:, 1] == 0.5) & (table[:, 2] == 0.5)]
    assert center.shape[0] == 1
    assert center[0, 3] == pytest.approx(0.0625, abs=1e-10)


def test_solve_report_contents(tmp_path):
    # every report line is the library's own number on the same file
    from dirichlet_fem import (
        as_function, assemble_system, check_stability, energy, estimate_poincare,
        load_problem, make_data, nodal_values, norm, solve, weak_residual,
    )

    # a grid whose bracket ends differ in the printed digits, so a line
    # taking a for a_hi shows
    text = "domain = 0 0 2 1\ngrid = 12 8\nf = 1\ng = x\n"
    spec = write(tmp_path, "p.txt", text)
    out = str(tmp_path / "field.csv")
    proc = run_cli("solve", "--spec", spec, "--out", out)
    assert proc.returncode == 0
    assert proc.stdout == ""
    problem = load_problem(spec)
    system = assemble_system(problem.mesh)
    A, M, mesh = system.A, system.M, system.mesh
    load, g = make_data(problem, mesh)
    report = solve(system, load, g)
    u = report.u
    est = estimate_poincare(system)
    f_vals = nodal_values(mesh, as_function(problem.f_expr))
    bounds = check_stability(system, u, g, f_vals, est.a_hi)
    expected = {
        "nodes": f"{mesh.node_count} ({mesh.interior_count} interior)",
        "energy": f"{energy(A, load, u):.17g}",
        "weak_residual": f"{weak_residual(system, u, load):.6e}",
        "norm_l2": f"{norm(u, M):.12g}",
        "norm_grad": f"{norm(u, A):.12g}",
        "norm_w12": f"{norm(u, A, M):.12g}",
        "poincare_a": f"{est.a:.12g}",
        "poincare_a_hi": f"{est.a_hi:.12g}",
        "stability_lhs": f"{bounds.lhs:.12g}",
        "stability_rhs": f"{bounds.rhs:.12g}",
        "cg_iterations": f"{report.iterations}",
    }
    assert expected["poincare_a"] != expected["poincare_a_hi"]
    lines = [line.split("=", 1) for line in proc.stderr.splitlines()]
    assert [key.strip() for key, _ in lines] == list(expected)
    assert {key.strip(): value.strip() for key, value in lines} == expected
    with open(out, "r", encoding="utf-8") as handle:
        table = read_csv(handle.read())
    assert table.shape == (117, 5)
    assert np.array_equal(table[:, 3], u)


def test_convergence_makes_no_eigen_estimate(tmp_path, monkeypatch, capsys):
    # the table needs no embedding constant, so convergence never asks
    # for one; solve, whose report prints it, does
    from dirichlet_fem import cli
    from dirichlet_fem.linsolve import ConvergenceError

    def refuse(*args, **kwargs):
        raise ConvergenceError("estimate_poincare called", iterations=0, residual=0.0)

    for name, module in list(sys.modules.items()):
        if name.startswith("dirichlet_fem") and hasattr(module, "estimate_poincare"):
            monkeypatch.setattr(module, "estimate_poincare", refuse)
    for mode in ("extension", "border"):
        text = BASE + f"f = 0\ng = x\nu_exact = x\nmode = {mode}\n"
        spec = write(tmp_path, f"{mode}.txt", text)
        assert cli.main(["convergence", "--spec", spec, "--levels", "2"]) == 0
        assert cli.main(["solve", "--spec", spec]) == 2
        assert "estimate_poincare called" in capsys.readouterr().err


def test_border_mode_matches_extension(tmp_path):
    common = BASE + "f = 1\ng = x*y\n"
    ext = write(tmp_path, "ext.txt", common)
    border = write(tmp_path, "border.txt", common + "mode = border\n")
    u_ext = read_csv(run_cli("solve", "--spec", ext).stdout)[:, 3]
    u_border = read_csv(run_cli("solve", "--spec", border).stdout)[:, 3]
    assert np.max(np.abs(u_ext - u_border)) <= 1e-8


# g is undefined inside the disc of radius sqrt(0.2) about (0.5, 0.5),
# which holds interior nodes of the grid, and defined on the whole border
BORDER_ONLY_G = (
    "domain = 0 0 1 1\ngrid = 8 8\nf = 1\n"
    "g = sqrt((x-0.5)^2 + (y-0.5)^2 - 0.2)\nu_exact = 0\n"
)


def test_every_command_takes_g_on_the_border_only_in_border_mode(tmp_path, capsys):
    from dirichlet_fem import cli

    border = write(tmp_path, "border.txt", BORDER_ONLY_G + "mode = border\n")
    for command in ("solve", "poincare", "convergence", "verify"):
        assert cli.main([command, "--spec", border]) == 0, capsys.readouterr().err
    lines = capsys.readouterr().out.splitlines()[-12:]
    assert [line.split(":")[0] for line in lines] == [f"PASS {n}" for n in EXPECTED_CHECKS]
    extension = write(tmp_path, "extension.txt", BORDER_ONLY_G)
    for command in ("solve", "convergence", "verify"):
        assert cli.main([command, "--spec", extension]) == 2
        assert capsys.readouterr().err == (
            "error: sqrt(-0.04375000000000001) is undefined at (0.375, 0.125)\n")


def test_verify_checks_the_boundary_field_that_solve_takes(tmp_path, monkeypatch, capsys):
    # in border mode g's border values extended by zero, bit for bit
    from dirichlet_fem import cli, load_problem, make_data

    text = ("domain = -0.7 0.3 1.9 2.25\ngrid = 16 12\n"
            "f = 1 + x*y\ng = x^2 - y^2 + sin(y)\nmode = border\n")
    spec = write(tmp_path, "border16x12.txt", text)
    seen = []
    monkeypatch.setattr(cli, "run_checks", lambda *args: seen.append(args) or [])
    assert cli.main(["verify", "--spec", spec, "--seed", "3"]) == 0
    (_, _, g_field, seed), = seen
    problem = load_problem(spec)
    assert g_field.tobytes() == make_data(problem, problem.mesh)[1].tobytes()
    assert seed == 3
    capsys.readouterr()


def test_verify_passes_and_is_deterministic(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = sin(pi*x)*sin(pi*y)\ng = 0.5*x\n")
    first = run_cli("verify", "--spec", spec, binary=True)
    second = run_cli("verify", "--spec", spec, binary=True)
    assert first.returncode == 0
    assert all(
        line.startswith(b"PASS") for line in first.stdout.splitlines() if line
    )
    assert first.stdout == second.stdout


def test_verify_seed_flag_overrides(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\n")
    with_flag = run_cli("verify", "--spec", spec, "--seed", "42", binary=True)
    default = run_cli("verify", "--spec", spec, binary=True)
    assert with_flag.returncode == default.returncode == 0
    assert with_flag.stdout == default.stdout


def test_verify_exits_2_when_any_check_fails(tmp_path, monkeypatch, capsys):
    from dirichlet_fem import CheckResult, cli

    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\n")
    good, bad = CheckResult("x", True, "fine"), CheckResult("y", False, "broke")
    for results, code in (([good, good], 0), ([good, bad], 2), ([], 0)):
        monkeypatch.setattr(cli, "run_checks", lambda *args: results)
        assert cli.main(["verify", "--spec", spec]) == code
    assert capsys.readouterr().out.splitlines()[2:4] == ["PASS x: fine", "FAIL y: broke"]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # every call parses its argv afresh from one table; no call's options
    # reach the next one, nor the table's defaults
    from dirichlet_fem import cli

    defaults = {command: dict(entry[1]) for command, entry in cli._COMMANDS.items()}
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = x*y\n")
    field = tmp_path / "field.csv"
    assert cli.main(["solve", "--spec", spec, "--out", str(field)]) == 0
    written = field.read_bytes()
    capsys.readouterr()
    assert cli.main(["solve", "--spec", spec]) == 0
    assert capsys.readouterr().out.encode() == written == field.read_bytes()
    assert cli.main(["verify", "--spec", spec, "--seed", "3"]) == 0
    seed_3 = capsys.readouterr().out
    assert cli.main(["verify", "--spec", spec]) == 0
    fresh = run_cli("verify", "--spec", spec, "--seed", "42")
    assert capsys.readouterr().out == fresh.stdout != seed_3
    assert {command: entry[1] for command, entry in cli._COMMANDS.items()} == defaults


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_poincare_reads_crlf_and_cr_lines_as_lf(tmp_path, newline):
    text = b"domain = 0 0 2 1\ngrid = 8 4\nf = 0\ng = 0\n"
    plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
    plain.write_bytes(text)
    other.write_bytes(text.replace(b"\n", newline))
    want = run_cli("poincare", "--spec", str(plain), binary=True)
    got = run_cli("poincare", "--spec", str(other), binary=True)
    assert want.returncode == got.returncode == 0
    assert (got.stdout, got.stderr) == (want.stdout, want.stderr)


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "marked"])
def test_a_file_that_is_not_utf8_is_malformed(tmp_path, capsys, mark):
    # the position counts from after a byte-order mark
    from dirichlet_fem import cli

    spec = tmp_path / "p.txt"
    spec.write_bytes(mark + BASE.encode() + b"f = 1\xff\ng = 0\n")
    assert cli.main(["poincare", "--spec", str(spec)]) == 1
    assert capsys.readouterr() == (
        "", "error: 'utf-8' codec can't decode byte 0xff in position 33: invalid start byte\n")


def test_poincare_ignores_a_byte_order_mark(tmp_path):
    text = "domain = 0 0 2 1\ngrid = 8 4\nf = 0\ng = 0\n"
    plain = write(tmp_path, "plain.txt", text)
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    want = run_cli("poincare", "--spec", plain, binary=True)
    got = run_cli("poincare", "--spec", str(marked), binary=True)
    assert want.returncode == got.returncode == 0
    assert (got.stdout, got.stderr) == (want.stdout, want.stderr)


def test_poincare_hand_value(tmp_path):
    spec = write(tmp_path, "p.txt", "domain = 0 0 1 1\ngrid = 2 2\nf = 0\ng = 0\n")
    proc = run_cli("poincare", "--spec", spec)
    assert proc.returncode == 0
    # stdout is one line in a fixed form, which scripts parse
    assert re.fullmatch(
        r"lambda_min=\S+ a=\S+ iterations=\d+\n", proc.stdout
    ), proc.stdout
    fields = dict(part.split("=") for part in proc.stdout.split())
    assert float(fields["lambda_min"]) == pytest.approx(32.0, rel=1e-9)
    assert float(fields["a"]) == pytest.approx(0.176777, rel=1e-4)
    # one interior node: the start vector spans the space and certifies
    assert int(fields["iterations"]) == 0
    # the certified bracket goes to stderr
    bracket = dict(part.split("=") for part in proc.stderr.split())
    assert set(bracket) == {"lambda_lo", "a_hi", "width"}
    assert float(bracket["lambda_lo"]) <= float(fields["lambda_min"])
    assert float(bracket["a_hi"]) >= float(fields["a"])
    assert 0.0 <= float(bracket["width"]) <= 1e-8


def test_convergence_single_level_prints_no_order(tmp_path):
    spec = write(
        tmp_path,
        "p.txt",
        BASE + "f = 2*pi^2*sin(pi*x)*sin(pi*y)\ng = 0\nu_exact = sin(pi*x)*sin(pi*y)\n",
    )
    proc = run_cli("convergence", "--spec", spec, "--levels", "1")
    assert proc.returncode == 0
    rows = proc.stdout.strip().splitlines()
    assert len(rows) == 2  # header plus one level
    assert "4x4" in rows[1]
    assert not any(ch.isdigit() for ch in rows[1].split()[3])  # order column


def test_convergence_affine_is_exact_per_level(tmp_path):
    spec = write(
        tmp_path, "p.txt", BASE + "f = 0\ng = x\nu_exact = x\n"
    )
    proc = run_cli("convergence", "--spec", spec, "--levels", "3")
    assert proc.returncode == 0
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        max_error = float(row.split()[2])
        assert max_error <= 1e-8


def test_convergence_writes_csv(tmp_path):
    spec = write(
        tmp_path,
        "p.txt",
        BASE + "f = 2*pi^2*sin(pi*x)*sin(pi*y)\ng = 0\nu_exact = sin(pi*x)*sin(pi*y)\n",
    )
    out = str(tmp_path / "table.csv")
    proc = run_cli("convergence", "--spec", spec, "--levels", "2", "--out", out)
    assert proc.returncode == 0
    with open(out, "r", encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0] == "nx,ny,h,max_error,l2_error"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "content,code,fragment",
    [
        (BASE + "f = sin(\ng = 0\n", 1, "offset"),
        (BASE + "f = 1\ng = 0\nmode = magic\n", 1, "one of"),
        ("domain = 0 0 1 1\ngrid = 1 1\nf = 1\ng = 0\n", 1, "interior"),
        (BASE + "f = 1/(x-0.125)\ng = 0\n", 2, "division by zero"),
        (
            "domain = 0 0 1 1\ngrid = 100000 100000\nf = 1\ng = 0\n",
            1,
            "10000200001 nodes, over the cap of 1500000",
        ),
        (
            "domain = 0 0 inf 1\ngrid = 4 4\nf = 1\ng = 0\n",
            1,
            "line 1: domain: rectangle corners and extents must be finite",
        ),
        (
            "domain = -1e308 0 1e308 1\ngrid = 4 4\nf = 1\ng = 0\n",
            1,
            "line 1: domain: rectangle corners and extents must be finite",
        ),
        (BASE + "f = 1\ng = 0\nseed = -1\n", 1, "line 5: unknown key 'seed'"),
        (
            "domain = 0 0 1e200 1e200\ngrid = 4 4\nf = 1\ng = 0\n",
            1,
            "grid 4x4 gives cells of 2.5e+199 x 2.5e+199, whose squared sides",
        ),
        (
            "domain = 0 0 1e-200 1e-200\ngrid = 4 4\nf = 1\ng = 0\n",
            1,
            "grid 4x4 gives cells of 2.5e-201 x 2.5e-201, whose squared sides",
        ),
        # grid refusals name the grid line
        (
            "domain = 0 0 1 1\ngrid = 1 4\nf = 1\ng = 0\n",
            1,
            "error: line 2: grid: grid 1x4 leaves no interior degrees of freedom",
        ),
        (
            "domain = 0 0 1 1\ngrid = 2000 2000\nf = 1\ng = 0\n",
            1,
            "error: line 2: grid: grid 2000x2000 has 4004001 nodes, over the cap",
        ),
        (
            "domain = 0 0 1e200 1e200\ngrid = 4 4\nf = 1\ng = 0\n",
            1,
            "error: line 2: grid: grid 4x4 gives cells of 2.5e+199 x 2.5e+199",
        ),
    ],
)
def test_error_exit_codes(tmp_path, content, code, fragment):
    spec = write(tmp_path, "p.txt", content)
    proc = run_cli("solve", "--spec", spec)
    assert proc.returncode == code
    assert fragment in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "text,message",
    [
        (BASE + "f = x*\u0663\ng = 0\n", "line 3: f: unexpected character '\u0663' at offset 2"),
        ("domain = 0 0 1 1\ngrid = \u0664 4\nf = 1\ng = 0\n", "line 2: grid: bad integer"),
        ("domain = 0 0 1 1\ngrid = 1_0 4\nf = 1\ng = 0\n", "line 2: grid: bad integer"),
        ("domain = 0 0 \u0661 1\ngrid = 4 4\nf = 1\ng = 0\n", "line 1: domain: bad number"),
    ],
    ids=["expression", "grid-digit", "grid-separator", "domain-digit"],
)
def test_numbers_other_than_ascii_digits_are_malformed(tmp_path, capsys, text, message):
    from dirichlet_fem import cli

    spec = tmp_path / "p.txt"
    spec.write_text(text, encoding="utf-8")
    assert cli.main(["solve", "--spec", str(spec)]) == 1
    out, err = capsys.readouterr()
    assert (out, err.startswith("error: " + message)) == ("", True), err


@pytest.mark.parametrize(
    "f", ["(" * 1000 + "x" + ")" * 1000, "-" * 1000 + "x"], ids=["parens", "minus"]
)
def test_deep_nesting_is_malformed_without_traceback(tmp_path, f):
    spec = write(tmp_path, "p.txt", BASE + f"f = {f}\ng = 0\n")
    proc = run_cli("solve", "--spec", spec)
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "error: line 3: f: expression nested deeper than 100 levels"
    )
    assert "Traceback" not in proc.stderr


RITZ = "Ritz vector's squared M-norm is "
THRESHOLD = r"residual threshold is not finite: \|\|b\|\| = inf"


@pytest.mark.parametrize("command", ["poincare", "solve", "verify", "convergence"])
@pytest.mark.parametrize("size", ["1e80", "1e100"])
def test_huge_cells_fail_at_runtime_without_traceback(tmp_path, command, size):
    # a well-posed file whose norms overflow: a runtime failure naming
    # the norm, not a crash reported as malformed input; verify and
    # poincare estimate first, solve and convergence solve first
    text = f"domain = 0 0 {size} {size}\ngrid = 4 4\nf = 1\ng = 0\nu_exact = 0\n"
    proc = run_cli(command, "--spec", write(tmp_path, "p.txt", text))
    assert proc.returncode == 2
    message = THRESHOLD if command in ("solve", "convergence") else RITZ
    assert re.search(r"^error: " + message, proc.stderr, re.M)
    assert "Traceback" not in proc.stderr


def test_poincare_certifies_a_fine_square_on_its_start_vector(tmp_path):
    spec = write(tmp_path, "p.txt", "domain = 0 0 1 1\ngrid = 192 192\nf = 0\ng = 0\n")
    proc = run_cli("poincare", "--spec", spec)
    assert proc.returncode == 0
    assert proc.stdout.endswith(" iterations=0\n"), proc.stdout


WIDE = ("error: bracket width 1.050e-02 above 1.000e-08 after 1 Krylov steps, "
        "where the space stopped growing")
RITZ_ZERO = ("error: Ritz vector's squared M-norm is 0.000e+00, not a finite positive "
             "number, after 1 Krylov steps")
THRESHOLD_INF = "error: residual threshold is not finite: ||b|| = inf, ||A|| ||x|| = inf"

# (cell side, command) -> exit code, last stderr line and FAIL lines on a
# 4x4 grid of f = 1 and g = 0 whose squares overflow or underflow, as
# recorded before estimate_poincare tried its start vector's Ritz pair
FLOAT_RANGE = {
    ("1e60", "poincare"): (
        0, "lambda_lo=2.28657759368e-119 a_hi=2.09125517297e+59 width=9.747e-15", []),
    ("1e60", "solve"): (0, "cg_iterations  = 1", []),
    ("1e60", "verify"): (2, "", ["FAIL stability-bound: lhs=inf rhs=4.37335e+178 "
                                 "riesz_lhs=inf riesz_rhs=4.37335e+178"]),
    ("1e80", "poincare"): (2, RITZ_ZERO, []),
    ("1e80", "solve"): (2, THRESHOLD_INF, []),
    ("1e80", "verify"): (2, RITZ_ZERO, []),
    ("1e110", "poincare"): (2, WIDE, []),
    ("1e110", "solve"): (2, THRESHOLD_INF, []),
    ("1e110", "verify"): (2, WIDE, []),
    ("1e154", "poincare"): (2, WIDE, []),
    ("1e154", "solve"): (2, THRESHOLD_INF, []),
    ("1e154", "verify"): (2, WIDE, []),
    ("1e-150", "poincare"): (2, WIDE, []),
    ("1e-150", "solve"): (2, WIDE, []),
    ("1e-150", "verify"): (2, WIDE, []),
}


@pytest.mark.parametrize("case", FLOAT_RANGE, ids="-".join)
def test_float_range_errors_keep_their_messages(tmp_path, case):
    side, command = case
    text = f"domain = 0 0 {side} {side}\ngrid = 4 4\nf = 1\ng = 0\n"
    proc = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-m", "dirichlet_fem",
         command, "--spec", write(tmp_path, "p.txt", text)],
        capture_output=True, text=True, env=cli_env(),
    )
    last = (proc.stderr.splitlines() or [""])[-1]
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert (proc.returncode, last, fails) == FLOAT_RANGE[case]


def test_verify_rejects_negative_seed_flag(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\n")
    proc = run_cli("verify", "--spec", spec, "--seed", "-1")
    assert proc.returncode == 1
    assert "--seed must be non-negative" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["verify"], ["poincare"], ["convergence"],
     ["verify", "--spec", "p.txt", "--out", "f"], [], ["bogus", "--spec", "p.txt"],
     ["--spec", "p.txt", "solve"], ["verify", "--spec", "p.txt", "--seed", "x"],
     ["convergence", "--spec", "p.txt", "--levels", "2.5"], ["solve", "--spec", "p.txt", "--out"],
     ["convergence", "--spec", "p.txt", "--lev", "2"],
     ["verify", "--spec", "p.txt", "--seed", "\u0663"],  # ARABIC-INDIC DIGIT THREE
     ["verify", "--spec", "p.txt", "--seed", "1_0"],
     ["convergence", "--spec", "p.txt", "--levels", "\uff12"]],  # FULLWIDTH DIGIT TWO
    ids=["solve", "verify", "poincare", "convergence", "verify-out", "no-argv", "unknown-command",
         "option-first", "seed-x", "levels-2.5", "out-without-value", "abbreviation",
         "seed-arabic-indic-3", "seed-underscore", "levels-fullwidth-2"],
)
def test_usage_errors_exit_2_with_usage_on_stderr(tmp_path, argv):
    # the grammar refuses these before any file is read
    proc = run_cli(*argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["solve", "-h"]])
def test_help_prints_the_usage_block_on_stdout(argv):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: dirichlet-fem solve ")
    assert len(proc.stdout.splitlines()) == 4


def test_an_option_takes_its_value_after_an_equals_sign(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = x*y\n")
    for spaced, joined in ((["poincare", "--spec", spec], ["poincare", f"--spec={spec}"]),
                           (["verify", "--spec", spec, "--seed", "3"],
                            ["verify", f"--spec={spec}", "--seed=3"])):
        spaced, joined = run_cli(*spaced, binary=True), run_cli(*joined, binary=True)
        assert spaced.returncode == joined.returncode == 0
        assert (joined.stdout, joined.stderr) == (spaced.stdout, spaced.stderr)


def test_a_value_may_start_with_a_dash(tmp_path, capsys):
    from dirichlet_fem import cli

    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\n")
    assert cli.main(["verify", "--spec", spec, "--seed", "-1"]) == 1
    assert cli.main(["solve", "--spec", "--out"]) == 3
    assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n"
                                   "error: [Errno 2] No such file or directory: '--out'\n")


def test_missing_file_is_io_error(tmp_path):
    proc = run_cli("solve", "--spec", str(tmp_path / "absent.txt"))
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["verify", "--seed", "-1"], ["poincare"], ["convergence", "--levels", "0"]],
    ids=["solve", "verify", "poincare", "convergence"],
)
def test_a_bad_file_is_reported_before_the_flags(tmp_path, capsys, argv):
    # every command reads its file first: a missing one exits 3 and a
    # malformed one exits 1 naming its line, before --seed, --levels or
    # the missing u_exact is looked at
    from dirichlet_fem import cli

    absent = str(tmp_path / "absent.txt")
    assert cli.main([argv[0], "--spec", absent, *argv[1:]]) == 3
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")
    malformed = write(tmp_path, "p.txt", BASE + "f = sin(\ng = 0\n")
    assert cli.main([argv[0], "--spec", malformed, *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert (out, err.startswith("error: line 3: f: ")) == ("", True), err


def test_convergence_needs_u_exact(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\n")
    proc = run_cli("convergence", "--spec", spec)
    assert proc.returncode == 1
    assert "u_exact" in proc.stderr


def test_convergence_rejects_bad_levels(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\nu_exact = 0\n")
    proc = run_cli("convergence", "--spec", spec, "--levels", "0")
    assert proc.returncode == 1


@pytest.mark.parametrize("levels", ["12", "1000000000000000000"])
def test_convergence_over_the_node_cap_solves_no_level(tmp_path, monkeypatch, capsys, levels):
    # every level's grid is built before the first solve, so the first
    # grid over the cap (2048^2 from 8^2) ends the command before any
    # table line, however many levels were asked for
    from dirichlet_fem import cli

    spec = write(tmp_path, "p.txt", "domain = 0 0 1 1\ngrid = 8 8\nf = 0\ng = x\nu_exact = x\n")
    monkeypatch.setattr(cli, "assemble_system",
                        lambda mesh: pytest.fail(f"assembled {mesh.nx}x{mesh.ny}"))
    assert cli.main(["convergence", "--spec", spec, "--levels", levels]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid 2048x2048 has 4198401 nodes, over the cap of 1500000\n"


def test_cli_import_loads_no_fft_or_sparse_solver():
    # no scipy module at all: importing scipy.sparse was about half the
    # start-up of every process; the sine transforms use numpy.fft
    code = (
        "import sys, dirichlet_fem.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_command_loads_no_argument_parser_or_codec(tmp_path):
    # argparse with gettext and the utf-8-sig codec cost a fresh process's
    # first command more than poincare's estimate on a 320x32 strip
    spec = write(tmp_path, "p.txt", BASE + "f = 0\ng = 0\n")
    code = f"""
import contextlib, io, sys
from dirichlet_fem import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["poincare", "--spec", {spec!r}])
print(code, [m for m in ("argparse", "gettext", "encodings.utf_8_sig") if m in sys.modules])
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_commands_load_no_numpy_or_scipy_module_after_import(tmp_path):
    # numpy loads numpy.fft, numpy.random and numpy.ma on first use;
    # the package loads what it needs at import, so no command pays
    spec = write(tmp_path, "p.txt", BASE + "f = x\ng = y\nu_exact = x*y\n")
    border = write(tmp_path, "b.txt", BASE + "mode = border\nf = 1\ng = x\nu_exact = x\n")
    code = f"""
import contextlib, io, sys
from dirichlet_fem import cli
before = set(sys.modules)
commands = (
    ["solve", "--spec", {spec!r}],
    ["solve", "--spec", {border!r}],
    ["verify", "--spec", {spec!r}, "--seed", "3"],
    ["poincare", "--spec", {spec!r}],
    ["convergence", "--spec", {spec!r}, "--levels", "2"],
)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in commands]
print(codes, sorted(m for m in set(sys.modules) - before
                    if m.startswith(("numpy.", "scipy"))))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] []"


def test_src_imports_nothing_third_party_but_numpy():
    # scipy is an oracle of the tests and the benchmark, not a dependency
    src = Path(__file__).resolve().parents[1] / "src"
    found = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found - set(sys.stdlib_module_names) == {"numpy"}
