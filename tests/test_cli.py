"""End-to-end command line behavior via subprocess."""

import subprocess
import sys

import numpy as np
import pytest

from tests.conftest import cli_env

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
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = x\n")
    out = str(tmp_path / "field.csv")
    proc = run_cli("solve", "--spec", spec, "--out", out)
    assert proc.returncode == 0
    assert proc.stdout == ""
    for key in (
        "energy",
        "weak_residual",
        "norm_l2",
        "norm_grad",
        "norm_w12",
        "poincare_a",
        "stability_lhs",
        "stability_rhs",
        "cg_iterations",
    ):
        assert key in proc.stderr, key
    with open(out, "r", encoding="utf-8") as handle:
        table = read_csv(handle.read())
    assert table.shape == (25, 5)


def test_border_mode_matches_extension(tmp_path):
    common = BASE + "f = 1\ng = x*y\n"
    ext = write(tmp_path, "ext.txt", common)
    border = write(tmp_path, "border.txt", common + "mode = border\n")
    u_ext = read_csv(run_cli("solve", "--spec", ext).stdout)[:, 3]
    u_border = read_csv(run_cli("solve", "--spec", border).stdout)[:, 3]
    assert np.max(np.abs(u_ext - u_border)) <= 1e-8


def test_verify_passes_and_is_deterministic(tmp_path):
    spec = write(
        tmp_path, "p.txt", BASE + "f = sin(pi*x)*sin(pi*y)\ng = 0.5*x\nseed = 11\n"
    )
    first = run_cli("verify", "--spec", spec, binary=True)
    second = run_cli("verify", "--spec", spec, binary=True)
    assert first.returncode == 0
    assert all(
        line.startswith(b"PASS") for line in first.stdout.splitlines() if line
    )
    assert first.stdout == second.stdout


def test_verify_seed_flag_overrides(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\nseed = 1\n")
    with_flag = run_cli("verify", "--spec", spec, "--seed", "1", binary=True)
    from_file = run_cli("verify", "--spec", spec, binary=True)
    assert with_flag.returncode == from_file.returncode == 0
    assert with_flag.stdout == from_file.stdout


def test_poincare_hand_value(tmp_path):
    spec = write(tmp_path, "p.txt", "domain = 0 0 1 1\ngrid = 2 2\nf = 0\ng = 0\n")
    proc = run_cli("poincare", "--spec", spec)
    assert proc.returncode == 0
    fields = dict(part.split("=") for part in proc.stdout.split())
    assert float(fields["lambda_min"]) == pytest.approx(32.0, rel=1e-9)
    assert float(fields["a"]) == pytest.approx(0.176777, rel=1e-4)
    assert int(fields["iterations"]) >= 1


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
        (BASE + "f = 1\ng = 0\nseed = -1\n", 1, "line 5: seed: must be non-negative"),
    ],
)
def test_error_exit_codes(tmp_path, content, code, fragment):
    spec = write(tmp_path, "p.txt", content)
    proc = run_cli("solve", "--spec", spec)
    assert proc.returncode == code
    assert fragment in proc.stderr


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


def test_verify_rejects_negative_seed_flag(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\n")
    proc = run_cli("verify", "--spec", spec, "--seed", "-1")
    assert proc.returncode == 1
    assert "--seed must be non-negative" in proc.stderr


def test_missing_file_is_io_error(tmp_path):
    proc = run_cli("solve", "--spec", str(tmp_path / "absent.txt"))
    assert proc.returncode == 3


def test_convergence_needs_u_exact(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\n")
    proc = run_cli("convergence", "--spec", spec)
    assert proc.returncode == 1
    assert "u_exact" in proc.stderr


def test_convergence_rejects_bad_levels(tmp_path):
    spec = write(tmp_path, "p.txt", BASE + "f = 1\ng = 0\nu_exact = 0\n")
    proc = run_cli("convergence", "--spec", spec, "--levels", "0")
    assert proc.returncode == 1
