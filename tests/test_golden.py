"""Byte-identity of command outputs against recorded SHA-256 digests.

A change that only makes the program faster must not move a byte of
what it prints or writes, and verify output is byte-identical for one
file and seed.  Each case runs one command in process and compares the
digests of its stdout, its stderr and, for solve, the written CSV with
recorded ones.  The bytes also depend on numpy's FFT and transcendental
kernels, so a numpy upgrade may move them; otherwise a failing case
means an output changed, which a change must explain or undo.
"""

import hashlib

import pytest

from dirichlet_fem.cli import main

PROBLEMS = {
    "skewed37x23": (
        "domain = -1.0 2.0 3.0 4.5\ngrid = 37 23\n"
        "f = exp(x)*cos(y) + x^2\ng = sin(3*x) + y^2\n"
    ),
    "border16x12": (
        "domain = -0.7 0.3 1.9 2.25\ngrid = 16 12\n"
        "f = 1 + x*y\ng = x^2 - y^2 + sin(y)\nmode = border\n"
    ),
    "strip40x4": "domain = 0 0 10 1\ngrid = 40 4\nf = 1\ng = 0\n",
    "unit16": (
        "domain = 0 0 1 1\ngrid = 16 16\n"
        "f = 2*pi^2*sin(pi*x)*sin(pi*y)\ng = 1 + x*y\n"
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EMPTY = sha256(b"")

# (command, problem, extra arguments) -> digests of stdout, stderr and
# the solve's CSV (None for commands that write none)
GOLDEN = {
    ("solve", "skewed37x23", ()): (
        EMPTY,
        "c7604a73290ee9c4f574607129ae1fd5e62d541ee9e6b87e907766f007dfdf41",
        "a2b26a72ede7e2c13bf1f94266f45ad2974c1ed4710f9f42952feb47bffdcb0d",
    ),
    ("solve", "border16x12", ()): (
        EMPTY,
        "58541b01e1258a742791d3ae76f11f1975631dfe9ec776809f468790faa49c01",
        "b4164d7f74d7c8d1231d54315a49e3c05e3243f8bd1271afd656f1a9e8c1f1b3",
    ),
    ("poincare", "strip40x4", ()): (
        "7b5cf331b69ecac37dc394f2ad26fdaa2ed1174677d8cb7777e135ca598c2848",
        "3f7f2884774eb38ad621044aaacba1105912ff3050b4aa4316821915720c3183",
        None,
    ),
    ("verify", "unit16", ("--seed", "3")): (
        "ff895fc55b3d86e9dab9c10dc9728d489b0c2a11b154dc7bd1a009533e0e8917",
        EMPTY,
        None,
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_outputs_keep_their_bytes(case, tmp_path, capsysbinary):
    command, problem, extra = case
    spec = tmp_path / "problem.txt"
    spec.write_text(PROBLEMS[problem], encoding="utf-8")
    argv = [command, "--spec", str(spec), *extra]
    csv = tmp_path / "field.csv"
    if command == "solve":
        argv += ["--out", str(csv)]
    assert main(argv) == 0
    out, err = capsysbinary.readouterr()
    written = sha256(csv.read_bytes()) if command == "solve" else None
    assert (sha256(out), sha256(err), written) == GOLDEN[case]
