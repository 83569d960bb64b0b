"""Byte-identity of command outputs against recorded SHA-256 digests.

A change that only makes the program faster must not move a byte of
what it prints or writes, and verify output is byte-identical for one
file and seed.  Each case runs one command in process and compares the
digests of its stdout, its stderr and the CSV it writes with recorded
ones.  A case with a recorded CSV digest runs with --out; a solve case
without one writes its CSV to stdout, so its stdout digest covers it.
The bytes also depend on numpy's FFT and transcendental kernels, so a
numpy upgrade may move them; otherwise a failing case means an output
changed, which a change must explain or undo.
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
PROBLEMS |= {
    # unit16's exact solution, and border16x12's g on its non-dyadic grid
    "unit16-exact": PROBLEMS["unit16"] + "u_exact = sin(pi*x)*sin(pi*y) + 1 + x*y\n",
    "border16x12-exact": PROBLEMS["border16x12"] + "u_exact = x^2 - y^2 + sin(y)\n",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EMPTY = sha256(b"")

# (command, problem, extra arguments) -> digests of stdout, stderr and
# the CSV written with --out (None for a case run without --out)
GOLDEN = {
    ("solve", "skewed37x23", ()): (
        EMPTY,
        "d371b749f6007642519103306428600acc6a050c7b42793cf42b50d1c3a604f2",
        "eac227c4f1d331d0f4df9e1a603ee39d887de017aee946469ad84b4e190e3196",
    ),
    ("solve", "border16x12", ()): (
        EMPTY,
        "ba30f9193e666358d1c6116077227e524e798dd58975f59e7a780de04ffb33cc",
        "c4c89bf78f59293ac1a677fab5dbc954d07933d312a9467157bee4782d6d69f2",
    ),
    ("solve", "strip40x4", ()): (
        EMPTY,
        "8b3064e0295d682a6325b6c36dc93c51c31979661bfc03675efac8ee52f1922b",
        "5c14aded76fb2c1eb582568decbdae53257c063d6154568198f22369b2123457",
    ),
    ("solve", "unit16", ()): (
        "98376bbe018286db7700fcadc3eff882af29ecad88c6486ca39257d02655f840",
        "75360c27e04c0284b5fc37a39f4df836f8cd970ce507391351bf9e8b1189bdab",
        None,
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
    ("convergence", "unit16-exact", ("--levels", "3")): (
        "e49990c44ff39a2001449792f3f058bc99882930e3cace7558a25d103dcd4dfb",
        EMPTY,
        "3da097ca74cb238b9de49dc69eea0fe6b4a219331a4916ae219d5447f05610fa",
    ),
    ("convergence", "border16x12-exact", ("--levels", "3")): (
        "b97e3cd7a7fd137afdd1b8f6315aca99acc9c718aa6269370e5110d50727e393",
        EMPTY,
        "afb5fce67cd756e44e7578758e52d95c2f3a592fd12ce36def1c5d71169716d6",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_outputs_keep_their_bytes(case, tmp_path, capsysbinary):
    command, problem, extra = case
    spec = tmp_path / "problem.txt"
    spec.write_text(PROBLEMS[problem], encoding="utf-8")
    argv = [command, "--spec", str(spec), *extra]
    csv = tmp_path / "field.csv"
    writes_csv = GOLDEN[case][2] is not None
    if writes_csv:
        argv += ["--out", str(csv)]
    assert main(argv) == 0
    out, err = capsysbinary.readouterr()
    written = sha256(csv.read_bytes()) if writes_csv else None
    assert (sha256(out), sha256(err), written) == GOLDEN[case]
