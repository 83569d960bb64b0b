"""Workload inputs, made from a seed, and the checks on their outputs.

Each workload writes its problem files into a work directory, computes
its references with ``reference`` (outside any timing) and lists its CLI
commands.  ``batch`` workloads run all commands in one process; the
others run one command per fresh process.  ``check`` raises CheckFailed
on a wrong output and otherwise returns the command's contribution to
``result_error``, which ``result_error`` reduces over a run.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import reference

WEAK_RESIDUAL_BOUND = 1e-8  # verify's weak-residual bound for tight solves


class CheckFailed(Exception):
    """A command's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _problem_text(domain, grid, f, g, mode="extension", u_exact=None) -> str:
    lines = [
        "domain = " + " ".join(repr(float(v)) for v in domain),
        f"grid = {grid[0]} {grid[1]}",
        f"f = {f}",
        f"g = {g}",
        f"mode = {mode}",
    ]
    if u_exact is not None:
        lines.append(f"u_exact = {u_exact}")
    return "\n".join(lines) + "\n"


def _report_value(stderr: str, key: str) -> float:
    match = re.search(rf"^{key}\s*=\s*(\S+)", stderr, re.MULTILINE)
    _require(match is not None, f"no {key} line in the report")
    return float(match.group(1))


def _read_field(path: Path, system: reference.P1System) -> np.ndarray:
    """Field values of a solve's CSV, after checking its node rows.

    The file is removed, so a later command that writes none fails.
    """
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    finally:
        path.unlink(missing_ok=True)
    n = system.x.size
    _require(rows.shape == (n, 5), f"field CSV has shape {rows.shape}, want ({n}, 5)")
    _require(np.array_equal(rows[:, 0], np.arange(n)), "node indices out of order")
    _require(
        np.allclose(rows[:, 1], system.x, rtol=0, atol=1e-12)
        and np.allclose(rows[:, 2], system.y, rtol=0, atol=1e-12),
        "node coordinates differ from the structured grid",
    )
    _require(
        np.array_equal(rows[:, 4] == 1, ~system.interior), "boundary flags are wrong"
    )
    return rows[:, 3]


class Workload:
    batch = False
    error_floor: float

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.commands: list[list[str]] = []

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def check(self, index: int, result: dict) -> float:
        _require(result["code"] == 0, f"exit code {result['code']}: {result['stderr'][-300:]}")
        try:
            return self._check(index, result)
        except (ValueError, IndexError, OSError) as exc:
            raise CheckFailed(f"unreadable output: {exc}") from exc

    def result_error(self, errors: list[float]) -> float:
        return max(max(errors), self.error_floor)


class Solve256(Workload):
    """CLI solve on a 256x256 unit square with a known exact field."""

    error_floor = 1e-12
    n = 256

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        spec = self._write("solve256.txt", _problem_text(
            (0, 0, 1, 1), (self.n, self.n),
            "2*pi^2*sin(pi*x)*sin(pi*y)", "x*y",
        ))
        self.out = self.workdir / "solve256.csv"
        self.commands = [["solve", "--spec", spec, "--out", str(self.out)]]
        self.system = reference.p1_system(0, 0, 1, 1, self.n, self.n)
        x, y = self.system.x, self.system.y
        self.u_exact = np.sin(np.pi * x) * np.sin(np.pi * y) + x * y

    def _check(self, index, result):
        u = _read_field(self.out, self.system)
        residual = _report_value(result["stderr"], "weak_residual")
        _require(residual <= WEAK_RESIDUAL_BOUND, f"weak_residual {residual:.3e}")
        boundary = ~self.system.interior
        _require(
            np.array_equal(u[boundary], self.system.x[boundary] * self.system.y[boundary]),
            "boundary values differ from g",
        )
        # The leading nodal error term here is (pi^2 / 12) h^2.
        error = float(np.max(np.abs(u - self.u_exact)))
        bound = 1.0 / self.n**2
        _require(error <= bound, f"max nodal error {error:.3e} > {bound:.3e}")
        return error


VERIFY_CHECKS = (
    "square-identity", "strict-minimum", "energy-reduction", "dual-bound",
    "uniqueness", "poincare-bound", "functional-bound", "stability-bound",
    "linearity", "extension-invariance", "weak-residual", "reassembly-determinism",
)
_MEASURED_VS_TOL = re.compile(r"=(\S+) tol=(\S+)$")


class Verify64(Workload):
    """CLI verify on a 64x64 unit square with nonzero g, at the bench seed.

    result_error is the largest share of its tolerance that any check
    printing one uses, floored at 1%.
    """

    error_floor = 0.01

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        spec = self._write("verify64.txt", _problem_text(
            (0, 0, 1, 1), (64, 64), "2*pi^2*sin(pi*x)*sin(pi*y)", "1 + x*y",
        ))
        self.commands = [["verify", "--spec", spec, "--seed", str(seed)]]
        self.first_stdout: str | None = None

    def _check(self, index, result):
        stdout = result["stdout"]
        if self.first_stdout is None:
            self.first_stdout = stdout
        _require(stdout == self.first_stdout, "verify output differs for one seed")
        lines = stdout.splitlines()
        names = tuple(line.split(":")[0].split(" ", 1)[-1] for line in lines)
        _require(names == VERIFY_CHECKS, f"unexpected checks {names}")
        _require(all(line.startswith("PASS ") for line in lines), "a check failed")
        shares = [0.0]
        for line in lines:
            match = _MEASURED_VS_TOL.search(line)
            if match:
                shares.append(abs(float(match.group(1))) / float(match.group(2)))
        return max(shares)


class PoincareStrip(Workload):
    """CLI poincare on the elongated strip [0,10]x[0,1], 320x32 cells."""

    error_floor = 1e-10
    domain = (0, 0, 10, 1)
    grid = (320, 32)

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        spec = self._write("strip.txt", _problem_text(self.domain, self.grid, "1", "0"))
        self.commands = [["poincare", "--spec", spec]]
        self.lambda_ref = reference.smallest_eigenvalue(
            reference.p1_system(*self.domain, *self.grid)
        )

    def _check(self, index, result):
        match = re.fullmatch(
            r"lambda_min=(\S+) a=(\S+) iterations=(\d+)\n", result["stdout"]
        )
        _require(match is not None, f"bad poincare output {result['stdout']!r}")
        lam, a = float(match.group(1)), float(match.group(2))
        error = abs(lam - self.lambda_ref) / self.lambda_ref
        _require(error <= 1e-6, f"lambda off by {error:.3e} relative")
        a_ref = 1.0 / np.sqrt(self.lambda_ref)
        _require(a <= a_ref * (1 + 1e-9), f"a={a!r} exceeds the reference {a_ref!r}")
        return error


def _coef(rng, low, high) -> float:
    return round(float(rng.uniform(low, high)), 3)


def _family(kind: str, rng):
    """(u text, f text, u(x, y), f(x, y)) of one manufactured field; f = -lap u."""
    if kind == "affine":
        a, b, c = (_coef(rng, -2, 2) for _ in range(3))
        return (f"({a}) + ({b})*x + ({c})*y", "0",
                lambda x, y: a + b * x + c * y, lambda x, y: 0.0 * x)
    if kind == "sine":
        a, b = _coef(rng, 0.5, 3), _coef(rng, 0.5, 3)
        k = a * a + b * b
        return (f"sin({a}*x)*sin({b}*y)", f"{k!r}*sin({a}*x)*sin({b}*y)",
                lambda x, y: np.sin(a * x) * np.sin(b * y),
                lambda x, y: k * np.sin(a * x) * np.sin(b * y))
    if kind == "harmonic":
        a = _coef(rng, 0.3, 1.5)
        return (f"exp({a}*x)*cos({a}*y)", "0",
                lambda x, y: np.exp(a * x) * np.cos(a * y), lambda x, y: 0.0 * x)
    if kind == "quadratic":
        a, b, c = (_coef(rng, -1, 1) for _ in range(3))
        return (f"({a})*x^2 + ({b})*y^2 + ({c})*x*y", f"{-2 * (a + b)!r}",
                lambda x, y: a * x**2 + b * y**2 + c * x * y,
                lambda x, y: -2 * (a + b) + 0.0 * x)
    if kind == "cubic":
        a, b = _coef(rng, -1, 1), _coef(rng, -1, 1)
        return (f"({a})*(x^3 - 3*x*y^2) + ({b})", "0",
                lambda x, y: a * (x**3 - 3 * x * y**2) + b, lambda x, y: 0.0 * x)
    # "expsum"
    a, b = _coef(rng, -1, 1), _coef(rng, -1, 1)
    k = -(a * a + b * b)
    return (f"exp(({a})*x + ({b})*y)", f"({k!r})*exp(({a})*x + ({b})*y)",
            lambda x, y: np.exp(a * x + b * y),
            lambda x, y: k * np.exp(a * x + b * y))


class SmallBatch(Workload):
    """About forty short seeded commands in one process.

    The seed draws six meshes (domain corners, sizes and an aspect
    ratio in [0.8, 1.25]; the square grids are a fixed set), the
    coefficients of every manufactured field, each command's mesh, its
    mode and the order of the batch.  The number of commands of each kind is fixed, so a
    batch costs about the same for every seed.  result_error is the
    largest deviation of an affine-data case from its data, relative
    to max(1, |g|) and floored at 1e-9; border-mode cases reach about
    1e-10 through the solver tolerance alone.
    """

    batch = True
    error_floor = 1e-9
    GRIDS = ((8, 8), (12, 12), (16, 16), (20, 20), (24, 24), (32, 32))
    SOLVE_KINDS = ("affine", "sine", "harmonic", "quadratic", "cubic", "expsum")
    SOLVES_PER_KIND = 6
    CONVERGENCE = (("sine", (8, 8)), ("expsum", (8, 8)),
                   ("sine", (16, 16)), ("expsum", (16, 16)))
    LEVELS = 3
    FIELD_TOLERANCE = 1e-8  # relative to max(1, |u|): iterative vs direct solve

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        rng = np.random.default_rng(seed)
        domains = []
        for _ in self.GRIDS:
            x0, y0 = _coef(rng, -1, 1), _coef(rng, -1, 1)
            width = _coef(rng, 0.5, 2)
            height = round(width * _coef(rng, 0.8, 1.25), 3)
            domains.append((x0, y0, x0 + width, y0 + height))
        grids = [self.GRIDS[k] for k in rng.permutation(len(self.GRIDS))]
        meshes = list(zip(domains, grids))
        cases = []
        for kind in self.SOLVE_KINDS:
            for _ in range(self.SOLVES_PER_KIND):
                domain, grid = meshes[len(cases) % len(meshes)]
                cases.append(("solve", kind, domain, grid))
        for k, (kind, grid) in enumerate(self.CONVERGENCE):
            cases.append(("convergence", kind, domains[k], grid))
        self.cases = []
        self.systems: dict[tuple, reference.P1System] = {}
        for i in rng.permutation(len(cases)):
            command, kind, domain, grid = cases[i]
            u_text, f_text, u_fn, f_fn = _family(kind, rng)
            mode = "border" if rng.random() < 0.3 else "extension"
            n = len(self.cases)
            spec = self._write(f"case{n:02d}.txt", _problem_text(
                domain, grid, f_text, u_text, mode,
                u_text if command == "convergence" else None,
            ))
            case = {"command": command, "kind": kind, "u": u_fn}
            if command == "solve":
                out = self.workdir / f"case{n:02d}.csv"
                case["out"] = out
                case["system"] = self._system(domain, grid)
                case["u_ref"] = reference.discrete_solution(case["system"], f_fn, u_fn)
                argv = ["solve", "--spec", spec, "--out", str(out)]
            else:
                case["levels"] = [
                    self._level_errors(domain, (grid[0] << lv, grid[1] << lv), f_fn, u_fn)
                    for lv in range(self.LEVELS)
                ]
                argv = ["convergence", "--spec", spec, "--levels", str(self.LEVELS)]
            self.cases.append(case)
            self.commands.append(argv)

    def _system(self, domain, grid) -> reference.P1System:
        key = (domain, grid)
        if key not in self.systems:
            self.systems[key] = reference.p1_system(*domain, *grid)
        return self.systems[key]

    def _level_errors(self, domain, grid, f_fn, u_fn):
        system = reference.p1_system(*domain, *grid)
        diff = reference.discrete_solution(system, f_fn, u_fn) - u_fn(system.x, system.y)
        return grid, float(np.max(np.abs(diff))), float(np.sqrt(diff @ (system.M @ diff)))

    def _check(self, index, result):
        case = self.cases[index]
        if case["command"] == "convergence":
            return self._check_convergence(case, result["stdout"])
        system = case["system"]
        u = _read_field(case["out"], system)
        residual = _report_value(result["stderr"], "weak_residual")
        _require(residual <= WEAK_RESIDUAL_BOUND, f"weak_residual {residual:.3e}")
        g = case["u"](system.x, system.y) * np.ones_like(system.x)
        boundary = ~system.interior
        _require(
            np.allclose(u[boundary], g[boundary], rtol=1e-14, atol=1e-14),
            "boundary values differ from g",
        )
        u_ref = case["u_ref"]
        scale = max(1.0, float(np.max(np.abs(u_ref))))
        deviation = float(np.max(np.abs(u - u_ref))) / scale
        _require(
            deviation <= self.FIELD_TOLERANCE,
            f"{case['kind']} field deviates {deviation:.3e} from the direct solve",
        )
        if case["kind"] != "affine":
            return 0.0
        # Affine data is reproduced exactly (criterion 4 of test_acceptance.py).
        exact = float(np.max(np.abs(u - g))) / max(1.0, float(np.max(np.abs(g))))
        _require(exact <= 1e-8, f"affine data reproduced only to {exact:.3e}")
        return exact

    def _check_convergence(self, case, stdout):
        rows = [line.split() for line in stdout.splitlines()[1:]]
        _require(len(rows) == self.LEVELS, f"convergence table has {len(rows)} rows")
        for row, (grid, max_ref, l2_ref) in zip(rows, case["levels"]):
            _require(row[0] == f"{grid[0]}x{grid[1]}", f"unexpected grid {row[0]}")
            max_error, l2_error = float(row[2]), float(row[4])
            _require(
                abs(max_error - max_ref) <= 1e-4 * max_ref + 1e-9
                and abs(l2_error - l2_ref) <= 1e-4 * l2_ref + 1e-9,
                f"errors {max_error:.6e}, {l2_error:.6e} at {row[0]} differ "
                f"from the reference {max_ref:.6e}, {l2_ref:.6e}",
            )
        return 0.0


WORKLOADS = {
    "solve-256": Solve256,
    "verify-64": Verify64,
    "poincare-strip": PoincareStrip,
    "small-batch": SmallBatch,
}
