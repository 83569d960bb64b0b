"""Benchmark of the dirichlet-fem command line, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single closed-loop client runs the workload's CLI commands one at a
time through ``dirichlet_fem.cli.main`` in child processes that import
the package from ``src`` with BLAS/OpenMP threads set to 1.  Every
output is checked against an independent reference (``reference.py``).

Every time in the end-to-end metrics is normalised for host speed.  On
a shared 2-core host, each CPU switches every few seconds between a
fast and a slow state about 1.5x apart, and a whole run can fall in
one, which no estimator over one run's samples removes.  So the
benchmark pins itself and its children to one CPU, where a thread
times two short fixed probes every 50 ms (``hostspeed.py``).  A child's
wall time, an import and a command's in-process time (timed in the
child on the same system-wide clock) are each multiplied by the
reference probe time times the probes' mean speed inside them, so they
read as seconds at a steady reference speed.  The probes never call
the program, so a change to the program moves these times and not the
probes.  Each metric is the median of its normalised samples.
setup_s is timed before every child, so its samples spread over the
run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced children and prints the per-layer metrics of the fastest
traced child, the layer shares of its wall time and the tracing
overhead (fastest traced minus fastest untraced wall).  The spans of
that child are written to .perfbench_out/.  Human-readable lines go first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when the benchmark
ran, whether or not outputs were correct, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_WARMUP = 2  # untimed imports that warm the file cache
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer self times: metric -> span name.
LAYER_TIMES = {
    "mesh.build_s": "mesh.build",
    "mesh.nodal_values_s": "mesh.nodal_values",
    "mesh.eval_p1_s": "mesh.eval_p1",
    "assembly.stiffness_s": "assembly.stiffness",
    "assembly.mass_s": "assembly.mass",
    "assembly.load_s": "assembly.load",
    "assembly.restrict_s": "assembly.restrict",
    "assembly.matvec_s": "assembly.matvec",
    "expr.eval_s": "expr.eval",
    "linsolve.cg_s": "linsolve.cg",
    "analysis.poincare_s": "analysis.poincare",
    "analysis.stability_s": "analysis.stability",
    "analysis.functional_bound_s": "analysis.functional_bound",
    "riesz.represent_s": "riesz.represent",
    "dirichlet.solve_self_s": "dirichlet.solve",
    "verify.run_checks_self_s": "verify.run_checks",
    "problems.parse_s": "problems.parse",
    "problems.csv_write_s": "problems.csv_write",
    "cli.self_s": "cli.main",
}
# Per-layer call counts: name -> span name.
LAYER_CALLS = {
    "mesh.nodal_values_calls": "mesh.nodal_values",
    "mesh.eval_p1_calls": "mesh.eval_p1",
    "assembly.load_calls": "assembly.load",
    "assembly.restrict_calls": "assembly.restrict",
    "assembly.matvec_calls": "assembly.matvec",
    "expr.eval_calls": "expr.eval",
    "linsolve.cg_calls": "linsolve.cg",
    "riesz.represent_calls": "riesz.represent",
    "dirichlet.solve_calls": "dirichlet.solve",
}
# Counters taken from return values by the tracer.
LAYER_COUNTERS = (
    "assembly.nnz", "linsolve.cg_iterations", "analysis.power_steps",
    "dirichlet.cg_iterations", "problems.csv_bytes",
)
LAYERS = ("mesh", "assembly", "expr", "linsolve", "analysis", "riesz",
          "dirichlet", "verify", "problems", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


class Runner:
    """Starts one child at a time and times it from spawn to reap."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.span = (0.0, 0.0)  # start and end of the last child

    def run(self, argv: list[str], tag: str) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child."""
        limit = max(1.0, self.deadline - perf_counter())
        with open(self.workdir / f"{tag}.out", "w") as out, \
                open(self.workdir / f"{tag}.err", "w") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            end = perf_counter()
        self.span = (start, end)
        wall = end - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def job(self, commands: list[list[str]], trace: bool, tag: str):
        """Run commands in one child; returns (wall, rss, child result)."""
        job_path = self.workdir / f"{tag}.job.json"
        result_path = self.workdir / f"{tag}.result.json"
        job_path.write_text(json.dumps({"commands": commands, "trace": trace}))
        argv = [sys.executable, str(Path(__file__).with_name("child.py")),
                str(job_path), str(result_path)]
        code, wall, rss = self.run(argv, tag)
        if code != 0 or not result_path.exists():
            err = (self.workdir / f"{tag}.err").read_text()[-2000:]
            raise RuntimeError(f"benchmark child exited with {code}: {err}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return wall, rss, result

    def import_time(self) -> float:
        """Wall time of a fresh interpreter importing dirichlet_fem.cli."""
        code, wall, _ = self.run([sys.executable, "-c", "import dirichlet_fem.cli"], "setup")
        if code != 0:
            err = (self.workdir / "setup.err").read_text()[-2000:]
            raise RuntimeError(f"importing dirichlet_fem.cli failed: {err}")
        return wall


class Tally:
    """Checks every command of a run and keeps what the checks returned."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []
        self.spans = [[] for _ in workload.commands]  # in-process (start, seconds)

    def add(self, result: dict) -> None:
        for index, command in enumerate(result["commands"]):
            self.attempted += 1
            self.spans[index].append((command["start"], command["seconds"]))
            try:
                self.errors.append(self.workload.check(index, command))
            except workloads.CheckFailed as exc:
                self.failed += 1
                argv = " ".join(self.workload.commands[index])
                print(f"FAILED {argv}: {exc}", file=sys.stderr)

    def per_command(self, monitor: hostspeed.Monitor) -> list[float]:
        """Per command, the median of its normalised in-process times."""
        return [statistics.median(t * monitor.factor(start, start + t) for start, t in spans)
                for spans in self.spans]

    def result_error(self) -> float:
        if not self.errors:
            return 1.0  # no command passed its checks
        return self.workload.result_error(self.errors)


def tail(values: list[float]) -> float:
    """Highest sample with at least ten samples beyond it; else the largest."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]


def layer_sample(summary: dict, wall: float) -> dict:
    """Per-layer metrics of one traced child, whose wall time is given."""
    stats = summary["stats"]
    counters = summary["counters"]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    sample = {metric: self_s(name) for metric, name in LAYER_TIMES.items()}
    for metric, name in LAYER_CALLS.items():
        sample[metric] = stats.get(name, [0])[0]
    for name in LAYER_COUNTERS:
        sample[name] = int(counters.get(name, 0))
    builds = counters.get("mesh.builds", 0)
    sample["mesh.repeat_share"] = counters.get("mesh.repeat_builds", 0) / builds if builds else 0.0
    sample["process.startup_s"] = wall - stats.get("cli.main", [0, 0.0])[1]
    for layer in LAYERS:
        spans = [n for n in stats if n.startswith(layer + ".")]
        sample[f"share.{layer}"] = sum(self_s(n) for n in spans) / wall
    sample["share.startup"] = sample["process.startup_s"] / wall
    return sample


def is_time(metric: str) -> bool:
    return metric.endswith("_s") or metric.startswith("share.")


def unit(metric: str) -> str:
    if metric.startswith("share.") or metric.endswith("_share"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (f"n={len(values)} min={min(values):.4g} q1={q1:.4g} median={q2:.4g} "
            f"q3={q3:.4g} max={max(values):.4g}")


def run_plain(workload, runner, tally, seconds, monitor):
    walls, setup, factors = [], [], []  # normalised walls and imports, speed factors
    raw, rss = [], []  # raw walls for the notes, peak RSS
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        setup.append(runner.import_time() * monitor.factor(*runner.span))
        wall, peak, result = runner.job(workload.commands, False, f"run{len(walls)}")
        factors.append(monitor.factor(*runner.span))
        walls.append(wall * factors[-1])
        raw.append(wall)
        rss.append(peak)
        tally.add(result)
    per_command = tally.per_command(monitor)
    passed = tally.attempted - tally.failed
    return {
        "wall_s": (statistics.median(walls), "s",
                   f"median normalised child wall, {describe(walls)}; raw {describe(raw)}; "
                   f"speed factor {describe(factors)}"),
        "setup_s": (statistics.median(setup), "s", f"median normalised import, {describe(setup)}"),
        "peak_rss_mb": (statistics.median(rss), "MB", f"median child peak, {describe(rss)}"),
        "ok_ratio": (passed / tally.attempted, "ratio",
                     f"{passed} of {tally.attempted} commands passed"),
        "result_error": (tally.result_error(), "1", f"floor {workload.error_floor:g}"),
        "cmd_p50_s": (statistics.median(per_command), "s",
                      f"median over commands of each one's median normalised time, "
                      f"{describe(per_command)}"),
        "cmd_tail_s": (tail(per_command), "s",
                       "highest of those with ten beyond it (else the slowest)"),
    }


def run_traced(workload, runner, tally, seconds, spans_path):
    """Alternate untraced and traced children; report the fastest traced one."""
    plain, traced = [], []  # untraced walls; (wall, layer sample, spans) of traced
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        # Alternate which side runs first, so drift hits both alike.
        for trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            wall, _, result = runner.job(workload.commands, trace, f"t{len(traced)}{int(trace)}")
            tally.add(result)
            if trace:
                summary = result["trace"]
                traced.append((wall, layer_sample(summary, wall), summary["spans"]))
            else:
                plain.append(wall)
    wall, fastest, spans = min(traced, key=lambda t: t[0])
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps(spans))
    metrics = {}
    for name, value in fastest.items():
        values = [t[1][name] for t in traced]
        if is_time(name):
            metrics[name] = (value, unit(name), f"fastest traced run, {describe(values)}")
            continue
        if any(v != value for v in values):
            tally.failed += 1
            print(f"FAILED counter {name} differs between runs: {values}", file=sys.stderr)
        metrics[name] = (value, unit(name), "counter")
    metrics["trace.wall_untraced_s"] = (min(plain), "s", describe(plain))
    metrics["trace.wall_traced_s"] = (wall, "s", describe([t[0] for t in traced]))
    metrics["trace.overhead_s"] = (wall - min(plain), "s", "fastest traced minus fastest untraced")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "dirichlet_fem" / "cli.py").is_file():
        print(f"error: no dirichlet_fem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    # The host-speed probes must share the CPU its children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, deadline)
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        tally = Tally(workload)
        with hostspeed.Monitor() as monitor:
            # These imports warm the file cache before anything is timed.
            for _ in range(SETUP_WARMUP):
                runner.import_time()
            if args.trace:
                spans = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.json"
                metrics = run_traced(workload, runner, tally, args.seconds, spans)
            else:
                metrics = run_plain(workload, runner, tally, args.seconds, monitor)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit_name, note) in metrics.items():
        print(f"{args.workload:15s} {name:28s} {value:.6g} {unit_name:6s} {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_name}
                    for name, (value, unit_name, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
