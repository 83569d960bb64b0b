"""Paired benchmark runs of two checkouts, written to one JSON file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base DIR [--change DIR] --out BENCH_N.json \
        --run WORKLOAD:FIRST-LAST [--run ...]

Each side is a checkout holding perfbench/ and src/ (make the base with
``git archive REV | tar -x -C DIR``); --change defaults to this
repository.  Every --run is checked before the first run: a spec that
is not WORKLOAD:FIRST-LAST with FIRST <= LAST and a workload of
BENCHMARK.json exits 2, naming it.  For every workload and seed, the
script runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``
in each checkout, with S the ``run_seconds`` of BENCHMARK.json, one after
the other, and alternates which side goes first from pair to pair, so a
drift of the host's speed does not favour one side.  Each workload then
gets one --trace 1 run per side at seed TRACED_SEED, whose per-layer
metrics hold the deterministic counters.  It only invokes
perfbench/run.py and reads the JSON object on the last line of its
stdout.

The file holds each side's src/ digest and line counts (the total and
per file), every run and, per workload and end-to-end metric, the
median and quartiles of each side, the number of pairs in which the
change was better, with the direction taken from BENCHMARK.json,
worse_beyond_bound: whether the change's median is worse than the base's by more than the metric's
bound times |base median|, and gain_shown: whether the change was
better in at least nine tenths of the pairs (a tie counts for neither
side) and its median better than the base's by more than the base's
quartile distance q3 - q1.  Under counters_moved it lists, per workload,
each per-layer metric of BENCHMARK.json with unit count or B whose
traced values differ between the sides, with both values.  Under host
it records the interpreter version, the numpy version and the CPU
count, so files from different hosts or sessions can be told apart.
The script lists the metrics flagged worse, the gains shown and the
moved counters on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SIDES = ("base", "change")
TRACED_SEED = 5


def describe_src(checkout: Path) -> dict:
    """SHA-256 over the package sources, naming what a side ran, and
    their line counts, as wc -l counts lines: the total and per file."""
    digest, by_file = hashlib.sha256(), {}
    for path in sorted((checkout / "src").rglob("*.py")):
        text, name = path.read_bytes(), path.relative_to(checkout).as_posix()
        digest.update(name.encode() + b"\0")
        digest.update(text)
        by_file[name] = text.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": sum(by_file.values()),
            "src_lines_by_file": by_file}


def describe_host() -> dict:
    """The interpreter and numpy versions the runs used, and the CPU count."""
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "cpu_count": os.cpu_count()}


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric of BENCHMARK.json's end_to_end list."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        summary[workload] = {}
        for metric in end_to_end:
            name = metric["name"]
            values = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (c - b) < 0 for b, c in zip(values["base"], values["change"]))
            entry = {"pairs": len(pairs), "change_better": wins}
            for side, vals in values.items():
                q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                entry[side] = {"median": median, "q1": q1, "q3": q3}
            base, change = entry["base"]["median"], entry["change"]["median"]
            entry["worse_beyond_bound"] = sign * (change - base) > metric["bound"] * abs(base)
            spread = entry["base"]["q3"] - entry["base"]["q1"]
            entry["gain_shown"] = 10 * wins >= 9 * len(pairs) and sign * (base - change) > spread
            summary[workload][name] = entry
    return summary


def counters_moved(runs: list[dict], per_layer: list[dict]) -> dict:
    """Per workload, the count and byte metrics whose traced values differ."""
    counters = [m["name"] for m in per_layer if m["unit"] in ("count", "B")]
    moved = {}
    for run in runs:
        if run["trace"] == 1:
            base, change = run["base"]["metrics"], run["change"]["metrics"]
            moved[run["workload"]] = {name: {"base": base.get(name), "change": change.get(name)}
                                      for name in counters if base.get(name) != change.get(name)}
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run", action="append", required=True,
                        metavar="WORKLOAD:FIRST-LAST")
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    benchmark = json.loads(BENCHMARK.read_text())
    seconds = benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    wanted = []
    for spec in args.run:  # every spec is checked before the first run
        match = re.fullmatch(r"([^:]+):(\d+)-(\d+)", spec)
        if not match or match[1] not in names or int(match[2]) > int(match[3]):
            parser.error(f"--run {spec!r}: want WORKLOAD:FIRST-LAST, FIRST <= LAST, "
                         f"with WORKLOAD one of {', '.join(names)}")
        wanted.append((match[1], int(match[2]), int(match[3])))

    runs = []
    for workload, first, last in wanted:
        jobs = [(seed, 0) for seed in range(first, last + 1)] + [(TRACED_SEED, 1)]
        for seed, trace in jobs:
            order = SIDES if len(runs) % 2 == 0 else SIDES[::-1]
            run = {"workload": workload, "seed": seed, "trace": trace, "first": order[0]}
            for side in order:
                run[side] = bench(checkouts[side], workload, seed, seconds, trace)
            runs.append(run)
            print(f"{workload} seed {seed} trace {trace} done", file=sys.stderr)

    summary = summarise(runs, benchmark["end_to_end"])
    for workload, metrics in summary.items():
        for name, entry in metrics.items():
            for flag in ("worse_beyond_bound", "gain_shown"):
                if entry[flag]:
                    print(f"{flag.replace('_', ' ')}: {workload} {name} median "
                          f"{entry['base']['median']:.6g} -> {entry['change']['median']:.6g}, "
                          f"change better in {entry['change_better']} of {entry['pairs']} pairs",
                          file=sys.stderr)
    moved = counters_moved(runs, benchmark["per_layer"])
    for workload, counters in moved.items():
        for name, values in counters.items():
            print(f"counter moved: {workload} {name} {values['base']} -> {values['change']}",
                  file=sys.stderr)
    args.out.write_text(json.dumps({
        "command": f"python3 perfbench/run.py --seconds {seconds:g}",
        "host": describe_host(),
        "sides": {s: describe_src(c) for s, c in checkouts.items()},
        "summary": summary,
        "counters_moved": moved,
        "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
