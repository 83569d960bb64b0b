"""Paired benchmark runs of two checkouts, written to one JSON file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base DIR [--change DIR] --out BENCH_N.json \
        --run WORKLOAD:FIRST-LAST [--run ...]

Each side is a checkout holding perfbench/ and src/ (make the base with
``git archive REV | tar -x -C DIR``); --change defaults to this
repository.  For every workload and seed, the script runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``
in each checkout, with S the ``run_seconds`` of BENCHMARK.json, one after
the other, and alternates which side goes first from pair to pair, so a
drift of the host's speed does not favour one side.  Each workload then
gets one --trace 1 run per side at seed TRACED_SEED, whose per-layer
metrics hold the deterministic counters.  It only invokes
perfbench/run.py and reads the JSON object on the last line of its
stdout.

The file holds each side's src/ digest and line count, every run and,
per workload and end-to-end metric, the median and quartiles of each
side, the number of pairs in which the change was better, with the
direction taken from BENCHMARK.json, worse_beyond_bound: whether
the change's median is worse than the base's by more than the metric's
bound times |base median|, and gain_shown: whether the change was
better in at least nine tenths of the pairs (a tie counts for neither
side) and its median better than the base's by more than the base's
quartile distance q3 - q1.  The script lists the metrics flagged worse
on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
TRACED_SEED = 5


def describe_src(checkout: Path) -> dict:
    """SHA-256 over the package sources, naming what a side ran, and
    their total line count, as wc -l counts lines."""
    digest, lines = hashlib.sha256(), 0
    for path in sorted((checkout / "src").rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(text)
        lines += text.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run", action="append", required=True,
                        metavar="WORKLOAD:FIRST-LAST")
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    runs = []
    for spec in args.run:
        workload, seeds = spec.split(":")
        first, last = (int(s) for s in seeds.split("-"))
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
            if entry["worse_beyond_bound"]:
                print(f"worse beyond bound: {workload} {name} median "
                      f"{entry['base']['median']:.6g} -> {entry['change']['median']:.6g}",
                      file=sys.stderr)
    args.out.write_text(json.dumps({
        "command": f"python3 perfbench/run.py --seconds {seconds:g}",
        "sides": {s: describe_src(c) for s, c in checkouts.items()},
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
