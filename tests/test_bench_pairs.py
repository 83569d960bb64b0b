"""tools/bench_pairs.py: its paired-run summary and moved counters on
hand-made runs, and what it records of each side's sources."""

import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "better": "higher", "bound": 0.01},
]


def runs(workload, base, change):
    """Three untraced pairs and one traced one, each side its metrics."""
    made = [{"workload": workload, "seed": seed, "trace": 0,
             "base": {"metrics": base}, "change": {"metrics": change}}
            for seed in (1, 2, 3)]
    traced = {"metrics": {"wall_s": 100.0, "ok_ratio": 0.0}}
    return made + [{"workload": workload, "seed": 5, "trace": 1,
                    "base": traced, "change": traced}]


def test_summary_flags_a_median_worse_beyond_its_bound():
    summary = bench_pairs.summarise(
        runs("slower30", {"wall_s": 1.0, "ok_ratio": 1.0}, {"wall_s": 1.3, "ok_ratio": 0.98})
        + runs("slower20", {"wall_s": 1.0, "ok_ratio": 1.0}, {"wall_s": 1.2, "ok_ratio": 1.0})
        + runs("faster", {"wall_s": 1.0, "ok_ratio": 0.9}, {"wall_s": 0.5, "ok_ratio": 1.0}),
        END_TO_END,
    )
    flagged = {(w, m) for w, metrics in summary.items()
               for m, entry in metrics.items() if entry["worse_beyond_bound"]}
    assert flagged == {("slower30", "wall_s"), ("slower30", "ok_ratio")}
    entry = summary["slower20"]["wall_s"]
    assert (entry["pairs"], entry["change_better"]) == (3, 0)
    assert (entry["base"]["median"], entry["change"]["median"]) == (1.0, 1.2)
    assert summary["faster"]["ok_ratio"]["change_better"] == 3


def test_gain_shown_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_base_spread():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # quartiles 1.075, 1.325

    def pairs(workload, change):
        return [{"workload": workload, "seed": seed, "trace": 0,
                 "base": {"metrics": {"wall_s": b, "ok_ratio": 1.0}},
                 "change": {"metrics": {"wall_s": c, "ok_ratio": 1.0}}}
                for seed, (b, c) in enumerate(zip(base, change))]

    faster = [b - 0.5 for b in base]
    summary = bench_pairs.summarise(
        pairs("ten-wins", faster)
        + pairs("nine-wins-one-tie", faster[:9] + base[9:])
        + pairs("eight-wins-two-ties", faster[:8] + base[8:])
        + pairs("nine-wins-one-loss", faster[:9] + [base[9] + 5.0])
        + pairs("gap-inside-the-spread", [b - 0.2 for b in base]),
        END_TO_END,
    )
    shown = {w: m["wall_s"]["gain_shown"] for w, m in summary.items()}
    assert shown == {"ten-wins": True, "nine-wins-one-tie": True,
                     "eight-wins-two-ties": False, "nine-wins-one-loss": True,
                     "gap-inside-the-spread": False}
    assert summary["eight-wins-two-ties"]["wall_s"]["change_better"] == 8
    assert not any(m["ok_ratio"]["gain_shown"] for m in summary.values())  # all ties


def test_src_lines_is_the_sum_of_the_package_file_lengths():
    root = TOOL.parents[1]
    files = list((root / "src").rglob("*.py"))
    assert len(files) > 1
    want = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    assert bench_pairs.describe_src(root)["src_lines"] == want


def test_src_lines_by_file_counts_each_package_file(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_bytes(b"x = 1\ny = 2\n")
    (package / "sub" / "b.py").write_bytes(b"z = 3\nno final newline")
    (package / "notes.txt").write_bytes(b"not python\n")
    described = bench_pairs.describe_src(tmp_path)
    assert described["src_lines_by_file"] == {"src/pkg/a.py": 2, "src/pkg/sub/b.py": 1}
    assert described["src_lines"] == 3


def test_counters_moved_lists_the_traced_counts_and_bytes_that_differ():
    per_layer = [{"name": "expr.eval_calls", "unit": "count"},
                 {"name": "problems.csv_bytes", "unit": "B"},
                 {"name": "assembly.nnz", "unit": "count"},
                 {"name": "linsolve.cg_s", "unit": "s"},
                 {"name": "mesh.repeat_share", "unit": "ratio"}]
    base = {"expr.eval_calls": 5, "problems.csv_bytes": 100, "assembly.nnz": 7,
            "linsolve.cg_s": 0.1, "mesh.repeat_share": 0.5}

    def traced(workload, change):
        return {"workload": workload, "seed": 5, "trace": 1,
                "base": {"metrics": base}, "change": {"metrics": {**base, **change}}}

    untraced = {"workload": "moved", "seed": 1, "trace": 0,
                "base": {"metrics": base}, "change": {"metrics": {"assembly.nnz": 8}}}
    moved = bench_pairs.counters_moved(
        [untraced, traced("moved", {"expr.eval_calls": 6, "problems.csv_bytes": 99,
                                    "linsolve.cg_s": 0.2, "mesh.repeat_share": 0.4}),
         traced("flat", {"linsolve.cg_s": 0.3})],
        per_layer,
    )
    assert moved == {
        "moved": {"expr.eval_calls": {"base": 5, "change": 6},
                  "problems.csv_bytes": {"base": 100, "change": 99}},
        "flat": {},
    }


@pytest.fixture
def workload_w(tmp_path, monkeypatch):
    """BENCHMARK.json with one more workload, w, for the hand-made runs of main."""
    benchmark = json.loads(bench_pairs.BENCHMARK.read_text())
    benchmark["workloads"].append({"name": "w", "why": "hand-made runs"})
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", path)


def test_main_writes_the_moved_counters_and_prints_them(tmp_path, monkeypatch, capsys,
                                                        workload_w):
    benchmark = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    base_dir = tmp_path / "base"
    (base_dir / "src").mkdir(parents=True)

    def bench(checkout, workload, seed, seconds, trace):
        metrics = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
        metrics["expr.eval_calls"] = 3 if checkout == base_dir or not trace else 4
        return {"metrics": metrics}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", str(base_dir), "--out", str(out), "--run", "w:1-2"]) == 0
    written = json.loads(out.read_text())
    assert written["counters_moved"] == {"w": {"expr.eval_calls": {"base": 3, "change": 4}}}
    assert "counter moved: w expr.eval_calls 3 -> 4" in capsys.readouterr().err


def test_main_prints_the_gains_shown_and_records_the_host(tmp_path, monkeypatch, capsys,
                                                         workload_w):
    benchmark = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    base_dir = tmp_path / "base"
    (base_dir / "src").mkdir(parents=True)

    def bench(checkout, workload, seed, seconds, trace):
        metrics = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
        metrics["cmd_p50_s"] = 0.05 + 0.001 * seed if checkout == base_dir else 0.04
        return {"metrics": metrics}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", str(base_dir), "--out", str(out), "--run", "w:1-3"]) == 0
    written = json.loads(out.read_text())
    assert written["host"] == {"python": platform.python_version(), "numpy": np.__version__,
                               "cpu_count": os.cpu_count()}
    shown = [m for m, entry in written["summary"]["w"].items() if entry["gain_shown"]]
    assert shown == ["cmd_p50_s"]
    err = capsys.readouterr().err
    assert ("gain shown: w cmd_p50_s median 0.052 -> 0.04, change better in 3 of 3 pairs"
            in err.splitlines())
    assert "worse beyond bound" not in err


@pytest.mark.parametrize("bad", ["small-batch", "small-batch:1-2:3", "no-such-workload:1-2",
                                 "small-batch:5-4", "small-batch:1", "small-batch:x-2",
                                 ":1-2"])
def test_main_checks_every_run_before_the_first(tmp_path, monkeypatch, capsys, bad):
    # a bad spec after a good one would otherwise fail only when its turn
    # came, and every pair run before it would be lost
    def bench(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "bench", bench)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--base", str(tmp_path), "--out", str(out),
                          "--run", "small-batch:1-2", "--run", bad])
    assert info.value.code == 2
    assert f"--run {bad!r}" in capsys.readouterr().err
    assert not out.exists()
