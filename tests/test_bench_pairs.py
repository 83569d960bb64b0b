"""The paired-run summary of tools/bench_pairs.py on hand-made runs."""

import importlib.util
from pathlib import Path

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
