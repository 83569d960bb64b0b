"""tools/bench_pairs.py: its paired-run summary on hand-made runs, and
what it records of each side's sources."""

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
