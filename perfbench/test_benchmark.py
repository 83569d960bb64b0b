"""Checks of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q

The counter test runs each workload's traced job twice with one seed
and requires identical counters.  It does not pin today's values: a
solver change may legitimately move them, and the recorded baseline in
rationale.json is updated with it.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter

import numpy as np
import pytest

import hostspeed
import reference
import run
import workloads


def traced_counters(name: str, seed: int) -> tuple[dict, dict]:
    """Counters and the tracer's call statistics of one traced job."""
    workdir = run.ROOT / ".perfbench_work" / f"test-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = run.Runner(workdir, perf_counter() + run.RUN_LIMIT_S)
        workload = workloads.WORKLOADS[name](workdir, seed)
        tally = run.Tally(workload)
        wall, _, result = runner.job(workload.commands, True, "traced")
        tally.add(result)
        assert tally.failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sample = run.layer_sample(result["trace"], wall)
    counters = {k: v for k, v in sample.items() if not run.is_time(k)}
    return counters, result["trace"]["stats"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_for_one_seed(name):
    first, stats = traced_counters(name, seed=3)
    second, _ = traced_counters(name, seed=3)
    assert first == second
    # cli and analysis call these through their own bindings.
    assert first["assembly.nnz"] > 0
    assert first["linsolve.cg_calls"] > 0
    # Self times of everything under the root add up to the root's duration.
    self_total = sum(s[2] for s in stats.values())
    assert self_total == pytest.approx(stats["cli.main"][1], rel=1e-9)


def test_verify_reaches_riesz_through_analysis():
    counters, _ = traced_counters("verify-64", seed=3)
    assert counters["riesz.represent_calls"] > 0
    assert counters["mesh.eval_p1_calls"] > 0


def test_reference_matrices_match_the_library():
    from dirichlet_fem import assemble_load, assemble_mass, assemble_stiffness, build_rect_mesh

    domain, grid = (-1.0, 2.0, 3.0, 4.5), (6, 5)
    mesh = build_rect_mesh(*domain, *grid)
    system = reference.p1_system(*domain, *grid)
    assert np.array_equal(mesh.nodes[:, 0], system.x)
    assert np.array_equal(mesh.boundary_mask, ~system.interior)
    np.testing.assert_allclose(assemble_stiffness(mesh).toarray(), system.A.toarray(),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(assemble_mass(mesh).toarray(), system.M.toarray(),
                               rtol=0, atol=1e-15)
    load = assemble_load(mesh, lambda x, y: np.sin(x) * np.exp(y))
    np.testing.assert_allclose(load, reference.load_vector(system, lambda x, y: np.sin(x) * np.exp(y)),
                               rtol=0, atol=1e-13)


def small_batch_inputs(seed: int, tag: str) -> tuple[list, list]:
    """Command verbs and problem files the small-batch generator writes."""
    workdir = run.ROOT / ".perfbench_work" / f"test-seed-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        batch = workloads.SmallBatch(workdir, seed)
        specs = [p.read_text() for p in sorted(workdir.glob("*.txt"))]
        return [argv[0] for argv in batch.commands], specs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_small_batch_inputs_follow_the_seed():
    assert small_batch_inputs(5, "a") == small_batch_inputs(5, "b")
    assert small_batch_inputs(5, "a") != small_batch_inputs(6, "a")


def test_tail_has_ten_samples_beyond_it():
    values = list(range(40))
    assert run.tail(values) == 29
    assert run.tail([3.0, 1.0, 2.0]) == 3.0


def test_speed_factor_averages_speed_and_drops_preempted_rounds():
    monitor = hostspeed.Monitor()  # never started: samples are set by hand
    ref = hostspeed.REFERENCE_S
    fast, slow, preempted = [ref, ref], [2 * ref, 2 * ref], [50 * ref, ref]
    monitor.samples = [(float(t), times) for t, times in
                       enumerate([fast] * 12 + [slow] * 6 + [preempted] * 2)]
    # Two thirds of the span fast, one third at half speed.
    assert monitor.factor(0.0, 19.0) == pytest.approx(5 / 6)
    # A span too short for MIN_ROUNDS takes the rounds nearest its middle.
    assert monitor.factor(5.0, 5.0) == pytest.approx(1.0)
