"""cli's per-process store: the brackets and Poincare estimate of each
grid shape, shared by the commands of one process."""

import numpy as np
import pytest

from dirichlet_fem import assembly, cli, mesh
from dirichlet_fem.linsolve import ConvergenceError
from tests.test_cli import run_cli

PROBLEM = "f = 2*pi^2*sin(pi*x)*sin(pi*y) + x\ng = 1 + x*y\n"


def problem(tmp_path, name, domain="0 0 1 1", grid="16 16", mode="extension"):
    path = tmp_path / name
    path.write_text(f"domain = {domain}\ngrid = {grid}\n{PROBLEM}mode = {mode}\n",
                    encoding="utf-8")
    return str(path)


def test_commands_in_one_process_print_what_each_prints_alone(tmp_path, capsysbinary):
    ext = problem(tmp_path, "ext.txt")
    border = problem(tmp_path, "border.txt", mode="border")
    moved = problem(tmp_path, "moved.txt", domain="2 0 3 1")  # the same shape
    commands = [
        ["solve", "--spec", ext], ["solve", "--spec", border], ["solve", "--spec", moved],
        ["poincare", "--spec", moved], ["verify", "--spec", moved, "--seed", "3"],
    ]
    for k, argv in enumerate(commands):
        if argv[0] == "solve":
            argv += ["--out", str(tmp_path / f"{k}.csv")]
        assert cli.main(argv) == 0
        got = capsysbinary.readouterr()
        written = (tmp_path / f"{k}.csv").read_bytes() if argv[0] == "solve" else None
        alone = run_cli(*argv, binary=True)
        assert alone.returncode == 0
        assert (got.out, got.err) == (alone.stdout, alone.stderr), argv
        if written is not None:
            assert written == (tmp_path / f"{k}.csv").read_bytes(), argv
    assert list(cli._STORE) == [(16, 16, 1 / 16, 1 / 16)]


def test_a_repeat_solve_assembles_and_estimates_nothing(tmp_path, monkeypatch, capsys):
    calls = {"stiffness": 0, "estimate": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(assembly, "assemble_stiffness",
                        counted("stiffness", assembly.assemble_stiffness))
    monkeypatch.setattr(cli, "estimate_poincare", counted("estimate", cli.estimate_poincare))
    for spec in (problem(tmp_path, "a.txt"), problem(tmp_path, "b.txt", domain="2 0 3 1")):
        for _ in range(2):
            assert cli.main(["solve", "--spec", spec]) == 0
            assert calls == {"stiffness": 1, "estimate": 1}
    capsys.readouterr()


def test_convergence_levels_share_the_store_with_solve(tmp_path, monkeypatch, capsys):
    calls, original = [], assembly.assemble_stiffness

    def counted(mesh):
        calls.append((mesh.nx, mesh.ny))
        return original(mesh)

    monkeypatch.setattr(assembly, "assemble_stiffness", counted)
    coarse = problem(tmp_path, "coarse.txt", grid="8 8")
    with open(coarse, "a", encoding="utf-8") as handle:
        handle.write("u_exact = sin(pi*x)*sin(pi*y) + x\n")
    assert cli.main(["convergence", "--spec", coarse, "--levels", "2"]) == 0
    assert calls == [(8, 8), (16, 16)]
    assert cli.main(["solve", "--spec", problem(tmp_path, "fine.txt", domain="2 0 3 1")]) == 0
    assert calls == [(8, 8), (16, 16)]
    capsys.readouterr()


def test_the_store_holds_at_most_max_nodes_dropping_the_least_recent(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mesh, "MAX_NODES", 200)
    names = {8: "a", 9: "b", 10: "c"}  # nx of grids of 81, 90 and 99 nodes
    specs = {name: problem(tmp_path, f"{name}.txt", grid=f"{nx} 8")
             for nx, name in names.items()}
    held = []
    for name, want in (("a", "a"), ("b", "ab"), ("a", "ba"),
                       ("c", "ac"), ("b", "cb"), ("c", "bc")):
        assert cli.main(["poincare", "--spec", specs[name]]) == 0
        assert "".join(names[nx] for nx, *_ in cli._STORE) == want  # least recent first
        held.append(sum(system.mesh.node_count for system, _ in cli._STORE.values()))
    assert max(held) <= 200
    assert held == [81, 171, 171, 180, 189, 189]
    capsys.readouterr()


def test_the_stored_eigenvector_refuses_a_write(tmp_path, capsys):
    assert cli.main(["solve", "--spec", problem(tmp_path, "p.txt")]) == 0
    capsys.readouterr()
    (system, est), = cli._STORE.values()
    # A's diagonal-cell band is zero, unstored
    assert [len(m.offsets) for m in (system.A, system.M, system.A_int, system.M_int)] == [3, 4, 3, 4]
    before = est.eigenvector.copy()
    with pytest.raises(ValueError, match="read-only"):
        est.eigenvector[0] = 7.0
    assert np.array_equal(est.eigenvector, before)


def test_a_failed_estimate_is_not_stored(tmp_path, monkeypatch, capsys):
    spec = problem(tmp_path, "p.txt")
    calls = []

    def refuse(system):
        calls.append(system.mesh)
        raise ConvergenceError("no estimate here", iterations=0, residual=0.0)

    monkeypatch.setattr(cli, "estimate_poincare", refuse)
    for command in ("solve", "poincare", "solve"):
        assert cli.main([command, "--spec", spec]) == 2
    assert len(calls) == 3
    assert "error: no estimate here" in capsys.readouterr().err
    (_, est), = cli._STORE.values()
    assert est is None
    monkeypatch.undo()
    assert cli.main(["poincare", "--spec", spec]) == 0
    assert capsys.readouterr().out == run_cli("poincare", "--spec", spec).stdout


def test_a_warm_solve_forms_each_product_it_reads_once(tmp_path, monkeypatch, capsys):
    # A g, A u, M u, M f and M g on the grid, and the solve's residual on the
    # interior; the report never forms u - g or its products
    spec = problem(tmp_path, "p.txt")
    assert cli.main(["solve", "--spec", spec]) == 0
    sizes, original = [], assembly.SparseSymMatrix.apply

    def counted(matrix, x):
        sizes.append(matrix.dimension)
        return original(matrix, x)

    monkeypatch.setattr(assembly.SparseSymMatrix, "apply", counted)
    assert cli.main(["solve", "--spec", spec]) == 0
    capsys.readouterr()
    assert sorted(sizes) == [15 * 15] + [17 * 17] * 5
