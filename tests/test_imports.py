"""The package's modules import each other without a cycle, and every
public name serves a command.

Imports are read from the source with ast, so nothing is imported and
an import inside a function counts like one at the top.  The solution
map sits below everything that judges it: dirichlet imports nothing
from analysis, verify or cli, and analysis, which judges the arrays a
solve returned, imports nothing from dirichlet.  The solve takes a
load, not a source: it names nothing that samples or integrates a
callable.
"""

import ast
from pathlib import Path

import dirichlet_fem

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirichlet_fem"


def internal_imports() -> dict[str, set[str]]:
    """module name -> the package modules it imports, anywhere in its text."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    parts = (node.module or "").split(".")
                    if parts[0] != PACKAGE.name:
                        continue
                    targets = parts[1:2] or [a.name for a in node.names]
                elif node.module:
                    targets = [node.module.split(".")[0]]
                else:
                    targets = [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                targets = [
                    a.name.split(".")[1]
                    for a in node.names
                    if a.name.startswith(PACKAGE.name + ".")
                ]
            else:
                continue
            edges.update(t if t in modules else "__init__" for t in targets)
        graph[name] = edges - {name}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as a path that returns to its start, or []."""
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(node):
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        state[node] = "done"
        path.pop()
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def test_internal_imports_form_a_dag():
    graph = internal_imports()
    assert {"dirichlet", "analysis", "verify", "cli"} <= set(graph)
    assert find_cycle(graph) == []


def test_dirichlet_imports_none_of_its_judges():
    assert not internal_imports()["dirichlet"] & {"analysis", "verify", "cli"}


def test_analysis_imports_nothing_from_dirichlet():
    # the bounds judge the arrays a solve returned; they rebuild none
    assert "dirichlet" not in internal_imports()["analysis"]


def names_in(module: str) -> set[str]:
    """Every name a module imports or uses as a name or an attribute."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.rpartition(".")[2] for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_dirichlet_names_no_sampler_or_quadrature():
    sampling = {"assemble_load", "nodal_values", "eval_p1", "p1_interpolant"}
    assert not names_in("dirichlet") & sampling


def test_verify_samples_no_expression():
    # verify judges the nodal fields the CLI builds through problems, the
    # boundary field solve takes among them; it turns no expression into a field
    assert not names_in("verify") & {"nodal_values", "as_function"}


def referenced_names(tree: ast.AST) -> set[str]:
    """Every identifier a tree uses as a name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_reached_from_a_command():
    # Code only tests use is a candidate for deletion.  The roots are
    # cli.main and every name or string in the benchmark and the tools
    # (the tracer binds functions by string); from them, follow what
    # each top-level definition in the package names.  Definitions are
    # keyed by bare name, so a name defined twice is reached through both.
    defines: dict[str, set[str]] = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                sides = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in sides if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                defines.setdefault(name, set()).update(referenced_names(node))
    roots = {"main"}
    for path in [*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots |= referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                roots.update(node.value.split("."))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(defines.get(name, ()))
    assert sorted(set(dirichlet_fem.__all__) - reached) == []


def test_public_names_are_one_per_concept():
    # one bracket norm, norm(u, *brackets), in place of norm_grad, norm_l2
    # and norm_w12; run_checks' results are judged by all() at the caller
    assert dirichlet_fem.__all__ == [
        "CGResult", "CheckResult", "ConvergenceError", "EvalError",
        "FunctionalBound", "InteriorSystem", "Mesh", "ParseError",
        "PoincareEstimate", "ProblemFormatError", "ProblemSpec",
        "SolveReport", "SparseSymMatrix", "StabilityBounds", "as_function",
        "assemble_load", "assemble_mass", "assemble_stiffness", "assemble_system",
        "build_functional", "build_rect_mesh", "cg_solve", "check_functional_bound",
        "check_square_identity", "check_stability", "energy", "estimate_poincare",
        "eval_p1", "evaluate", "extend", "extend_by_zero", "load_problem",
        "make_data", "nodal_values", "norm", "parse", "parse_problem",
        "quotient_solve", "restrict_interior", "riesz_represent", "run_checks",
        "solve", "trace", "verify_uniqueness", "weak_residual", "write_field_csv",
    ]
