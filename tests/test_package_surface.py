"""The package defines only what a run composes: every public top-level
function or class in src/fermilcu/, and every public method of such a class,
must be referenced by some package module or by the benchmark in perfbench/,
outside its own definition. Dunder methods, which Python and the dataclass
machinery call, are exempt. References are names and attributes, and in
perfbench/ also string constants, by which its trace points look attributes
up; imports alone do not count. Code that only the tests reach belongs in
tests/reference.py, and a name kept in ALLOWED that a run does compose fails
too, so the list cannot go stale. Only reads perfbench/. The package also
imports only what a run uses: scipy.optimize loads with the fitters that
call it."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "fermilcu").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# public names that tests use and no run does, each kept for a reason
COST_ROW = "circuit cost row kept for the sf and csa cost models"
ALLOWED = {
    "uniform_row": COST_ROW, "cswap_row": COST_ROW,
    "givens_row": COST_ROW, "prep_v_row": COST_ROW,
}


def _definitions():
    """(module path, name, owner) of every public top-level function and
    class, whose owner is (name, None), and of every public method of a
    public class, whose owner is (class name, method name)."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            yield path, node.name, (node.name, None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield path, item.name, (node.name, item.name)


def _references(path):
    """Names referenced in a file, each with the definition it sits in:
    (top-level name, method name), None standing for module level or for
    a top-level body outside any method."""
    refs = set()

    def visit(node, owner):
        if isinstance(node, ast.Name):
            refs.add((node.id, owner))
        elif isinstance(node, ast.Attribute):
            refs.add((node.attr, owner))
        elif isinstance(node, ast.Constant) and path in BENCHMARK:
            refs.add((node.value, owner))
        for child in ast.iter_child_nodes(node):
            method = owner
            if (isinstance(node, ast.ClassDef) and owner[1] is None
                    and isinstance(child, ast.FunctionDef)):
                method = (owner[0], child.name)
            visit(child, method)

    for top in ast.parse(path.read_text()).body:
        visit(top, (getattr(top, "name", None), None))
    return refs


def _composed():
    """Names of the definitions a run composes: referenced in a package or
    benchmark file other than the definition's own, or in its own file
    outside the definition (a method, outside its own body)."""
    refs = {path: _references(path) for path in PACKAGE + BENCHMARK}
    for home, name, owner in _definitions():
        used = any(ref == name and (path != home or not _inside(where, owner))
                   for path, found in refs.items() for ref, where in found)
        yield home, name, used


def _inside(where, owner):
    """Whether a reference made in `where` sits inside definition `owner`."""
    if owner[1] is None:
        return where[0] == owner[0]
    return where == owner


def test_every_public_definition_is_composed():
    composed = list(_composed())
    assert set(ALLOWED) <= {name for _, name, _ in composed}
    unused = [f"{home.name}:{name}" for home, name, used in composed
              if not used and name not in ALLOWED]
    assert not unused, f"defined but composed by no run: {unused}"


def test_allowed_names_are_composed_by_no_run():
    # a name a run composes needs no place on the list
    stale = sorted(name for _, name, used in _composed()
                   if used and name in ALLOWED)
    assert not stale, f"composed by a run, drop from ALLOWED: {stale}"


def test_package_import_leaves_optimizers_unloaded():
    # scipy.optimize is imported by the fitters that call it, so a run that
    # never fits does not pay for its import
    code = ("import sys, fermilcu.report, fermilcu.verify; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
