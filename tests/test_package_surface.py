"""The package defines only what a run composes: every public top-level
function or class in src/fermilcu/ must be referenced by some package module
or by the benchmark in perfbench/, outside its own definition. References
are names and attributes, and in perfbench/ also string constants, by which
its trace points look attributes up; imports alone do not count. Code that
only the tests reach belongs in tests/reference.py. Only reads perfbench/.
The package also imports only what a run uses: scipy.optimize loads with the
fitters that call it."""

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
    "sorted_insertion_ac": "qubit-level grouping compared with ac_lcu",
    "uniform_row": COST_ROW, "cswap_row": COST_ROW,
    "givens_row": COST_ROW, "prep_v_row": COST_ROW,
}


def _definitions():
    """(module path, name) of every public top-level function and class."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name


def _references(path):
    """Names referenced in a file, each with the top-level definition it
    sits in (None at module level)."""
    refs = set()
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
            elif isinstance(node, ast.Constant) and path in BENCHMARK:
                refs.add((node.value, owner))
    return refs


def test_every_public_definition_is_composed():
    refs = {path: _references(path) for path in PACKAGE + BENCHMARK}
    definitions = list(_definitions())
    assert set(ALLOWED) <= {name for _, name in definitions}
    unused = []
    for home, name in definitions:
        used = any(ref == name and (path != home or owner != name)
                   for path, found in refs.items() for ref, owner in found)
        if not used and name not in ALLOWED:
            unused.append(f"{home.name}:{name}")
    assert not unused, f"defined but composed by no run: {unused}"


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
