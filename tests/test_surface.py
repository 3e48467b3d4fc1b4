"""The public API of src/epbench carries no code that only tests call.

Every public module-level function or class, and every public method of a
class, must be referenced by name somewhere in the package besides its own
definition; the few that exist for the tests' oracles or as reference
baselines are listed with the reason they stay.
"""

import ast
from pathlib import Path

import epbench

SRC = Path(epbench.__file__).resolve().parent

UNREFERENCED_BY_DESIGN = {
    "energy.phi": "the energy that the finite-difference oracles differentiate",
    "energy.phi_grad_state": "its state gradient, checked against phi",
    "attacks.random_noise_baseline": "the reference Square must beat (criterion 8)",
    "uncertainty.bootstrap_exponent": "the exponent's confidence interval (criterion 10)",
}


def test_every_public_definition_has_a_caller_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defs.update((f"{mod}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef))
    unreferenced = {qual for qual, name in defs.items()
                    if not name.startswith("_") and name not in used}
    assert unreferenced == set(UNREFERENCED_BY_DESIGN)
