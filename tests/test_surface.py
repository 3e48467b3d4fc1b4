"""The public API of src/epbench carries no code that only tests call.

Every public module-level function or class, and every public method of a
class, must be referenced by name somewhere in the package besides its own
definition; the few that exist for the tests' oracles or as reference
baselines are listed with the reason they stay. Likewise every defaulted
parameter of a public function or method, and every defaulted field of a
public dataclass, is set by some call in the package or by a config key. The
parameters are cast to float64 and each conv kernel flipped for its adjoint
in one place, `energy._prepare`. Where an op's buffers live is decided in
`ops` alone, and the model reaches convolution and pooling only through
`ops`' public names, the ones the benchmark's tracer times. The package
imports no third-party package that pyproject.toml does not declare as a
runtime dependency, and declares none it does not import. No module reads
the environment, so no setting (the convolutions' run budget included)
becomes an environment knob.
"""

import ast
import inspect
import math
import re
import sys
from pathlib import Path

import epbench
from epbench import config, energy, ops

SRC = Path(epbench.__file__).resolve().parent

UNREFERENCED_BY_DESIGN = {
    "energy.phi": "the energy that the finite-difference oracles differentiate",
    "energy.phi_grad_state": "its state gradient, checked against phi",
    "attacks.random_noise_baseline": "the reference Square must beat (criterion 8)",
    "uncertainty.bootstrap_exponent": "the exponent's confidence interval (criterion 10)",
}

SET_ONLY_BY_TESTS = {
    "attacks.AttackConfig.cw_lr": "criterion 7's closed-form C&W oracles run at other "
                                  "step sizes",
    "model.init_params(scale)": "the tests draw contracting and expanding models with it",
    "cli.main(argv)": "it is the command line",
}


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_every_public_definition_has_a_caller_in_src():
    trees = _trees()
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


def _defaulted(qual, fn, skip):
    """(qual(param), position in a call or None, name) of each defaulted
    parameter of fn; a method's calls pass its first `skip` parameters
    implicitly."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for i, arg in enumerate(pos[first:], first):
        yield f"{qual}({arg.arg})", i - skip, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield f"{qual}({arg.arg})", None, arg.arg


def _settings(trees):
    """(qualified setting, callee name, position in a call or None, keyword)
    of every defaulted public parameter and dataclass field."""
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if f"{mod}.{node.name}" not in UNREFERENCED_BY_DESIGN:
                    for qual, i, kw in _defaulted(f"{mod}.{node.name}", node, 0):
                        yield qual, node.name, i, kw
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            yield f"{mod}.{node.name}.{f.target.id}", node.name, i, f.target.id
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        static = any(ast.unparse(d) == "staticmethod"
                                     for d in item.decorator_list)
                        for qual, i, kw in _defaulted(f"{mod}.{node.name}.{item.name}",
                                                      item, 0 if static else 1):
                            yield qual, item.name, i, kw


def test_every_setting_has_a_setter_in_src():
    # a setting counts as set when some call of its name passes it by
    # position or keyword (a ** mapping sets none), or, for a ModelSpec or
    # TrainConfig field, when a config key names it
    trees = _trees()
    calls = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((name, math.inf if spread else len(node.args),
                              {k.arg for k in node.keywords}))
    keys = {"ModelSpec": config._SPEC_KEYS, "TrainConfig": config._TRAIN_KEYS}
    unset = {qual for qual, name, i, kw in _settings(trees)
             if kw not in keys.get(name, ())
             and not any(callee == name and ((i is not None and n > i) or kw in kws)
                         for callee, n, kws in calls)}
    assert unset == set(SET_ONLY_BY_TESTS)


def _calls_by_function(tree):
    """(enclosing module-level function or class, Call node) for every call."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield getattr(top, "name", None), node


def test_params_are_prepared_only_in_energy_prepare():
    # params.map(np.asarray, dtype=...) casts and ops._adjoint_kernel flips;
    # conv2d_transpose flips for callers that pass no prepared kernel
    allowed = {"energy._prepare", "ops.conv2d_transpose"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn, call in _calls_by_function(ast.parse(path.read_text())):
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            cast = (name == "map" and call.args and ast.unparse(call.args[0]) == "np.asarray"
                    and any(k.arg == "dtype" for k in call.keywords))
            if cast or name == "_adjoint_kernel":
                found.add(f"{path.stem}.{fn}")
    assert found <= allowed
    assert "energy._prepare" in found


def test_op_buffers_are_planned_only_in_ops():
    # no other module names the plan classes, the lookup or the per-thread
    # scratch that holds the plans; no op takes a plan, and the prepared
    # model carries none
    ops_only = {"_Plan", "_ConvPlan", "_PoolPlan", "_plan", "_scratch", "plans"}
    named = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "ops":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            named.update(f"{path.stem}: {n}" for n in names & ops_only)
    assert named == set()
    for op in (ops.conv2d, ops.conv2d_transpose, ops.conv2d_weight_grad, ops.maxpool2):
        assert "plan" not in inspect.signature(op).parameters
    assert "plans" not in energy._Net._fields


def test_the_model_reaches_convolution_and_pooling_through_public_ops():
    # the benchmark's tracer wraps only public names, so a private shortcut
    # into ops would hide its calls from every ops.* per-layer metric. The
    # one private name read is the kernel flip, which runs once per entry
    # point (see test_params_are_prepared_only_in_energy_prepare)
    reached = set()
    for stem in ("energy", "unrolled", "baseline", "training"):
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "ops"):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module in ("ops", "epbench.ops"):
                reached.update(alias.name for alias in node.names)
    assert {name for name in reached if name.startswith("_")} == {"_adjoint_kernel"}
    assert {"conv2d", "conv2d_transpose", "conv2d_weight_grad", "maxpool2", "unpool2",
            "pool_gather"} <= reached


def test_runtime_imports_are_the_declared_dependencies():
    import tomllib  # Python 3.11+; imported here so the other checks run on 3.10

    declared = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())
    runtime = {re.match(r"[A-Za-z0-9_.-]+", d)[0] for d in declared["project"]["dependencies"]}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == runtime == {"numpy"}


def test_no_module_reads_the_environment():
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.add(f"{path.stem}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads.update(f"{path.stem}: from os import {alias.name}"
                             for alias in node.names if alias.name in ("environ", "getenv"))
    assert reads == set()
