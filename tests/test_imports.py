"""Package layout: modules reach each other only through public names."""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import qsd
import qsd.cli
import qsd.oracle

PACKAGE = Path(qsd.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


# Imported but unused on purpose: bench/tests/test_bench.py reads qsd.cli.solve_auto.
UNUSED_IMPORT_EXEMPTIONS = {("cli.py", "solve_auto")}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _string_annotation_names(tree):
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {
        name.id
        for ann in annotations
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str)
        for name in ast.walk(ast.parse(ann.value, mode="eval"))
        if isinstance(name, ast.Name)
    }


def test_every_import_is_used():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree) | _string_annotation_names(tree)
        offenders += [
            f"{path.name}: {name}"
            for name in imported
            if name not in used and (path.name, name) not in UNUSED_IMPORT_EXEMPTIONS
        ]
    assert offenders == []


_CONSTANT_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _in_constant_assignments(tree):
    """ids of every node inside a module-level NAME = ... assignment with upper-case names."""
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if all(isinstance(t, ast.Name) and _CONSTANT_NAME.fullmatch(t.id) for t in targets):
            inside |= {id(sub) for sub in ast.walk(node)}
    return inside


def test_small_float_literals_are_named_constants():
    # a tolerance written inline hides its value from the reader and from
    # every other place that should quote the same number
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = _in_constant_assignments(tree)
        offenders += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-6
            and id(node) not in named
        ]
    assert offenders == []


# bloch's tolerance table holds every tolerance of the package, one row per
# question, and at most this many rows
TOLERANCE_ROWS = 38


def _small_floats(module):
    return {name: value for name, value in vars(module).items()
            if type(value) is float and 0.0 < value < 1e-6}


def test_every_tolerance_is_a_row_of_the_bloch_table():
    # checked on the imported modules: a module may import a row, never define one
    table = _small_floats(qsd.bloch)
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "bloch"
        for name, value in _small_floats(
            importlib.import_module("qsd" if path.stem == "__init__" else f"qsd.{path.stem}")
        ).items()
        if table.get(name) is not value
    ]
    assert offenders == []
    assert len(table) <= TOLERANCE_ROWS


def test_every_tolerance_row_is_read():
    # a row that no code reads answers no question: when two rows merge, the
    # one left behind must go
    table = _small_floats(qsd.bloch)
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(table) - read) == []


def _traced():
    # bench/spans.py wraps these by name; read them without importing bench
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    return traced


def test_bench_traced_names_resolve():
    traced = _traced()
    assert traced
    missing = []
    for name in traced:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"qsd.{module}"), attr, None)):
            missing.append(name)
    assert missing == []


# Exports that no library module, demo or README line calls, each kept for a reason.
UNCALLED_EXPORTS = {
    "gram_identity_residual": "the paper's Gram identity, for checking three-state coefficients by hand",
    "minimax_objective": "f(r), the objective that readers and tests evaluate the oracle against",
}


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_used_outside_tests():
    # a public name that only its own tests call is surface without a user
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    used = set().union(*map(_referenced_names, sources))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    used |= {name.split(".")[1] for name in _traced()}
    assert set(UNCALLED_EXPORTS) <= set(qsd.__all__) - used
    assert sorted(set(qsd.__all__) - used - set(UNCALLED_EXPORTS)) == []


def _public_callables():
    for module in (qsd, qsd.oracle):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            if callable(obj):
                yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in inspect.getmembers(obj, inspect.isfunction):
                    if not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance():
    # the oracle's pivot window is one constant, qsd.oracle.PIVOT_WINDOW, so
    # the CLI and the library cannot run the solvers at two different windows
    offenders = [
        name for name, fn in _public_callables() if "tol" in inspect.signature(fn).parameters
    ]
    assert offenders == []
    parsers = [qsd.cli._build_parser()]
    flags = set()
    for parser in parsers:
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert "--format" in flags and "--tol" not in flags


# The oracle's per-subset kernels work on Python floats: a numpy call costs
# more than the whole closed-form solve of a subset.
FLOAT_KERNELS = {"_pair_table", "_pivot_subsets", "_support_points", "_solve_rows", "_zero_weights"}


def test_oracle_float_kernels_use_no_numpy():
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    kernels = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in FLOAT_KERNELS
    }
    assert set(kernels) == FLOAT_KERNELS
    offenders = [
        f"{name}:{node.lineno}"
        for name, kernel in sorted(kernels.items())
        for node in ast.walk(kernel)
        if isinstance(node, ast.Name) and node.id in ("np", "numpy")
    ]
    assert offenders == []


# bloch alone decides which records keep floats; the solvers read the form a
# record holds (WeightedEnsemble.held) and never compare a size with FLOAT_ROWS.
def test_only_bloch_names_float_rows():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "bloch.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "FLOAT_ROWS")
        or (isinstance(node, ast.Attribute) and node.attr == "FLOAT_ROWS")
        or (isinstance(node, ast.alias) and node.name == "FLOAT_ROWS")
    ]
    assert offenders == []


# PovmElement, the (a, v) named tuple of Povm.elements, is the one per-row
# view left, and only bloch names it; a refused row gets its message from
# bloch's row checks. Every other module works on the records' arrays.
PER_STATE_CLASSES = {"PovmElement"}


def test_per_state_classes_stay_inside_bloch():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "bloch.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in PER_STATE_CLASSES)
        or (isinstance(node, ast.Attribute) and node.attr in PER_STATE_CLASSES)
    ]
    assert offenders == []


# numpy loads on the first array a solve needs: every module binds np to
# bloch's LazyNumpy, whose first attribute read is the one import of numpy.
# An import of numpy anywhere else would load it with qsd again.
def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_numpy_is_imported_by_the_loader_alone():
    # (module, the top-level statement's name) of every import of numpy
    imports = [
        (path.name, getattr(top, "name", f"line {top.lineno}"))
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if _imports_numpy(node)
    ]
    assert imports == [("bloch.py", "LazyNumpy")]
