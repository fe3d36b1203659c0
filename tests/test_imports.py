"""Package layout: modules reach each other only through public names."""

import ast
from pathlib import Path

import qsd

PACKAGE = Path(qsd.__file__).parent


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
