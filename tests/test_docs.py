"""Docstring cross-references in the package resolve: every ``:func:``,
``:meth:``, ``:class:``, ``:attr:`` and ``:mod:`` target names an object
that exists, so a deleted or renamed name cannot linger in the docs.  The
config module docstring lists each section's keys as the loader reads
them, so a dropped or added key cannot leave it stale."""

import ast
import functools
import importlib
import re
from dataclasses import fields
from pathlib import Path

from specmhd import config
from specmhd import galerkin as gal

SRC = Path(__file__).resolve().parent.parent / "src" / "specmhd"
ROLE = re.compile(r":(?:func|meth|class|attr|mod):`~?([\w.]+)`")


def references(path):
    """(target, enclosing class path or None) for each cross-reference in
    the docstrings of the module at ``path``."""
    found = []

    def visit(node, classes):
        for target in ROLE.findall(ast.get_docstring(node) or ""):
            found.append((target, ".".join(classes) or None))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, classes + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, classes)

    visit(ast.parse(path.read_text()), [])
    return found


def _find(obj, parts):
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(target, module, cls=None):
    """Whether ``target`` names an object as an absolute ``specmhd.`` path,
    in the class ``cls`` or in ``module``."""
    parts = target.split(".")
    if parts[0] == "specmhd":
        for i in range(len(parts), 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                continue
            return _find(owner, parts[i:])
    return any(_find(scope, parts) for scope in (cls, module) if scope is not None)


def test_every_docstring_reference_resolves():
    checked, unresolved = 0, []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"specmhd.{path.stem}")
        for target, cls_path in references(path):
            checked += 1
            cls = functools.reduce(getattr, cls_path.split("."), module) if cls_path else None
            if not resolves(target, module, cls):
                unresolved.append(f"{path.name}: {target}")
    assert checked > 0
    assert unresolved == []


def test_resolver_rejects_a_missing_name():
    assert resolves("solve", gal, gal.MassOperator)
    assert resolves("specmhd.galerkin.StepCounters", gal)
    assert resolves("specmhd.spectral", gal)
    assert not resolves("SimState.validate", gal)
    assert not resolves("specmhd.galerkin.SimState.validate", gal)
    assert not resolves("solve", gal)


def docstring_keys(doc):
    """The key list under each ``[section]`` heading of the config module
    docstring, remarks in parentheses dropped."""
    sections, current = {}, None
    for line in doc.splitlines():
        heading = re.fullmatch(r"``\[(\w+)\]``.*", line)
        if heading:
            current = sections.setdefault(heading.group(1), [])
        elif current is not None and line.startswith("    "):
            current.append(line)
        else:
            current = None
    out = {}
    for section, lines in sections.items():
        text = " ".join(lines)
        while re.search(r"\([^()]*\)", text):
            text = re.sub(r"\([^()]*\)", "", text)
        out[section] = [key.strip() for key in text.split(",")]
    return out


def test_config_docstring_lists_the_loaders_keys():
    want = {section: [f.name for f in fields(cls)] for section, cls in config._DATACLASS_SECTIONS.items()}
    want.update((section, list(keys)) for section, keys in config._FIELD_KEYS.items())
    documented = docstring_keys(config.__doc__)
    # [initial] is documented by reference to initial_conditions.FAMILIES
    assert set(documented) == set(want) | {"initial"}
    assert {section: documented[section] for section in want} == want
