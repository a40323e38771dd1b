"""src stores only what src reads.

Every ``self.<attr> = ...`` inside a class of ``src/rootcover``, found with
``ast``, must name an attribute that src loads somewhere: as ``x.<attr>`` or
as the string argument of ``getattr``.  A value only a test reads belongs in
the test, recomputed through the code a command runs.

The walk goes by name, so an attribute that shares its name with one src
does read (``dim``, ``trace``) passes here however its own class uses it.
"""

import ast
from pathlib import Path

from rootcover import cli

SRC = Path(cli.__file__).resolve().parent

# qualified name -> why src keeps it with no reader
ALLOWED: dict = {}


def stored_attributes(tree, module):
    """(qualified name, attribute) of every ``self.<attr> =`` in a method."""
    out = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.args:
                continue
            self_name = fn.args.args[0].arg
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == self_name):
                    out.append((f"{module}.{cls.name}.{node.attr}", node.attr))
    return out


def loaded_names(tree):
    """Every attribute name that is loaded, or read through ``getattr``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def test_every_stored_attribute_is_loaded_in_src():
    stored, loaded = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stored += stored_attributes(tree, path.stem)
        loaded |= loaded_names(tree)
    unread = sorted({qual for qual, attr in stored
                     if attr not in loaded and qual not in ALLOWED})
    assert not unread, (f"{len(unread)} attributes in src are stored and never "
                        f"loaded: {', '.join(unread)}")
    # the allow-list names only attributes that are stored and never loaded
    assert [q for q in ALLOWED
            if q not in {qual for qual, attr in stored if attr not in loaded}] == []
