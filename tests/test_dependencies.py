"""`f1geom` is dependency-free: every module imports only its own package
and the standard library."""
import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "f1geom"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_or_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


# Public names that nothing in the package calls, each kept for a stated reason.
UNREFERENCED_ON_PURPOSE = {
    # claimed by ROADMAP items 3, 4 and 9
    ("torified", "weyl_group_order"),
    ("torified", "triple_from_torification"),
    ("torified", "is_torified_cc"),
    ("torified", "f1_points"),
    ("counting", "CountingFunction.polynomial_on_class"),
    # called by the benchmark in bench/
    ("monoid", "saturate"),
    ("cones", "hilbert_basis"),
    ("io", "emit"),
    # the public cone API the tests use
    ("cones", "faces"),
    # the submonoid equality the tests assert with
    ("monoid", "AffineMonoid.same_submonoid"),
    # the structure sheaf's restriction maps, which the sheaf tests check
    ("spectrum", "MScheme.restriction"),
}


def _unreferenced_public_names():
    """(module, name) of each public top-level function and class, and
    (module, "Class.method") of each public method of a public class, that
    no code in the package refers to outside its own definition.

    A reference to a top-level name is a bare name, resolved in its own
    module or through a relative import, or an attribute of a package
    module (``cones.faces``).  A method is referenced by any attribute of
    its name (``x.units``).  That check goes by name, not by type: a method
    counts as used while any method or field of the same name elsewhere in
    the package is read, so it cannot see an unused ``units`` on one class
    while another class's ``units`` is called."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    defined = {(mod, node.name): node for mod, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    referenced = set()
    for mod, tree in trees.items():
        source_of = {alias.asname or alias.name: node.module
                     for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                     for alias in node.names}
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    key = (source_of.get(node.id, mod), node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in trees:
                    key = (node.value.id, node.attr)
                else:
                    continue
                if defined.get(key) is not top:
                    referenced.add(key)
    unreferenced = set(defined) - referenced

    def attributes(node):
        return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))

    read = sum((attributes(tree) for tree in trees.values()), Counter())
    for (mod, _), cls in defined.items():
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") \
                    and read[fn.name] == attributes(fn)[fn.name]:
                unreferenced.add((mod, f"{cls.name}.{fn.name}"))
    return unreferenced


def test_every_public_name_is_used_in_the_package_or_allowed():
    unreferenced = _unreferenced_public_names()
    assert unreferenced <= UNREFERENCED_ON_PURPOSE, \
        f"only tests reach {sorted(unreferenced - UNREFERENCED_ON_PURPOSE)}"
    assert unreferenced == UNREFERENCED_ON_PURPOSE, \
        f"allowed but now used or gone: {sorted(UNREFERENCED_ON_PURPOSE - unreferenced)}"


# isinstance checks against a class of the package: each one is a type
# dispatch that a monoid method or a single record type has not replaced,
# kept for a stated reason.  Keyed by (module, enclosing function); each
# entry stands for one line.
ISINSTANCE_ON_PURPOSE = {
    ("cli", "cmd_spec"):
        "text mode prints affine generators as lists and table elements as sorted "
        "strings; the text goldens pin both, and a monoid method would print tuples",
    ("spectrum", "MScheme.sections"):
        "sections over a multi-branch open are cut out of an affine chart's cone",
    ("spectrum", "_validate_gluing"):
        "gluing records carry lattice isomorphisms, which only affine charts have",
    ("spectrum", "global_sections"):
        "the equalizer over several charts is solved in the affine charts' lattices",
}


def _scoped(node, scope=""):
    """(qualified name of the enclosing function or class, node) for every
    node below ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped(child, inner)


def test_isinstance_against_package_classes_is_on_the_allowlist():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    lines = {}
    for mod, tree in trees.items():
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                named = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if named & classes:
                    lines.setdefault((mod, scope), set()).add(node.lineno)
    sites = sorted(f"{mod}.py:{line} in {scope}"
                   for (mod, scope), found in lines.items() for line in found)
    assert set(lines) <= set(ISINSTANCE_ON_PURPOSE), f"type dispatch at {sites}"
    assert set(lines) == set(ISINSTANCE_ON_PURPOSE), \
        f"allowed but gone: {sorted(set(ISINSTANCE_ON_PURPOSE) - set(lines))}"
    assert all(len(found) == 1 for found in lines.values()), f"more than one line: {sites}"
