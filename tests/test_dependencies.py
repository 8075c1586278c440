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
    # claimed by ROADMAP items 2, 3 and 8
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
    ("cones", "dual_cone"),
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
