"""Every name the package exports, and every public method, classmethod and
property of an exported class, is used by the package itself, so the public
API carries nothing that only tests call.

Members are matched by name against every name and attribute the package
modules use, so a member whose name collides with another attribute in use
passes unseen: a test-only `matrix()` method on one class would hide behind
the `matrix` field of `GramMatrix`, and a `size` property behind numpy's
`.size`.
"""

import ast
from pathlib import Path

import rsft

PACKAGE_DIR = Path(rsft.__file__).parent

# Exports and members that only tests compare against, each kept for a
# stated reason.
TEST_REFERENCES = {
    # acceptance gate 2 (reversibility) runs a trajectory forward, flips
    # both momenta and runs it back to the start
    "flip_momenta",
    # the discrete Pauli-Jordan function of the lattice: the reference that
    # the oracle tests hold the smeared commutator and its sign pattern to
    "pauli_jordan_discrete",
    # the per-site momentum, the scalar reference that the lattice tests
    # hold the vectorised `site_momenta` to
    "MomentumLattice.site_momentum",
    # names a site by its integer coordinates, so those tests can pick the
    # center and corner sites of the reference above
    "MomentumLattice.site_index",
}


def exported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def package_modules():
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name != "__init__.py":
            yield ast.parse(path.read_text())


def referenced_names():
    """Names and attributes used in the package modules, each top-level
    definition's references to its own name left out."""
    used = set()
    for module in package_modules():
        for top in module.body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            names.discard(getattr(top, "name", None))
            used |= names
    return used


def public_members(classes):
    """`Class.member` for each public method, classmethod, staticmethod and
    property defined in the body of one of the named classes."""
    return {
        f"{top.name}.{node.name}"
        for module in package_modules()
        for top in module.body
        if isinstance(top, ast.ClassDef) and top.name in classes
        for node in top.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_every_export_is_referenced_inside_the_package():
    exported, used = exported_names(), referenced_names()
    unused = exported - used - TEST_REFERENCES
    assert not unused, f"exported but never used inside rsft: {sorted(unused)}"
    # an exception the package starts to use, or stops exporting, is stale
    listed = {name for name in TEST_REFERENCES if "." not in name}
    assert listed <= exported
    assert not listed & used


def test_every_public_member_of_an_exported_class_is_referenced():
    members, used = public_members(exported_names()), referenced_names()
    unused = {name for name in members if name.rpartition(".")[2] not in used}
    assert not unused - TEST_REFERENCES, (
        f"public but never used inside rsft: {sorted(unused - TEST_REFERENCES)}"
    )
    # an exception the package starts to use, or stops defining, is stale
    listed = {name for name in TEST_REFERENCES if "." in name}
    assert listed <= unused
