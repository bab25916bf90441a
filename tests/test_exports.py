"""Every name the package exports is used by the package itself, so the
public API carries nothing that only tests call."""

import ast
from pathlib import Path

import rsft

PACKAGE_DIR = Path(rsft.__file__).parent

# Exports that only tests compare against, each kept for a stated reason.
TEST_REFERENCES = {
    # acceptance gate 2 (reversibility) runs a trajectory forward, flips
    # both momenta and runs it back to the start
    "flip_momenta",
    # the discrete Pauli-Jordan function of the lattice: the reference that
    # the oracle tests hold the smeared commutator and its sign pattern to
    "pauli_jordan_discrete",
}


def exported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names():
    """Names and attributes used in the package modules, each top-level
    definition's references to its own name left out."""
    used = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            names.discard(getattr(top, "name", None))
            used |= names
    return used


def test_every_export_is_referenced_inside_the_package():
    exported, used = exported_names(), referenced_names()
    unused = exported - used - TEST_REFERENCES
    assert not unused, f"exported but never used inside rsft: {sorted(unused)}"
    # an exception the package starts to use, or stops exporting, is stale
    assert TEST_REFERENCES <= exported
    assert not TEST_REFERENCES & used
