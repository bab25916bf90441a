"""Every defaulted parameter of a package function, method or constructor
is passed by some call inside the package, so the package carries no knob
that no caller sets.

A constructor's parameters are those of its class's `__init__`, or a
dataclass's fields with a default.  Calls are matched to definitions by
name, as `tests/test_exports.py` matches members: a call passes a
parameter by its keyword, by a `**` mapping, by a `*` sequence or by
reaching its position.  So a parameter whose name collides with a set
parameter of a same-named function elsewhere in the package passes unseen.
"""

import ast
from pathlib import Path

import rsft

PACKAGE_DIR = Path(rsft.__file__).parent

# Defaulted parameters that no call inside the package sets, each kept for
# a stated reason.
UNSET_BY_DESIGN = {
    # the console entry point: with no argv, argparse reads sys.argv; the
    # tests pass one
    "cli.main(argv)",
}


def package_modules():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _decorator_names(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        yield target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)


def _field_default(value):
    """Whether a dataclass field with this value is a constructor parameter
    with a default: (is a parameter, has a default)."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        in_init = not (isinstance(init, ast.Constant) and init.value is False)
        return in_init, "default" in keywords or "default_factory" in keywords
    return True, value is not None


def signatures():
    """(qualified name, name its calls use, positional (parameter,
    defaulted) pairs as a call passes them, defaulted keyword-only
    parameters) of every function, method and constructor."""
    found = []

    def visit(module, body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if "dataclass" in _decorator_names(node):
                    fields = []
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            in_init, defaulted = _field_default(stmt.value)
                            if in_init:
                                fields.append((stmt.target.id, defaulted))
                    found.append((f"{module}.{prefix}{node.name}", node.name, fields, []))
                visit(module, node.body, f"{prefix}{node.name}.", node)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                first_default = len(positional) - len(args.defaults)
                params = [(a.arg, i >= first_default) for i, a in enumerate(positional)]
                bound = cls is not None and "staticmethod" not in _decorator_names(node)
                keyword_only = [
                    a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default
                ]
                name = cls.name if cls is not None and node.name == "__init__" else node.name
                found.append(
                    (f"{module}.{prefix}{node.name}", name, params[bound:], keyword_only)
                )
                visit(module, node.body, f"{prefix}{node.name}.", None)

    for module, tree in package_modules():
        visit(module, tree.body, "", None)
    return found


def calls_by_name():
    calls = {}
    for _module, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, index, name):
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def unset_parameters():
    calls = calls_by_name()
    unset = set()
    for qualified, name, positional, keyword_only in signatures():
        candidates = calls.get(name, [])
        wanted = [(p, i) for i, (p, defaulted) in enumerate(positional) if defaulted]
        wanted += [(p, None) for p in keyword_only]
        for param, index in wanted:
            if not any(passes(call, index, param) for call in candidates):
                unset.add(f"{qualified}({param})")
    return unset


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = unset_parameters()
    assert not unset - UNSET_BY_DESIGN, (
        f"defaulted but never set inside rsft: {sorted(unset - UNSET_BY_DESIGN)}"
    )
    # an exemption that some call now sets, or whose parameter is gone, is stale
    assert UNSET_BY_DESIGN <= unset
