"""The package names that the benchmark harness under perfbench/ uses.

The harness changes apart from the package, so a package change that
removes or renames a name it imports or patches would fail every benchmark
run while the rest of the suite passes. The harness files are parsed, not
imported: importing them would need their sibling modules on the path.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("workloads.py", "run.py")


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), filename=name)


def _dotted(node):
    """'etopo.scenario' for the expression etopo.scenario, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "etopo":
        return ".".join(["etopo", *reversed(parts)])
    return None


def _lookup(dotted):
    """The module, or the attribute of one, that a dotted name rooted at
    etopo names; ModuleNotFoundError when it names neither."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(module)
    for attr in attrs:
        if not hasattr(obj, attr):
            importlib.import_module(f"{obj.__name__}.{attr}")
        obj = getattr(obj, attr)
    return obj


def _resolves(dotted):
    """Whether a dotted name rooted at etopo names a module or an attribute
    of one."""
    try:
        _lookup(dotted)
    except ModuleNotFoundError:
        return False
    return True


def imported_names():
    """(file, dotted name) for each name the harness imports from etopo."""
    found = []
    for name in FILES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Import):
                found += [(name, a.name) for a in node.names
                          if a.name.split(".")[0] == "etopo"]
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "etopo"):
                found += [(name, f"{node.module}.{a.name}") for a in node.names]
    return found


def referenced_names():
    """(file, dotted name) for each etopo.<...> expression in the harness,
    such as the module of a PATCHES pair or the attribute a workload swaps."""
    found = set()
    for name in FILES:
        for node in ast.walk(_tree(name)):
            dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
            if dotted is not None:
                found.add((name, dotted))
    return sorted(found)


def _workloads_value(target):
    """The expression perfbench/workloads.py assigns to the name target."""
    for node in _tree("workloads.py").body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [target]):
            return node.value
    raise AssertionError(f"perfbench/workloads.py assigns no {target}")


def patched_names():
    """'module.attr' for each (module, "attr") pair of workloads.PATCHES."""
    return [f"{_dotted(module)}.{attr.value}" for module, attr in
            (pair.elts for pair in _workloads_value("PATCHES").elts)]


def package_calls():
    """(file, line, dotted callee, positional count, keyword names) for each
    harness call into the package whose arguments can be counted: a call of
    a name imported from etopo, of api.<name> where workloads.PLAIN binds
    name to such a name, or of an etopo.<...> expression. Calls with * or
    ** arguments are left out, and so are exception classes."""
    plain = {k.arg: k.value.id for k in _workloads_value("PLAIN").keywords
             if isinstance(k.value, ast.Name)}
    found = []
    for name in FILES:
        tree = _tree(name)
        local = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "etopo"):
                local.update({a.asname or a.name: f"{node.module}.{a.name}"
                              for a in node.names})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                dotted = local.get(func.id)
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "api"):
                dotted = local.get(plain.get(func.attr))
            else:
                dotted = _dotted(func)
            if dotted is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue
            callee = _lookup(dotted)
            if isinstance(callee, type) and issubclass(callee, BaseException):
                continue
            found.append((name, node.lineno, dotted, len(node.args),
                          tuple(k.arg for k in node.keywords)))
    return found


def test_the_harness_uses_the_names_it_is_known_to_use():
    # The parse finds something: empty lists would pass every test below.
    assert ("workloads.py", "etopo.reduction_from_coloring") in imported_names()
    assert ("run.py", "etopo") in imported_names()
    assert ("workloads.py", "etopo.scenario.build_trial_instance") in referenced_names()
    assert "etopo.scenario.build_trial_instance" in patched_names()


def test_imported_names_exist():
    assert [(where, d) for where, d in imported_names() if not _resolves(d)] == []


def test_referenced_names_exist():
    assert [(where, d) for where, d in referenced_names() if not _resolves(d)] == []


def test_patched_names_exist():
    assert [d for d in patched_names() if not _resolves(d)] == []


def test_harness_calls_fit_their_signatures():
    """A renamed parameter or one made keyword-only breaks a call that still
    names an existing function."""
    calls = package_calls()
    # The parse finds the calls: an empty list would pass.
    assert any(c[2:] == ("etopo.solve_exact", 1, ("bnb_cap",)) for c in calls)
    unfit = []
    for where, line, dotted, positional, keywords in calls:
        try:
            inspect.signature(_lookup(dotted)).bind(
                *[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unfit.append((where, line, dotted, str(exc)))
    assert unfit == []
