import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

import bdecay
from bdecay.cli import build_parser
from bdecay.validate import run_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted(p for p in (SRC / "bdecay").glob("*.py") if p.name != "__init__.py")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_import_leaves_numpy_unloaded():
    code = "import sys, bdecay, bdecay.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(), check=True
    )
    assert proc.stdout.strip() == "False"


# Fails every import of a module outside the standard library and the
# declared dependencies, then runs the lifetime routes, the quick suite and a
# short simulation.
DECLARED_ONLY = """
import sys

class Gate:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names | {"bdecay", "mpmath"}:
            raise ModuleNotFoundError(f"{name} is not a declared dependency")

sys.meta_path.insert(0, Gate())
from bdecay.cli import main

print(
    main(["lifetime", "--n", "12", "--x", "3"]),
    main(["validate", "--level", "quick"]),
    main(["simulate", "--n", "4", "--tau", "1/10", "--runs", "50"]),
)
"""


def test_cli_runs_on_its_declared_dependencies_alone():
    proc = subprocess.run(
        [sys.executable, "-c", DECLARED_ONLY], capture_output=True, text=True, env=_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 0"


def test_public_names_resolve_and_are_not_modules():
    assert len(bdecay.__all__) == len(set(bdecay.__all__))
    assert len(bdecay.__all__) <= 38
    for name in bdecay.__all__:
        value = getattr(bdecay, name)
        assert not isinstance(value, types.ModuleType), name


@pytest.mark.parametrize("module, name", [
    ("charpoly", "coefficient_table"),
    ("charpoly", "newton_sums"),
    ("charpoly", "NewtonSums"),
    ("sis", "taylor_coeffs"),
    ("oracle", "survival_log_slope"),
])
def test_checking_helpers_live_in_their_modules(module, name):
    # helpers that check the production routes are imported from their
    # modules, not from the package
    assert name not in bdecay.__all__
    assert not hasattr(bdecay, name)
    assert callable(getattr(importlib.import_module(f"bdecay.{module}"), name))


def test_gillespie_check_reads_the_survival_slope(monkeypatch):
    from bdecay import oracle, validate

    monkeypatch.setattr(oracle, "survival_log_slope", lambda times: 0.0)
    ok, detail = validate.check_gillespie_mean("full")
    assert not ok
    assert detail.startswith("survival-tail slope")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run a copy, so that demos writing next to themselves write into tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True, env=_env()
    )
    assert proc.returncode == 0, proc.stderr


def _module_level_imports(tree):
    """(bound name, line) of each import at module level, `if` blocks included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _module_level_imports(tree)
              if name not in used]
    assert not unused, f"unused imports in {module.name}: {unused}"


def _private_definitions(tree):
    """(name, line) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _package_trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in (SRC / "bdecay").glob("*.py")}


def _names_read(trees):
    """Every name the package reads, as a variable or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_private_definitions_are_referenced():
    # a private helper nothing reads is a leftover of a refactor
    trees = _package_trees()
    read = _names_read(trees)
    unread = [f"{module}: {name} (line {line})" for module, tree in sorted(trees.items())
              for name, line in _private_definitions(tree) if name not in read]
    assert not unread, f"private definitions nothing references: {unread}"


def _raised_names(trees):
    """Name of the class each `raise` statement of the package raises."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def test_exported_exceptions_are_raised():
    # an exported exception that nothing raises, itself or through a subclass,
    # is a failure mode the package no longer has
    raised = [getattr(bdecay, name) for name in set(_raised_names(_package_trees()))
              if name in bdecay.__all__]
    unraised = [name for name in bdecay.__all__
                if isinstance(cls := getattr(bdecay, name), type)
                and issubclass(cls, BaseException)
                and not any(issubclass(r, cls) for r in raised)]
    assert not unraised, f"exported exceptions nothing raises: {unraised}"


def _isinstance_classes(tree):
    """Source of the class argument of each isinstance call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            yield ast.unparse(node.args[1])


def test_rates_have_one_reading():
    # the coefficient, kernel and Sturm layers read each rate at its exact
    # value through _numbers.to_fraction; a branch on float or mpf, or on a
    # ladder-wide exactness flag, would be a second reading
    trees = _package_trees()
    branches = [f"{module}: isinstance(..., {cls})"
                for module in ("charpoly.py", "decay.py", "oracle.py")
                for cls in _isinstance_classes(trees[module])
                if "float" in cls or "mpf" in cls]
    assert not branches, f"arithmetic chosen by rate type: {branches}"
    # cli's args.exact is the --exact output flag, not a ladder attribute
    flags = [module for module, tree in trees.items() if module != "cli.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "exact"]
    assert not flags, f"modules reading an attribute named exact: {flags}"
    assert not hasattr(bdecay.RateLadder, "exact")


QUICK_CHECK_NAMES = [
    "small-spectrum-exact", "bound-ordering", "steady-state-balance",
    "coefficient-cross-checks", "taylor-identities", "lifetime-four-way",
    "hitting-time-equality", "newton-vs-dense", "expint-recursion-bracket",
    "zeta-vs-dense",
]


@pytest.mark.parametrize("level, names", [
    ("quick", QUICK_CHECK_NAMES),
    ("full", QUICK_CHECK_NAMES + ["zeta-lifetime-product", "gillespie-mean"]),
])
def test_validate_keeps_its_check_names(level, names):
    # the names key the `validate` JSON, so they stay, in their order
    assert [check["name"] for check in run_suite(level)["checks"]] == names


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in getattr(node, "decorator_list", ()))


def _public_definitions(tree):
    """(qualified name, name, line) of each public module-level function or
    class, and of each public method of its classes.  A property of a class
    in __all__ is a field of an exported record, so it is public by export
    and is left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                exported = node.name in bdecay.__all__
                for item in node.body:
                    if (isinstance(item, defs) and not item.name.startswith("_")
                            and not (exported and _is_property(item))):
                        yield f"{node.name}.{item.name}", item.name, item.lineno


# the Sturm referee of exact_zeta, which only the tests call
UNREAD_PUBLIC_EXEMPT = {"oracle.sturm_zeta"}


def test_public_definitions_are_exported_or_read():
    # a public name outside __all__ that the package never reads is code that
    # only the tests run: it belongs with them
    trees = _package_trees()
    read = _names_read(trees) | set(bdecay.__all__)
    unread = [f"{module[:-3]}.{qualified} (line {line})"
              for module, tree in sorted(trees.items())
              for qualified, name, line in _public_definitions(tree)
              if name not in read and f"{module[:-3]}.{qualified}" not in UNREAD_PUBLIC_EXEMPT]
    assert not unread, f"public definitions outside __all__ that nothing reads: {unread}"


def _defaulted_parameters():
    """(callee name, parameter, position) of each defaulted parameter of the
    public surface: functions in __all__, and public methods and dataclass
    fields of its classes.  Position counts from the first argument a call
    spells out, so self and cls are left out."""
    for name in bdecay.__all__:
        obj = getattr(bdecay, name)
        if inspect.isfunction(obj):
            callables = [(name, obj)]
        elif inspect.isclass(obj):
            callables = [(attr, getattr(obj, attr)) for attr, raw in vars(obj).items()
                         if not attr.startswith("_")
                         and isinstance(raw, (types.FunctionType, classmethod, staticmethod))]
            if dataclasses.is_dataclass(obj):
                callables.append((name, obj))
        else:
            continue
        for callee, fn in callables:
            params = list(inspect.signature(fn).parameters.values())
            if params and params[0].name in ("self", "cls"):
                params = params[1:]
            for pos, param in enumerate(params):
                if param.default is not inspect.Parameter.empty:
                    yield callee, param.name, pos


def _calls_outside_tests():
    """callee name -> list of (positional count, keyword names, spreads) of
    each call in the package, the demos and the benchmark."""
    calls = {}
    files = [*(SRC / "bdecay").glob("*.py"), *DEMOS, *(ROOT / "perfbench").glob("*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spreads = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            calls.setdefault(callee, []).append(
                (len(node.args), {k.arg for k in node.keywords}, spreads))
    return calls


def test_every_defaulted_parameter_has_a_caller():
    # an option that only tests set is a configuration nothing ships
    calls = _calls_outside_tests()
    unset = [f"{callee}({param})" for callee, param, pos in _defaulted_parameters()
             if not any(n_pos > pos or param in keywords or spreads
                        for n_pos, keywords, spreads in calls.get(callee, []))]
    assert not unset, f"defaulted parameters no caller passes: {unset}"


def _cli_options(parser, command="bdecay"):
    """(command, option strings, choices) of each option of the CLI."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _cli_options(sub, f"{command} {name}")
        elif action.option_strings:
            yield command, "/".join(action.option_strings), action.choices


def test_no_cli_option_offers_a_single_choice():
    # a flag with one allowed value is a setting nobody can change
    single = [f"{command} {option}" for command, option, choices in _cli_options(build_parser())
              if choices is not None and len(choices) == 1]
    assert not single, f"options with a single choice: {single}"
