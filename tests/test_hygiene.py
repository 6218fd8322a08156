"""Import hygiene of the library modules, checked on their syntax trees.

The project has no linter dependency, so this makes the checks that
matter here: every imported name is used, every ``__all__`` entry is
defined and loaded by some program module (the library or the benchmark
scripts; the tests and the package's re-exports do not count), and so
is every module-level constant, every import sits at module level (a
module's dependencies are read off its head), no handler catches every
exception (a programming error must propagate, not turn into a solver
verdict), one module holds the DOP853 integrators and none calls
scipy's solve_ivp, only that module holds the DOP853 tableau, only that
module generates code (exec, eval, compile), one module owns the CSV
number format, scipy is imported only for scipy.linalg, one module
defines the root finders, one builds the interpolant and one function
sums the cost quadrature,
no module tags event functions or decodes a run's end (events are
(g, direction) pairs and a run reports the one that ended it), one module reads
the speed guard around c*, no PDE system updates or clamps a field outside
the shared SBDF2 step, every keyword parameter of the public API
is set by some program call (tests do not count: an option only tests
set is a constant, and tests change it by monkeypatch), and the number
of those keywords is pinned.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.integrate._ivp import dop853_coefficients

SRC = Path(__file__).resolve().parent.parent / "src" / "travwave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the program: the library and the benchmark scripts, not the tests
CALLERS = MODULES + sorted((SRC.parent.parent / "perfbench").glob("*.py"))
# (module, enclosing function) allowed a broad handler: a crash of an
# acceptance criterion is reported as a failed criterion
BROAD_ALLOWED = {("acceptance.py", "run_criterion")}
# (module, function, keyword) that no program call sets, with the reason
UNSET_ALLOWED = {
    ("cli.py", "main", "argv"):
        "the console script calls main() so that argparse reads sys.argv",
}
# keyword parameters of the public API, over the non-underscore modules: a
# new option moves this pin, and CHANGES.md says why it is needed
KEYWORD_COUNT = 53


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (``from __future__`` excluded) -> line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _unused(tree: ast.Module) -> dict[str, int]:
    """Imported names never loaded, stored or re-exported -> line."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all(tree))
    return {name: line for name, line in _imported(tree).items()
            if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = _unused(_tree(path))
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = _tree(path)
    defined = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    missing = [name for name in _all(tree) if name not in defined]
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def _constants(tree: ast.Module) -> list[str]:
    """Upper-case names a module-level assignment binds, tuple targets
    included."""
    return [t.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            for t in ast.walk(target)
            if isinstance(t, ast.Name) and t.id.isupper()]


def _unloaded(libs: dict[str, ast.Module], callers,
              names=_all) -> list[tuple[str, str]]:
    """(module, name) of each of `names(tree)` (the ``__all__`` entries by
    default) in `libs` that no tree in `callers` loads, as a name or as an
    attribute."""
    loaded = {getattr(node, "id", getattr(node, "attr", None))
              for tree in callers for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
    return [(module, name) for module, tree in libs.items()
            for name in names(tree) if name not in loaded]


def test_every_all_entry_is_loaded_by_the_program():
    unloaded = _unloaded({p.name: _tree(p) for p in MODULES},
                         [_tree(p) for p in CALLERS])
    assert not unloaded, f"__all__ names no program module loads: {unloaded}"


def test_an_unloaded_all_entry_is_reported():
    lib = ast.parse('__all__ = ["f", "g", "K", "h"]\n')
    # g is only imported and h only stored: neither counts as a load
    caller = ast.parse("from lib import f, g, h\nf()\nx = mod.K\nh = 1\n")
    assert _unloaded({"lib.py": lib}, [caller]) == [
        ("lib.py", "g"), ("lib.py", "h")]


def test_every_constant_is_loaded_by_the_program():
    # a constant whose last client was deleted goes with it
    unloaded = _unloaded({p.name: _tree(p) for p in MODULES},
                         [_tree(p) for p in CALLERS], names=_constants)
    assert not unloaded, f"constants no program module loads: {unloaded}"


def test_an_unloaded_constant_is_reported():
    lib = ast.parse("__all__ = []\nA, (B, C) = 1, (2, 3)\nDEPTH: int = 5\n"
                    "log = None\nD = 4\nD += 1\n"
                    "def f():\n    E = 6\n    return A + E\n")
    # E and log are no module-level constants; B is only imported and D
    # only stored (an augmented assignment loads nothing)
    assert _constants(lib) == ["A", "B", "C", "DEPTH", "D"]
    caller = ast.parse("from lib import B\nx = lib.C\nD = 0\n")
    assert _unloaded({"lib.py": lib}, [lib, caller], names=_constants) == [
        ("lib.py", "B"), ("lib.py", "DEPTH"), ("lib.py", "D")]


def test_an_unused_import_is_reported():
    tree = ast.parse("import os.path\nfrom .errors import SingularityError\n"
                     "x = os.sep\n")
    assert _unused(tree) == {"SingularityError": 2}


def _local_imports(tree: ast.Module) -> list[int]:
    """Lines of imports that are not statements of the module body."""
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in top]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    local = _local_imports(_tree(path))
    assert not local, f"{path.name}: imports below module level at {local}"


def test_a_local_import_is_reported():
    tree = ast.parse("import os\n"
                     "def f():\n    from scipy import linalg\n"
                     "    return linalg\n"
                     "if os.sep:\n    import json\n")
    assert _local_imports(tree) == [3, 6]


def _broad_handlers(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each bare, ``except Exception`` or
    ``except BaseException`` handler, tuples of types included."""
    found = []

    def broad(t):
        if t is None:
            return True
        names = t.elts if isinstance(t, ast.Tuple) else [t]
        return any(isinstance(n, ast.Name)
                   and n.id in ("Exception", "BaseException") for n in names)

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and broad(child.type):
                found.append((func, child.lineno))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_broad_exception_handler(path):
    broad = [(func, line) for func, line in _broad_handlers(_tree(path))
             if (path.name, func) not in BROAD_ALLOWED]
    assert not broad, f"{path.name}: broad exception handlers {broad}"


def test_a_broad_handler_is_reported():
    tree = ast.parse(
        "def f():\n"
        "    try:\n        g()\n    except ValueError:\n        pass\n"
        "    try:\n        g()\n    except:\n        pass\n"
        "    try:\n        g()\n    except (KeyError, Exception):\n"
        "        pass\n"
        "try:\n    g()\nexcept BaseException:\n    pass\n")
    assert _broad_handlers(tree) == [("f", 8), ("f", 12), (None, 16)]


def _names(node) -> set[str]:
    """Class names a raise or a pytest.raises argument refers to:
    ``X``, ``mod.X``, ``X(...)`` and tuples of these."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e) for e in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_error_class_is_raised_and_tested():
    errors = _tree(SRC / "errors.py")
    classes = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)} - {"TravwaveError"}
    raised = set().union(*(
        _names(node.exc) for path in MODULES for node in ast.walk(_tree(path))
        if isinstance(node, ast.Raise) and node.exc is not None))
    tested = set().union(*(
        _names(node.args[0])
        for path in Path(__file__).resolve().parent.glob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and node.args
        and isinstance(node.func, ast.Attribute) and node.func.attr == "raises"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "pytest"))
    assert classes
    assert classes <= raised, f"never raised: {sorted(classes - raised)}"
    assert classes <= tested, f"never tested: {sorted(classes - tested)}"


def _floats(tree: ast.Module) -> dict[float, int]:
    """Float constant of the module -> the line it first appears on."""
    found: dict[float, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.setdefault(node.value, node.lineno)
    return found


# the literals of scipy's DOP853 coefficients, but for short ones such as
# 0.25 or 1.0 that any module may hold
TABLEAU = {v for v in _floats(_tree(Path(dop853_coefficients.__file__)))
           if len(repr(v)) > 8}


def _tableau_literals(tree: ast.Module) -> dict[float, int]:
    """DOP853 tableau literal the module holds -> its line."""
    return {v: line for v, line in _floats(tree).items() if v in TABLEAU}


def test_one_dop853_module():
    # every ODE run steps through _dop853.py; only
    # it holds DOP853's Butcher tableau, all of it, and no module reaches
    # for scipy's solve_ivp
    holders = {p.name: set(_tableau_literals(_tree(p))) for p in MODULES}
    assert {name for name, held in holders.items() if held} \
        == {"_dop853.py"}
    assert holders["_dop853.py"] == TABLEAU
    assert [p.name for p in MODULES
            if _scipy_name_uses(_tree(p), "solve_ivp")] == []


def test_a_tableau_literal_is_reported():
    tree = ast.parse("c2 = 0.526001519587677318785587544488e-01\n"
                     "a = {0: 0.25, 6: -5.8012039600105847814672114227}\n"
                     "b = 5.26001519587677318785587544488e-2\n"
                     "d = -8.298e-3\n"
                     "e = 0.5260015195876773\n")
    # a coefficient counts by its double, however it is written, at its
    # first line; a short one (0.25, 8.298e-3) or another number does not
    assert _tableau_literals(tree) == {5.26001519587677318785587544488e-2: 1,
                                       5.8012039600105847814672114227: 2}


def test_a_solve_ivp_use_is_reported():
    tree = ast.parse("from scipy.integrate import simpson, solve_ivp\n"
                     "from ._dop853 import solve_ivp\n"
                     "import scipy.integrate as si\n"
                     "sol = si.solve_ivp(f, (0.0, 1.0), [0.0])\n")
    assert _scipy_name_uses(tree, "solve_ivp") == [1, 4]


CODE_GENERATION = {"exec", "eval", "compile"}


def _code_generation(tree: ast.Module) -> list[int]:
    """Lines that load the builtin exec, eval or compile (a call or an
    alias; a method such as re.compile is not the builtin)."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and node.id in CODE_GENERATION)


def test_code_generation_is_the_dop853_kernel_s():
    # the straight-line DOP853 step is the one generated code: no other
    # library module compiles or runs source text
    assert [p.name for p in MODULES if _code_generation(_tree(p))] \
        == ["_dop853.py"]


def test_a_code_generation_call_is_reported():
    tree = ast.parse("import re\n"
                     "exec(src, namespace)\n"
                     "pattern = re.compile('x')\n"
                     "run = eval\n"
                     "code = compile(src, '<f>', 'exec')\n")
    assert _code_generation(tree) == [2, 4, 5]


CSV_FORMAT = ".17g"


def _format_constants(tree: ast.Module) -> list[int]:
    """Lines of string constants, docstrings excepted, that hold the CSV
    number format (f-string format specs included)."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and CSV_FORMAT in node.value and id(node) not in docstrings]


def test_one_csv_writer():
    # every CSV number goes through _columns.py; no other module holds
    # '%.17g', so a second writer cannot fork the format
    owners = {p.name for p in MODULES if _format_constants(_tree(p))}
    assert owners == {"_columns.py"}


def test_a_format_constant_is_reported():
    tree = ast.parse('"""Docs: %.17g."""\n'
                     'def f(x):\n    """%.17g"""\n    return "%.17g" % x\n'
                     'g = lambda c: f"{c:.17g}"\n')
    assert _format_constants(tree) == [4, 5]


def _scipy_name_uses(tree: ast.Module, name: str) -> list[int]:
    """Lines that import scipy's `name` or read it as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "scipy"
                and any(a.name == name for a in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == name)]


def _scipy_beyond_linalg(tree: ast.Module) -> list[int]:
    """Lines that import scipy, or any of it but scipy.linalg, or read a
    scipy subpackage other than linalg as ``scipy.<sub>``."""
    def beyond(module: str) -> bool:
        parts = module.split(".")
        return parts[0] == "scipy" and parts[:2] != ["scipy", "linalg"]

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules = [f"scipy.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "scipy"):
            modules = [f"scipy.{node.attr}"]
        else:
            continue
        if any(beyond(m) for m in modules):
            lines.add(node.lineno)
    return sorted(lines)


def test_scipy_is_only_linalg():
    # the banded solvers of pde and model2 are the only scipy the package
    # loads: the root finder, the tableau, the interpolant and the
    # quadratures are its own, and importing scipy.optimize, .integrate or
    # .interpolate would double the import time
    uses = {p.name: _scipy_beyond_linalg(_tree(p)) for p in MODULES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_import_loads_only_scipy_linalg():
    # a fresh interpreter, as every CLI command starts: the package and its
    # CLI load no scipy subpackage that the banded solvers do not need
    heavy = ["scipy.optimize", "scipy.integrate", "scipy.interpolate",
             "scipy.sparse", "scipy.special"]
    code = ("import sys, travwave, travwave.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
            "print('scipy.linalg' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=SRC.parent,
                         env=env).stdout
    assert out.split("\n")[:2] == ["[]", "True"]


def test_an_optimize_use_is_reported():
    tree = ast.parse("from scipy.optimize import brentq\n"
                     "import scipy.optimize as so\n"
                     "from scipy import optimize, linalg\n"
                     "from scipy.linalg import solve_banded\n"
                     "import scipy.linalg\n"
                     "x = scipy.optimize.brentq\n"
                     "from scipy import linalg\n"
                     "y = scipy.linalg.lapack\n"
                     "from .optimize import brentq\n")
    assert _scipy_beyond_linalg(tree) == [1, 2, 3, 6]


def _sites(tree: ast.Module, names) -> set[tuple[str, str | None]]:
    """("def", top-level function) of each definition of a function in
    `names` and ("load", top-level function) of each load of one, by name
    or as an attribute; None is the module level."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name in names:
                found.add(("def", func))
            elif isinstance(child, (ast.Name, ast.Attribute)) \
                    and isinstance(child.ctx, ast.Load) \
                    and getattr(child, "id", getattr(child, "attr", None)) \
                    in names:
                found.add(("load", func))
            visit(child, child.name if func is None
                  and isinstance(child, ast.FunctionDef) else func)

    visit(tree, None)
    return found


def _owners(names) -> dict[str, set[tuple[str, str | None]]]:
    """Module -> its `_sites` of `names`, for the modules that have any."""
    sites = {p.name: _sites(_tree(p), names) for p in MODULES}
    return {name: found for name, found in sites.items() if found}


def test_one_root_module():
    # every bisection and Brent root is _roots.py's; no other module can
    # define a root finder of its own under these names
    assert {name for name, found in _owners({"brent", "bisect"}).items()
            if ("def", None) in found} == {"_roots.py"}


def test_one_interpolation_module():
    # every sampled curve is read through phaseplane._interpolant; no other
    # module builds or reads a PCHIP of its own, or one that extrapolates
    assert _owners({"_pchip", "_pchip_at"}) == {
        "phaseplane.py": {("def", None), ("load", "_interpolant")}}


def test_an_interpolate_use_is_reported():
    tree = ast.parse("from scipy.interpolate import PchipInterpolator\n"
                     "import scipy\n"
                     "f = scipy.interpolate.CubicSpline\n"
                     "def _pchip(x, y):\n"
                     "    return x\n"
                     "def curve(x, y):\n"
                     "    c = pp._pchip(x, y)\n"
                     "    return lambda u: _pchip_at(x, c, u)\n")
    assert _scipy_beyond_linalg(tree) == [1, 2, 3]
    assert _sites(tree, {"_pchip", "_pchip_at"}) == {("def", None),
                                                     ("load", "curve")}


def test_one_cost_quadrature():
    # every effort integral is cost_of's Simpson sum; no other function
    # can fork the quadrature
    assert _owners({"_simpson"}) == {
        "control_construct.py": {("def", None), ("load", "cost_of")}}


def test_a_simpson_import_is_reported():
    tree = ast.parse("from scipy.integrate import simpson, solve_ivp\n"
                     "from numpy import trapezoid\n"
                     "def cost(g, u):\n"
                     "    def _simpson(y, x):\n"
                     "        return y\n"
                     "    return _simpson(g, u)\n"
                     "J = cc._simpson([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])\n"
                     "_simpson = None\n")
    assert _scipy_beyond_linalg(tree) == [1]
    assert _sites(tree, {"_simpson"}) == {("def", "cost"), ("load", "cost"),
                                          ("load", None)}


def _guard_loads(tree: ast.Module) -> list[int]:
    """Lines that import ``SPEED_GUARD`` or read it, by name or as an
    attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.ImportFrom)
                      and any(a.name == "SPEED_GUARD" for a in node.names))
                  or (isinstance(node, (ast.Name, ast.Attribute))
                      and "SPEED_GUARD" in (getattr(node, "id", None),
                                            getattr(node, "attr", None))
                      and isinstance(node.ctx, ast.Load)))


def test_one_speed_regime():
    # every controlled profile reads c < c* and the zero-control band
    # around c* from control_construct._speed_regime; no other module can
    # restate that rule
    owners = {p.name for p in MODULES if _guard_loads(_tree(p))}
    assert owners == {"control_construct.py"}


def test_a_speed_guard_load_is_reported():
    tree = ast.parse("from .control_construct import SPEED_GUARD, _slice_to\n"
                     "SPEED_GUARD = 1e-9\n"
                     "import travwave.control_construct as cc\n"
                     "if c <= c_star + SPEED_GUARD:\n"
                     "    g = cc.SPEED_GUARD\n"
                     "cc.SPEED_GUARD = 0.0\n")
    assert _guard_loads(tree) == [1, 4, 5]


def _event_glue(tree: ast.Module) -> list[int]:
    """Lines that tag an event function as ``terminal`` or with a
    ``direction``, or read a run's ``t_events`` or ``status``."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and ((node.attr in ("terminal", "direction")
                         and isinstance(node.ctx, ast.Store))
                        or (node.attr in ("t_events", "status")
                            and isinstance(node.ctx, ast.Load)))})


def test_one_terminal_event_rule():
    # every ODE run takes its events as (g, direction) pairs and reports
    # the one that ended it as `sol.ended`: no module tags event functions
    # or decodes a run's t_events or status
    owners = {p.name for p in MODULES if _event_glue(_tree(p))}
    assert owners == set()


def test_event_glue_is_reported():
    tree = ast.parse("def ev(t, y):\n"
                     "    return y[0]\n"
                     "ev.terminal = True\n"
                     "ev.direction = -1\n"
                     "hit = len(sol.t_events[0]) > 0\n"
                     "ev.terminal, ev.direction = True, 1\n"
                     "was = ev.terminal\n"
                     "failed = sol.status == -1\n"
                     "sol.status = 0\n"
                     "d = ev.direction\n")
    assert _event_glue(tree) == [3, 4, 5, 6, 8]


def _field_updates(tree: ast.Module) -> list[int]:
    """Lines inside an ``evolve_*`` function that call ``np.exp`` or
    ``np.clip``."""
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and fn.name.startswith("evolve_")
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("exp", "clip")
                   and isinstance(node.func.value, ast.Name)
                   and node.func.value.id == "np"})


def test_one_field_stepper():
    # every PDE field advances through pde._Scheme and is bounded only by
    # the blow-up guard; no system keeps a pointwise update or a clamp
    assert _field_updates(_tree(SRC / "pde.py")) == []


def test_a_field_update_is_reported():
    tree = ast.parse("def evolve_x(u):\n"
                     "    def step(th):\n"
                     "        th = 1.0 - (1.0 - th) * np.exp(-u)\n"
                     "        return np.clip(th, 0.0, 1.0)\n"
                     "    return np.exp(u)\n"
                     "def _field_on_grid(u):\n"
                     "    return np.clip(u, 0.0, 1.0)\n"
                     "def evolve_y(u):\n"
                     "    return math.exp(u) + u.clip(0.0, 1.0)\n")
    assert _field_updates(tree) == [3, 4, 5]


def _keywords(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function, parameter, argument index) of each parameter with a
    default of a public function or public-class method; the index skips
    self or cls and is None for a keyword-only parameter."""
    found = []

    def add(fn, shift):
        a = fn.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        found.extend((fn.name, arg.arg, i - shift)
                     for i, arg in enumerate(pos[first:], first))
        found.extend((fn.name, arg.arg, None)
                     for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                     if d is not None)

    public = [node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    for node in public:
        if isinstance(node, ast.FunctionDef):
            add(node, 0)
        else:
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) \
                        and not fn.name.startswith("_"):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    add(fn, 0 if static else 1)
    return found


def _calls(trees) -> dict[str, tuple[float, set[str]]]:
    """Callee name (``f(...)`` or ``x.f(...)``) -> (the most positional
    arguments of any call, unbounded with ``*args``; the keywords any call
    names).  A ``**mapping`` names the string keys of its dict display, or
    of every dict display assigned to that name in the same file."""
    calls: dict[str, tuple[float, set[str]]] = {}
    for tree in trees:
        displays: dict[str, set[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                keys = {k.value for d in ast.walk(node.value)
                        if isinstance(d, ast.Dict) for k in d.keys
                        if isinstance(k, ast.Constant)}
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        displays.setdefault(t.id, set()).update(keys)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            n_pos, named = calls.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_pos = max(n_pos, float("inf") if starred else len(node.args))
            for kw in node.keywords:
                if kw.arg is not None:
                    named.add(kw.arg)
                elif isinstance(kw.value, ast.Dict):
                    named.update(k.value for k in kw.value.keys
                                 if isinstance(k, ast.Constant))
                elif isinstance(kw.value, ast.Name):
                    named |= displays.get(kw.value.id, set())
            calls[name] = (n_pos, named)
    return calls


def _unset(libs: dict[str, ast.Module], callers) -> list[tuple[str, str, str]]:
    """(module, function, keyword) of each keyword parameter that no call
    in `callers` sets by name, by position or through a mapping."""
    calls = _calls(callers)
    unset = []
    for module, tree in libs.items():
        for fn, kw, index in _keywords(tree):
            n_pos, named = calls.get(fn, (0, set()))
            if kw not in named and (index is None or n_pos <= index):
                unset.append((module, fn, kw))
    return unset


def test_every_keyword_has_a_program_caller():
    unset = _unset({p.name: _tree(p) for p in MODULES},
                   [_tree(p) for p in CALLERS])
    assert set(UNSET_ALLOWED) <= set(unset), "stale UNSET_ALLOWED entry"
    extra = [k for k in unset if k not in UNSET_ALLOWED]
    assert not extra, f"keywords no program call sets: {extra}"


def test_public_keyword_count_is_pinned():
    public = [p for p in MODULES if not p.name.startswith("_")]
    assert sum(len(_keywords(_tree(p))) for p in public) == KEYWORD_COUNT


def test_an_unset_keyword_is_reported():
    lib = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                    "class K:\n"
                    "    def m(self, n=5):\n        pass\n"
                    "    def s(self, t=6):\n        pass\n"
                    "    def _p(self, q=7):\n        pass\n"
                    "def _g(r=8):\n    pass\n")
    caller = ast.parse("f(0, 1)\nkw = {'d': 3}\nf(0, **kw)\n"
                       "K().m()\nK().s(1)\n")
    assert _unset({"lib.py": lib}, [caller]) == [
        ("lib.py", "f", "c"), ("lib.py", "f", "e"), ("lib.py", "m", "n")]
