"""Every tolerance is a named constant and every raising check goes through
qge._checks.check, which fails closed; only qge._runtime, the home of the
process settings, reaches C libraries through ctypes and imports
threading or concurrent.futures; only evolution.variance_estimate runs the
worker pool, so pools never nest; only bonds._frozen sets an array's flags;
only census.min_return_lengths, the search it bounds, reads the census work
budget; every integer bound goes through qge._checks.integer; and only
walk.walk_decay_constant, the walk bound's one gate, compares beta with
d - 2."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import qge
import qge.evolution as evolution
from qge import NumericalError
from qge._checks import check, imag_residue, stochasticity_deviation, unitarity_deviation

SOURCES = sorted(Path(qge.__file__).parent.glob("*.py"))


def _bare_tolerances(path: Path) -> list[str]:
    """Float literals in (0, 1e-6) anywhere inside a comparison, a
    parameter default or arithmetic in a call's arguments (a slack such as
    floor(x + 1e-9)): a tolerance a caller could pass is not pinned."""
    scanned = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            scanned.append(node)
        elif isinstance(node, ast.arguments):
            scanned.extend(d for d in node.defaults + node.kw_defaults if d is not None)
        elif isinstance(node, ast.Call):
            args = node.args + [k.value for k in node.keywords]
            scanned.extend(sub for arg in args for sub in ast.walk(arg) if isinstance(sub, ast.BinOp))
    found = {
        (sub.lineno, sub.col_offset, sub.value)
        for node in scanned
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and type(sub.value) is float and 0 < sub.value < 1e-6
    }
    return [f"{path.name}:{line}: {value!r}" for line, _, value in sorted(found)]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"evolution.py", "walk.py", "scattering.py", "_checks.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_tolerance_in_comparisons(path):
    assert _bare_tolerances(path) == []


def test_rule_sees_a_bare_tolerance(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("ok = x < TOL\nbad = abs(x) <= 1e-9 * scale\nfine = x < 1e-3\n")
    assert _bare_tolerances(path) == ["probe.py:2: 1e-09"]


def test_rule_sees_a_tolerance_default(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def ok(x, tol=TOL, scale=1e-3):\n    pass\n"
        "def bad(x, tol=1e-9, *, eps=-1e-12):\n    pass\n"
        "f = lambda x, slack=2e-8: x\n"
    )
    assert _bare_tolerances(path) == ["probe.py:3: 1e-09", "probe.py:3: 1e-12", "probe.py:5: 2e-08"]


def test_rule_sees_a_slack_in_a_call(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "ok = math.floor(raw + SLACK)\n"
        "bad = math.floor(raw + 1e-9)\n"
        "worse = max(1, int(k=2.0 * (x - 5e-10)))\n"
        "fine = f(1e-9) + g(x * 0.5)\n"
        "twice = f(abs(x) < 1e-9 * y)\n"
    )
    assert _bare_tolerances(path) == ["probe.py:2: 1e-09", "probe.py:3: 5e-10", "probe.py:5: 1e-09"]


def _imports(path: Path, *modules: str) -> list[str]:
    """The import statements of a module that import one of `modules`, a
    submodule of it or a name from it (qge's own relative imports aside)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == m or name.startswith(m + ".") for name in names for m in modules):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_only_runtime_imports_ctypes():
    hits = {p.name: _imports(p, "ctypes") for p in SOURCES}
    assert hits.pop("_runtime.py") != []
    assert [hit for found in hits.values() for hit in found] == []


def test_rule_sees_a_ctypes_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import os, ctypes\nfrom ctypes import CDLL\nimport ctypes.util as cu\n"
        "from . import ctypes_free\nimport ctypeslib\n"
    )
    assert _imports(path, "ctypes") == ["probe.py:1", "probe.py:2", "probe.py:3"]


THREAD_MODULES = ("threading", "concurrent.futures")


def test_only_runtime_imports_threads():
    # thread_map is the one pool: no other module starts a thread
    hits = {p.name: _imports(p, *THREAD_MODULES) for p in SOURCES}
    assert hits.pop("_runtime.py") != []
    assert [hit for found in hits.values() for hit in found] == []


def test_rule_sees_a_thread_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import os, threading\nfrom threading import Thread\n"
        "def pool():\n    from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures as cf\nfrom concurrent import futures\n"
        "from . import threading_free\nimport threadpoolctl\nfrom concurrent import interpreters\n"
    )
    assert _imports(path, *THREAD_MODULES) == [
        "probe.py:1", "probe.py:2", "probe.py:4", "probe.py:5", "probe.py:6"
    ]


def test_one_thread_map_call_site():
    # the k-samples of variance_estimate are the only pooled work: no other
    # code (a sweep's rows, say) maps over the pool, so no pool runs inside
    # one of its own workers
    assert [hit for p in SOURCES for hit in _mentions(p, "thread_map")] == [
        "evolution.py:variance_estimate"
    ]


def test_rule_sees_a_thread_map_use(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def thread_map(fn, items):\n    return [fn(x) for x in items]\n"
        "def variance_estimate(ks):\n    def per_k(k):\n        return k\n"
        "    return _runtime.thread_map(per_k, ks)\n"
        "def family_experiment(rows):\n    return thread_map(row, rows)\n"
        "from ._runtime import thread_map as pool\n"
        "run = _runtime.thread_map\n"
    )
    assert _mentions(path, "thread_map") == [
        "probe.py:variance_estimate", "probe.py:family_experiment", "probe.py:<module>",
        "probe.py:<module>",
    ]


def _mentions(path: Path, name: str) -> list[str]:
    """module:function of each mention of `name` (an attribute, a name or
    an imported name), in line order; function is <module> outside every
    function and the innermost one inside nested functions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}
    for node in ast.walk(tree):  # breadth first: an inner function overrides its outer one
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(sub), node.name) for sub in ast.walk(node))
    field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
    uses = sorted(
        (node.lineno, owner.get(id(node), "<module>"))
        for node in ast.walk(tree)
        if type(node) in field and getattr(node, field[type(node)]) == name
    )
    return [f"{path.name}:{function}" for _, function in uses]


def test_only_bonds_frozen_calls_setflags():
    # every value type owns its arrays through bonds._owned, which freezes
    # through bonds._frozen: the one place that sets an array's flags
    assert [hit for p in SOURCES for hit in _mentions(p, "setflags")] == ["bonds.py:_frozen"]


def test_rule_sees_a_setflags_call(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def _frozen(a):\n    a.setflags(write=False)\n    return a\n"
        "def owner(a):\n    def inner():\n        a.setflags(write=False)\n    return inner\n"
        "np.ones(2).setflags(write=False)\n"
        "from numpy import setflags\n"
    )
    assert _mentions(path, "setflags") == [
        "probe.py:_frozen", "probe.py:inner", "probe.py:<module>", "probe.py:<module>"
    ]


def _budget_reads(path: Path) -> list[str]:
    """Where a module names DEFAULT_WORK_BUDGET outside the body of a
    function min_return_lengths: a read of the name or of an attribute, or
    an import of it (assigning the constant is not a read)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "min_return_lengths"
        for sub in ast.walk(node)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "DEFAULT_WORK_BUDGET":
            lines.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_only_the_search_reads_the_budget():
    assert [hit for p in SOURCES for hit in _budget_reads(p)] == []


def test_rule_sees_a_budget_read(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "DEFAULT_WORK_BUDGET = 10\n"
        "def min_return_lengths(bi, cap):\n    return cap > DEFAULT_WORK_BUDGET\n"
        "def census(g):\n    return DEFAULT_WORK_BUDGET\n"
        "limit = census.DEFAULT_WORK_BUDGET\n"
        "from .census import DEFAULT_WORK_BUDGET as budget\n"
    )
    assert _budget_reads(path) == ["probe.py:5", "probe.py:6", "probe.py:7"]


def _side(node) -> str:
    """"ref" for a name or attribute, "int" for an int literal, negated or
    not, and "" for anything else."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return "ref"
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return "int" if isinstance(node, ast.Constant) and type(node.value) is int else ""


def _raises(stmt, names: tuple[str, ...]) -> bool:
    if not isinstance(stmt, ast.Raise):
        return False
    exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
    return bool({getattr(exc, "id", None), getattr(exc, "attr", None)} & set(names))


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _hand_integer_bounds(path: Path) -> list[str]:
    """Ordering comparisons between a name or attribute and an int literal
    in the test of an `if` whose body raises ParameterError or
    ValidationError: an integer bound written by hand instead of through
    _checks.integer.  A real bound is written with a float literal
    (kappa <= 0.0) and passes."""
    found, errors = [], ("ParameterError", "ValidationError")
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.If) and any(_raises(stmt, errors) for stmt in node.body)):
            continue
        for cmp in (sub for sub in ast.walk(node.test) if isinstance(sub, ast.Compare)):
            sides = [cmp.left, *cmp.comparators]
            for op, left, right in zip(cmp.ops, sides, sides[1:]):
                if isinstance(op, ORDERINGS) and {_side(left), _side(right)} == {"ref", "int"}:
                    found.append(f"{path.name}:{cmp.lineno}")
    return found


def test_integer_bounds_go_through_the_check():
    # every count, degree, horizon and seed is checked by _checks.integer,
    # which also refuses bools, fractions and non-finite values
    assert [hit for p in SOURCES for hit in _hand_integer_bounds(p)] == []


def test_rule_sees_a_hand_integer_bound(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "if t < 0:\n    raise ParameterError('t')\n"
        "if x.k <= 3 or flag:\n    raise errors.ParameterError('k')\n"
        "if not 0 <= seed < 2**64:\n    raise ParameterError\n"
        "if -1 > t:\n    log()\n    raise ParameterError('t')\n"
        "if self.kappa <= 0.0:\n    raise ParameterError('kappa')\n"
        "if d < 3:\n    raise ValidationError('config d')\n"
        "if n <= d or 2 * n < 3:\n    raise ParameterError('n')\n"
        "if t < 0:\n    t = 0\nelse:\n    raise ParameterError('t')\n"
    )
    assert _hand_integer_bounds(path) == ["probe.py:1", "probe.py:3", "probe.py:5", "probe.py:7", "probe.py:12"]


def _names(node, name: str) -> bool:
    """node is the name `name` or an attribute `name` of something."""
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def _beta_against_d_minus_2(path: Path) -> list[str]:
    """Comparisons that set beta (a name or attribute) against d - 2 outside
    the body of a function walk_decay_constant: a restated walk-bound domain."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "walk_decay_constant"
        for sub in ast.walk(node)
    }

    def d_minus_2(node) -> bool:
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and _names(node.left, "d")
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2
        )

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in inside:
            continue
        sides = [node.left, *node.comparators]
        if any(
            (_names(a, "beta") and d_minus_2(b)) or (d_minus_2(a) and _names(b, "beta"))
            for a, b in zip(sides, sides[1:])
        ):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_one_gate_decides_the_walk_bound():
    # decay_profile and explicit_variance_bound take their kind from
    # walk_decay_constant, so the bound's domain is decided in one place
    assert [hit for p in SOURCES for hit in _beta_against_d_minus_2(p)] == []


def test_rule_sees_a_restated_walk_gate(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def walk_decay_constant(d, beta):\n    if not 0.0 < beta < d - 2:\n        raise E\n"
        "def decay_profile(d, beta):\n    if beta < d - 2:\n        kind = 'general'\n"
        "ok = report.beta >= self.d - 2.0\n"
        "flipped = 0 < d - 2 <= beta\n"
        "fine = beta < d - 1 or d - 2 > 0 or gap < d - 2 or beta < n - 2\n"
    )
    assert _beta_against_d_minus_2(path) == ["probe.py:5", "probe.py:7", "probe.py:8"]


class TestEigenRouteConstants:
    """The invariants that the comments on evolution's route constants state."""

    def test_no_cluster_wraps_the_pole(self):
        # below _POLE_BOUND every Cayley angle is 2 / _POLE_BOUND from the
        # pole, so the two ends of the sorted angles are further apart
        # than a cluster gap
        assert evolution._PAIR_GAP < 4.0 / evolution._POLE_BOUND

    def test_shifts_a_radian_apart_on_the_circle(self):
        a, b = evolution._CAYLEY_SHIFTS
        gap = abs(a - b) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) >= 1.0


class TestCheck:
    def test_below_tolerance_passes(self):
        assert check(0.5e-10, 1e-10, NumericalError, "probe") is None

    def test_equal_to_tolerance_raises(self):
        with pytest.raises(NumericalError):
            check(1e-10, 1e-10, NumericalError, "probe")

    @pytest.mark.parametrize("dev", [math.nan, math.inf])
    def test_non_finite_deviation_raises(self, dev):
        with pytest.raises(NumericalError):
            check(dev, 1e-10, NumericalError, "probe")

    def test_raises_the_given_exception(self):
        with pytest.raises(qge.ValidationError):
            check(1.0, 1e-10, qge.ValidationError, "probe")

    def test_message_names_both_numbers(self):
        with pytest.raises(NumericalError) as info:
            check(3.25e-7, 1e-8, NumericalError, "probe deviation")
        message = str(info.value)
        assert message.startswith("probe deviation")
        assert "3.250e-07" in message and "1.000e-08" in message


class TestMeasures:
    def test_unitarity_batched(self):
        u = np.stack([np.eye(3), 2.0 * np.eye(3), np.eye(3)])
        assert unitarity_deviation(u) == 3.0
        assert unitarity_deviation(u[0]) == 0.0
        assert unitarity_deviation(np.zeros((0, 0))) == 0.0

    def test_stochasticity_rows_and_columns(self):
        w = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert stochasticity_deviation(w) == 0.25  # columns sum to 0.75, 1.25
        assert stochasticity_deviation(w.T) == 0.25

    def test_stochasticity_nan_anywhere(self):
        w = np.full((2, 2, 2), 0.5)
        w[1, 0, 1] = np.nan
        assert math.isnan(stochasticity_deviation(w))

    def test_imag_residue_relative_to_real_part(self):
        assert imag_residue(3.0 + 1e-9j) == pytest.approx(1e-9 / 3.0)
        assert imag_residue(0.5 + 1e-9j) == 1e-9
        assert imag_residue(np.array([2.0 + 0j, 4.0 + 1e-8j])) == pytest.approx(2.5e-9)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(1.0, math.inf), [1.0, math.nan]])
    def test_imag_residue_non_finite_is_infinite(self, z):
        assert imag_residue(z) == math.inf
