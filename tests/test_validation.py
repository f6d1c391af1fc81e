"""Input validation that survives `python -O`, no code in `src/` that no
claim runs, and the canonical form of the sparse containers.

Every vector (FieldExpr, RavSeries, BiDist, the dg-model's
AElement, a PBW module's memoized states, Echelon rows and kernels,
QSeries terms) sums through scalars.vadd/vsub/vscale, so each of its
coefficients is nonzero and canonical: a Scalar only while it carries a
parameter, else an int or a Fraction with denominator > 1.  Coefficients are read through the scalars readers
that accept both kinds.
"""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import random
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from raviolo import catalog, cli, engine
from raviolo.dgmodel import AElement, a_mul
from raviolo.linalg import column_kernel
from raviolo.modes import FieldExpr
from raviolo.scalars import Scalar, K_PARAM, KAPPA_PARAM, XI_PARAM, vadd
from raviolo.series import BiDist, RavSeries, _bidist

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


# ------------------------------------------------ validation without assert

_VALIDATION = r"""
from raviolo import catalog, engine
from raviolo.modes import FieldExpr, OpeTable


def kind(f):
    try:
        f()
    except Exception as e:
        return type(e).__name__
    return "accepted"


vir = engine.PBWModule(catalog.virasoro(), spin_cap=2)
print(kind(lambda: catalog.character(vir, 6)))
print(kind(lambda: OpeTable({("b", "nu", -1): FieldExpr.const(1)})))
print(kind(lambda: catalog.pochhammer_expand([((), -1, 0)], 3)))
"""


def test_invalid_input_raises_value_error_with_and_without_asserts():
    # a window too small for the character order, a negative OPE index
    # and an unbounded q-Pochhammer inverse; python -O strips asserts
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for flags in ([], ["-O"]):
        r = subprocess.run([sys.executable] + flags + ["-c", _VALIDATION],
                           capture_output=True, text=True, env=env,
                           timeout=120)
        assert r.returncode == 0, (flags, r.stderr)
        assert r.stdout.split() == ["ValueError"] * 3, (flags, r.stdout)


# internal invariants that may stay asserts: (module, function) -> reason
ASSERT_ALLOWLIST = {}


def _asserts(path):
    """(function name, line) of each assert statement in one file."""
    tree = ast.parse(open(path).read(), path)
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                out.append((fn, child.lineno))
            name = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            walk(child, name)
    walk(tree, None)
    return out


def test_no_validation_asserts_in_src():
    pkg = os.path.join(SRC, "raviolo")
    bad, seen = [], set()
    for fn in sorted(os.listdir(pkg)):
        if not fn.endswith(".py"):
            continue
        module = fn[:-3]
        for func, line in _asserts(os.path.join(pkg, fn)):
            if (module, func) in ASSERT_ALLOWLIST:
                seen.add((module, func))
            else:
                bad.append("%s:%d (%s)" % (fn, line, func))
    assert not bad, "validation must raise, not assert: %s" % bad
    assert seen == set(ASSERT_ALLOWLIST), "stale allowlist entries"


# names of Scalar methods whose callers outside scalars.py would assume a
# coefficient is a Scalar; the readers twist, rational_of and degrees_of
# (and plain truth tests) accept both kinds
_SCALAR_ONLY = {"parity_twist", "degrees", "is_zero"}


def test_coefficients_read_through_the_readers():
    pkg = os.path.join(SRC, "raviolo")
    bad = []
    for fn in sorted(os.listdir(pkg)):
        if not fn.endswith(".py") or fn == "scalars.py":
            continue
        tree = ast.parse(open(os.path.join(pkg, fn)).read(), fn)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _SCALAR_ONLY:
                bad.append("%s:%d .%s()" % (fn, node.lineno, node.func.attr))
    assert not bad, "read coefficients through the scalars readers: %s" \
        % bad


def test_elimination_takes_sparse_vectors():
    # callers hand linalg sparse coordinates: no zip(*...) transpose in
    # src/, and the dense rref is called nowhere outside linalg.py
    pkg = os.path.join(SRC, "raviolo")
    bad = []
    for fn in sorted(os.listdir(pkg)):
        if not fn.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(pkg, fn)).read(), fn)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "zip" and any(isinstance(a, ast.Starred)
                                     for a in node.args):
                bad.append("%s:%d zip(*...)" % (fn, node.lineno))
            if name == "rref" and fn != "linalg.py":
                bad.append("%s:%d rref()" % (fn, node.lineno))
    assert not bad, "pass sparse vectors to linalg: %s" % bad


# the one place that adds a coefficient and drops it when it cancels
_ADD_AND_DROP = {("scalars.py", "vadd"), ("scalars.py", "vsub")}


def _drops(node):
    """Is node a `del d[k]` or a two-argument `.pop(k, default)`?"""
    if isinstance(node, ast.Delete):
        return any(isinstance(t, ast.Subscript) for t in node.targets)
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and \
        node.func.attr == "pop" and len(node.args) == 2


def test_only_the_vector_primitive_drops_entries():
    # a hand-written add-and-drop loop deletes the entries that cancel;
    # every other sum goes through vadd/vscale/vsub
    pkg = os.path.join(SRC, "raviolo")
    bad = []

    def walk(node, fn, qualname):
        for child in ast.iter_child_nodes(node):
            if _drops(child) and (fn, qualname) not in _ADD_AND_DROP:
                bad.append("%s:%d %s" % (fn, child.lineno, qualname))
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = qualname + "." + child.name if qualname \
                    else child.name
            walk(child, fn, inner)
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            walk(ast.parse(open(os.path.join(pkg, fn)).read(), fn), fn, "")
    assert not bad, "add and drop through scalars.vadd/vsub: %s" % bad


def test_only_the_one_printer_folds_signs():
    # a hand-written linear-combination printer folds a negative term
    # into " - "; every one goes through scalars.sum_str
    pkg = os.path.join(SRC, "raviolo")
    bad = []
    for fn in sorted(os.listdir(pkg)):
        if not fn.endswith(".py") or fn == "scalars.py":
            continue
        tree = ast.parse(open(os.path.join(pkg, fn)).read(), fn)
        bad.extend("%s:%d" % (fn, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value == " - ")
    assert not bad, "print linear combinations with scalars.sum_str: %s" \
        % bad


def test_commands_read_the_presentation_not_the_entries():
    # only the DSL parser and printer read a document's entries; a
    # command reads the presentation it builds
    tree = ast.parse(open(os.path.join(SRC, "raviolo", "cli.py")).read())
    bad = ["%s:%d" % (fn.name, node.lineno)
           for fn in tree.body if isinstance(fn, ast.FunctionDef)
           and fn.name.startswith("cmd_") for node in ast.walk(fn)
           if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert not bad, "commands read .entries: %s" % bad


# defaulted parameters of every def in src/: a ratchet, lowered as options
# go and never raised
_DEFAULTED_PARAMETERS = 48


def test_defaulted_parameters_do_not_grow():
    pkg = os.path.join(SRC, "raviolo")
    count = 0
    for fn in sorted(os.listdir(pkg)):
        if not fn.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(open(os.path.join(pkg, fn)).read())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert count <= _DEFAULTED_PARAMETERS, \
        "%d defaulted parameters in src/, at most %d" % (
            count, _DEFAULTED_PARAMETERS)


# ------------------------------------------------------- reached code
#
# Every def and method in src/ must run under a claim: the acceptance
# criteria and one pass of the items (and their checks) of each benchmark
# workload, traced by a sys.setprofile hook.  A name match would keep a
# method alive because another class has a method of the same name.

ROOT = os.path.join(os.path.dirname(__file__), "..")
PKG = os.path.join(SRC, "raviolo")


def _py_files(*dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for fn in sorted(files):
                if fn.endswith(".py"):
                    yield os.path.join(base, fn)


# the package modules, in the order bench/run.py imports them
LAYERS = ("scalars", "modes", "engine", "series", "linalg", "dgmodel",
          "catalog", "cli")

# (file, qualified name) -> why it may stay unreached
UNREACHED_ALLOWLIST = {
    ("modes.py", "GeneratorInfo.__repr__"): "repr, for debugging",
    ("modes.py", "FieldExpr.__str__"): "str, for debugging",
    ("scalars.py", "Param.__repr__"): "repr, for debugging",
    ("series.py", "RavSeries.__str__"): "str, for debugging",
    ("series.py", "format_series"): "called only by RavSeries.__str__",
    ("series.py", "format_series.<locals>.monostr"):
        "called only by RavSeries.__str__",
    ("modes.py", "InfiniteGradedPiece.__init__"):
        "an exception, raised on an unbounded graded piece",
    ("cli.py", "_parse_line.<locals>.err"):
        "error-only: builds the message of a malformed line",
    ("modes.py", "FieldExpr.__eq__"):
        "deleting it would silently make == an identity test",
    ("scalars.py", "Scalar.__hash__"):
        "deleting it would make Scalar unhashable beside its __eq__",
    ("linalg.py", "rref"):
        "the benchmark counts its calls (linalg.rref.calls)",
}


def _src_functions():
    """(file, qualified name) of every def and method in src/raviolo: the
    code objects with their own locals, without lambdas, comprehensions
    and class bodies."""
    out = set()

    def walk(code, fn):
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                if c.co_flags & inspect.CO_NEWLOCALS and \
                        not c.co_name.startswith("<"):
                    out.add((fn, c.co_qualname))
                walk(c, fn)
    for fn in sorted(os.listdir(PKG)):
        if fn.endswith(".py"):
            path = os.path.join(PKG, fn)
            with open(path) as fh:
                walk(compile(fh.read(), path, "exec"), fn)
    return out


class _Capture:
    """capsys for a criterion run outside its own test: readouterr()
    returns and clears what was printed since the last call."""

    def __init__(self):
        self.buf = io.StringIO()

    def readouterr(self):
        out = self.buf.getvalue()
        self.buf.seek(0)
        self.buf.truncate()
        return types.SimpleNamespace(out=out, err="")


def _bench_pass():
    """Every item of every benchmark workload run once and checked, from
    the already imported package (bench/run.py would import it anew)."""
    bench = os.path.join(ROOT, "bench")
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(bench, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = write
    with open(os.path.join(bench, "oracle.json")) as fh:
        oracle = json.load(fh)
    rv = types.SimpleNamespace(**{
        layer: importlib.import_module("raviolo." + layer)
        for layer in LAYERS})
    for name, workload in workloads.WORKLOADS.items():
        work = workload(rv, random.Random(1), oracle[name],
                        os.path.join(bench, "corpus"))
        for item in work.items:
            ops, _ = item.check(item.run())
            assert all(ok for _, ok, _ in ops), (name, item.label, ops)


@pytest.fixture(scope="module")
def claim_trace():
    """(file, qualified name) of each src/ function that runs under the
    criteria and one benchmark pass.  The lru_caches are cleared first:
    a cache filled by an earlier test would hide its function's body."""
    import test_acceptance
    for layer in LAYERS:
        for value in vars(importlib.import_module("raviolo." + layer)
                          ).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
    cap = _Capture()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(cap.buf):
            for name in sorted(vars(test_acceptance)):
                if not name.startswith("test_criterion_"):
                    continue
                criterion = getattr(test_acceptance, name)
                if "capsys" in inspect.signature(criterion).parameters:
                    criterion(cap)
                else:
                    criterion()
        _bench_pass()
    finally:
        sys.setprofile(None)
    pkg = os.path.realpath(PKG)
    seen = set()
    for c in codes:
        if os.path.dirname(os.path.realpath(c.co_filename)) == pkg:
            # a nested function runs only after the enclosing one ran and
            # defined it (a decorator runs at import, before the hook)
            parts = c.co_qualname.split(".<locals>.")
            seen.update((os.path.basename(c.co_filename),
                         ".<locals>.".join(parts[:i]))
                        for i in range(1, len(parts) + 1))
    return seen


def _unreached(defined, seen, allowlist):
    """(defined functions that never ran and are not allowlisted,
    allowlist entries that ran or name no function)."""
    missing = sorted(defined - seen - set(allowlist))
    stale = sorted((set(allowlist) & seen) | (set(allowlist) - defined))
    return missing, stale


def test_every_src_function_runs_under_a_claim(claim_trace):
    defined = _src_functions()
    assert len(defined) > 250
    missing, stale = _unreached(defined, claim_trace, UNREACHED_ALLOWLIST)
    assert not missing, "no criterion or benchmark item runs: %s" % missing
    assert not stale, "stale allowlist entries: %s" % stale


def test_reach_checker_names_what_did_not_run(claim_trace):
    # drop one function that ran: the checker names it; let one
    # allowlisted function run: the checker calls its entry stale
    defined = _src_functions()
    gone = ("engine.py", "differential_map")
    assert gone in claim_trace
    assert _unreached(defined, claim_trace - {gone},
                      UNREACHED_ALLOWLIST) == ([gone], [])
    ran = ("linalg.py", "rref")
    assert _unreached(defined, claim_trace | {ran},
                      UNREACHED_ALLOWLIST) == ([], [ran])


def _references(tree):
    """Every name a tree loads, reads as an attribute, imports, or spells
    as a string (getattr, monkeypatch and tracing tables do; a dotted
    string such as "PBWModule._act_key" also names its last part)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
            if "." in node.value:
                yield node.value.rsplit(".", 1)[-1]


def test_every_src_class_is_referenced():
    # a class is built or raised, which the profile hook does not see, so
    # each module-level class must be used outside its own body by the
    # program, the benchmark or an acceptance criterion
    used, classes = Counter(), []
    callers = list(_py_files("src", "bench")) + [
        os.path.join(ROOT, "tests", "test_acceptance.py")]
    for path in callers:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        used.update(_references(tree))
        if os.path.dirname(path) == os.path.join(ROOT, "src", "raviolo"):
            classes.extend((os.path.basename(path), node)
                           for node in tree.body
                           if isinstance(node, ast.ClassDef))
    assert len(classes) > 10
    dead = ["%s:%s" % (fn, node.name) for fn, node in classes
            if used[node.name] <= Counter(_references(node))[node.name]]
    assert not dead, "defined but never referenced: %s" % dead


def test_no_unused_imports_in_src():
    # a module-level import must be referenced in its own module
    unused = []
    for path in _py_files("src"):
        tree = ast.parse(open(path).read(), path)
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in names:
                        unused.append("%s:%d %s" % (
                            os.path.basename(path), node.lineno, bound))
    assert not unused, "imported but never used: %s" % unused


# module-level caches outlive every module and every `rav` invocation,
# and the benchmark never clears them between passes, so a cache there
# shows a gain no invocation gets; these four hold pure functions of
# small integers and parameter monomials
MODULE_CACHE_ALLOWLIST = {("engine.py", "_expansion"),
                          ("series.py", "_delta_derivative"),
                          ("scalars.py", "_ODD"), ("scalars.py", "_BINOM")}


def _is_cache_decorator(node):
    """lru_cache(...), functools.lru_cache(...), cache or functools.cache."""
    if isinstance(node, ast.Call):
        node = node.func
    name = getattr(node, "id", getattr(node, "attr", None))
    return name in ("lru_cache", "cache")


def _is_empty_container(node):
    """{}, [], or dict(), list(), set() with no arguments."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return isinstance(node, ast.Call) and not node.args and \
        not node.keywords and getattr(node.func, "id", None) in \
        ("dict", "list", "set")


def _module_caches(tree, fn):
    """(file, name) of every cache-decorated def in the tree and every
    module-level name bound to an empty container."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(map(_is_cache_decorator, node.decorator_list)):
            out.add((fn, node.name))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                node.value is not None and _is_empty_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update((fn, t.id) for t in targets
                       if isinstance(t, ast.Name))
    return out


def test_no_module_level_caches_in_src():
    found = set()
    for path in _py_files("src"):
        found |= _module_caches(ast.parse(open(path).read(), path),
                                os.path.basename(path))
    assert found - MODULE_CACHE_ALLOWLIST == set(), \
        "keep memos on the object they describe: %s" % sorted(
            found - MODULE_CACHE_ALLOWLIST)
    assert found == MODULE_CACHE_ALLOWLIST, "stale allowlist entries"
    # the checker sees each form it forbids
    probe = ast.parse("import functools\n"
                      "from functools import lru_cache\n"
                      "A = {}\nB: list = []\nC = dict()\nD = {1: 2}\n"
                      "@functools.cache\ndef f(): pass\n"
                      "@lru_cache(maxsize=None)\ndef g(): pass\n"
                      "def h():\n    E = {}\n")
    assert _module_caches(probe, "p.py") == {
        ("p.py", n) for n in ("A", "B", "C", "f", "g")}


# ---------------------------------------------------- canonical form

K = Scalar.param(K_PARAM)
KAP = Scalar.param(KAPPA_PARAM)
XI = Scalar.param(XI_PARAM)
# coefficients chosen so that sums and products cancel often
_COEFFS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                           K, -K, K + 1, KAP, -KAP, XI, KAP * XI])


def _dict(keys):
    return st.dictionaries(st.sampled_from(keys), _COEFFS, max_size=5)


_FIELD_KEYS = [(), (("a", 0),), (("a", 1),), (("a", 0), ("b", 0))]
_SERIES_KEYS = list(range(-4, 3))
_BIV_KEYS = [(i, j) for i in range(-3, 2) for j in range(-3, 2)]
_POLY_KEYS = [(a, b, e) for a in range(2) for b in range(2) for e in (0, 1)]


def _terms(x):
    return [x.even, x.odd] if isinstance(x, AElement) else [x.terms]


def _coeff_ok(c):
    """A vector entry under the coefficient rule."""
    if isinstance(c, Scalar):
        return any(mono for mono in c.terms)  # carries a parameter
    if type(c) is Fraction:
        return c.denominator > 1
    return type(c) is int and c != 0


def _canonical(x):
    return all(_coeff_ok(c) for t in _terms(x) for c in t.values())


def _empty(x):
    return not any(_terms(x))


def _plus(x, y):
    # a BiDist has no +: distributions sum by vadd on .terms, wrapped
    # as they come (the constructor would re-canonicalise them)
    if isinstance(x, BiDist):
        return _bidist(vadd(dict(x.terms), y.terms), x.ztr, x.wtr)
    return x + y


def _check(x, y, c, products):
    results = [_plus(x, y), x - y, x.scale(c)] + products
    assert _empty(x.scale(0))
    assert all(_canonical(r) for r in results)
    neg = x.scale(-1)
    assert _canonical(neg)
    assert _empty(x - x) and _empty(_plus(x, neg))


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_FIELD_KEYS), _dict(_FIELD_KEYS), _COEFFS)
def test_field_expr_keeps_no_zero(a, b, c):
    x, y = FieldExpr(a), FieldExpr(b)
    _check(x, y, c, [x.deriv()])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_SERIES_KEYS))
def test_rav_series_keeps_no_zero(a):
    assert _canonical(RavSeries(a, 3))


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_BIV_KEYS), _dict(_BIV_KEYS), _dict(_SERIES_KEYS), _COEFFS)
def test_bidist_keeps_no_zero(a, b, f, c):
    x, y, g = BiDist(a, 3, 3), BiDist(b, 3, 3), RavSeries(f, 3)
    # mul_series_w takes one series per trailing key, here the empty one
    gw = {(j,): c for j, c in g.terms.items()}
    _check(x, y, c, [x.mul_series_z(g), x.mul_series_w(gw),
                     x.mul_w() - x.mul_z(), x.mul_omega_w(2),
                     x.mul_omega_z(1)])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_POLY_KEYS), _dict(_POLY_KEYS), _dict(_POLY_KEYS),
       _dict(_POLY_KEYS), _COEFFS)
def test_dg_element_keeps_no_zero(e1, o1, e2, o2, c):
    # a dg-model element has a difference and the product, which also
    # scales by a constant element
    x, y = AElement(e1, o1), AElement(e2, o2)
    results = [x - y, a_mul(x, y), a_mul(AElement({(0, 0, 0): c}), x)]
    assert all(_canonical(r) for r in results)
    assert _empty(x - x)


# rationals, some of them not canonical as given
_RATIONALS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
                              Fraction(4, 2), Fraction(-3, 3)])
_QS_KEYS = [(0, ()), (1, ()), (Fraction(1, 2), (("y", 1),)),
            (1, (("y", -1),)), (2, (("y", 1), ("z", 2)))]


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), _RATIONALS, max_size=4),
                max_size=6),
       st.dictionaries(st.integers(0, 5), _RATIONALS, max_size=4),
       st.dictionaries(st.sampled_from(_QS_KEYS), _RATIONALS, max_size=4),
       st.dictionaries(st.sampled_from(_QS_KEYS), _RATIONALS, max_size=4))
def test_echelon_and_qseries_keep_the_coefficient_rule(columns, target,
                                                       qa, qb):
    ech, kernel = column_kernel(columns)
    vecs = [v for pair in ech.rows.values() for v in pair] + kernel + \
        list(ech.reduce(target))
    x, y = catalog.QSeries(qa, 3), catalog.QSeries(qb, 3)
    vecs += [q.terms for q in (x, y, x * y)]
    bad = [c for v in vecs for c in v.values() if not _coeff_ok(c)]
    assert not bad, bad


def test_module_memos_keep_the_coefficient_rule(monkeypatch, capsys):
    """Every coefficient memoized by the PBW modules of a suite run on
    the four presets (parameters symbolic) and of `rav brst` (K and
    kappa specialized) follows the rule."""
    mods = []
    init = engine.PBWModule.__init__

    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        mods.append(self)

    monkeypatch.setattr(engine.PBWModule, "__init__", register)
    for pres in (catalog.fc(), catalog.heisenberg(), catalog.virasoro(),
                 catalog.sl2()):
        mod = engine.PBWModule(pres, spin_cap=3, word_cap=3)
        engine.verify_axioms(mod, states=engine.default_samples(mod, 1),
                             tay=1)
    sl2 = os.path.join(ROOT, "examples", "dsl", "sl2.rav")
    assert cli.main(["brst", sl2, "--spin", "2", "--word", "3"]) == 0
    capsys.readouterr()
    assert len(mods) == 5
    for mod in mods:
        coeffs = [c for memo in (mod._act_memo, mod._mono_memo)
                  for vec in memo.values() for c in vec.values()]
        assert coeffs, mod.pres.name
        bad = [c for c in coeffs if not _coeff_ok(c)]
        assert not bad, (mod.pres.name, bad[:5])
    # the symbolic runs do memoize parameters, so both kinds were seen
    assert any(isinstance(c, Scalar) for mod in mods[:4]
               for vec in mod._act_memo.values() for c in vec.values())


def test_lattice_tables_keep_the_coefficient_rule():
    """Every coefficient in the lattice module's exponential and
    vertex-mode tables after a relations check follows the rule."""
    lat = catalog.LatticeModule(window=3, spin_cap=3, word_cap=4)
    assert catalog.check_lattice_relations(
        lat, mrange=2, spin_cap=2) == (True, None)
    vecs = [v for parts in lat._exp.values() for v in parts]
    vecs += list(lat._vertex.values())
    coeffs = [c for vec in vecs for c in vec.values()]
    bad = [c for c in coeffs if not _coeff_ok(c)]
    assert not bad, bad[:5]
    # the 1/p of the exponential leaves proper fractions in the tables
    assert any(type(c) is Fraction for c in coeffs)
