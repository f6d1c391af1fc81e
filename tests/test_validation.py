"""Input validation that survives `python -O`, no unreferenced code in
`src/`, and the canonical form of the sparse containers.

Every vector (FieldExpr, RavSeries, BiDist, TriElement, the dg-model's
AElement, a PBW module's memoized states) sums through scalars.vadd/
vsub/vscale, so each of its coefficients is nonzero and canonical: a
Scalar only while it carries a parameter, else an int or a Fraction with
denominator > 1.  Coefficients are read through the scalars readers
that accept both kinds.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

from hypothesis import given, seed, settings, strategies as st

from raviolo import catalog, cli, engine
from raviolo.dgmodel import AElement, a_mul
from raviolo.modes import FieldExpr
from raviolo.scalars import Scalar, K_PARAM, KAPPA_PARAM, XI_PARAM
from raviolo.series import BiDist, RavSeries, TriElement

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
ASSERT_ALLOWLIST = {
    ("series", "_zw_relation"):
        "raw_dz/raw_dw keep every term a bare degree-2 Omega pair",
    ("series", "tri_normalize"):
        "the pair was sorted above, so only (z, w) is left",
}


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
_SCALAR_ONLY = {"parity_twist", "rational_value", "degrees", "is_zero"}


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


# ------------------------------------------------------- dead code

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _py_files(*dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for fn in sorted(files):
                if fn.endswith(".py"):
                    yield os.path.join(base, fn)


def _references(tree):
    """Every name a tree loads, reads as an attribute, imports, or spells
    as a string (getattr, monkeypatch and tracing tables do)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_unreferenced_definitions_in_src():
    # a module-level def/class must be used outside its own body
    used, defined = Counter(), []
    for path in _py_files("src", "tests", "bench"):
        tree = ast.parse(open(path).read(), path)
        used.update(_references(tree))
        if os.path.dirname(path) == os.path.join(ROOT, "src", "raviolo"):
            defined.extend(
                (os.path.basename(path), node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)))
    assert len(defined) > 100
    dead = ["%s:%s" % (fn, node.name) for fn, node in defined
            if used[node.name] <= Counter(_references(node))[node.name]]
    assert not dead, "defined but never referenced: %s" % dead


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
_TRI_KEYS = [("0", 0, 0), ("0", 1, 0), ("z", 0, 1), ("w", 1, 0),
             ("d", 0, 2), ("dz", 0, 1), ("wd", 1, 0)]
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


def _check(x, y, c, products):
    results = [x + y, x - y] + products
    if hasattr(x, "scale"):
        results.append(x.scale(c))
        assert _empty(x.scale(0))
    assert all(_canonical(r) for r in results)
    neg = x.scale(-1) if isinstance(x, AElement) else -x
    assert _canonical(neg)
    assert _empty(x - x) and _empty(x + neg)


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_FIELD_KEYS), _dict(_FIELD_KEYS), _COEFFS)
def test_field_expr_keeps_no_zero(a, b, c):
    x, y = FieldExpr(a), FieldExpr(b)
    _check(x, y, c, [x.deriv()])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_SERIES_KEYS), _dict(_SERIES_KEYS), _COEFFS)
def test_rav_series_keeps_no_zero(a, b, c):
    x, y = RavSeries(a, 3), RavSeries(b, 3)
    _check(x, y, c, [x.mul(y), x.dz()])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_BIV_KEYS), _dict(_BIV_KEYS), _dict(_SERIES_KEYS), _COEFFS)
def test_bidist_keeps_no_zero(a, b, f, c):
    x, y, g = BiDist(a, 3, 3), BiDist(b, 3, 3), RavSeries(f, 3)
    _check(x, y, c, [x.mul_series_z(g), x.mul_series_w(g),
                     x.mul_w() - x.mul_z(), x.mul_omega_w(2), x.dw()])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_TRI_KEYS), _dict(_TRI_KEYS), _COEFFS)
def test_tri_element_keeps_no_zero(a, b, c):
    _check(TriElement(a), TriElement(b), c, [])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(_dict(_POLY_KEYS), _dict(_POLY_KEYS), _dict(_POLY_KEYS),
       _dict(_POLY_KEYS), _COEFFS)
def test_dg_element_keeps_no_zero(e1, o1, e2, o2, c):
    x, y = AElement(e1, o1), AElement(e2, o2)
    _check(x, y, c, [a_mul(x, y)])


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
