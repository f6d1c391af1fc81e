"""Line-oriented presentation DSL and the rav command-line tool.

Grammar (one statement per line, # comments):

    algebra NAME
    param NAME : deg INT (even|odd)
    generator NAME : deg INT spin RATIONAL (even|odd) [flavor INT ...]
    ope A B : N -> EXPR ; N -> EXPR ; ...
    use PRESET(key=value, ...)
    superpotential EXPR

    EXPR := RATIONAL | PARAM | GEN | D^k GEN | NO[EXPR, EXPR]
          | EXPR + EXPR | RATIONAL * EXPR

Missing opposite-order OPE entries are completed by the skew-symmetry
formula; entries declared on both sides are cross-checked and conflicts
rejected.  Every entry's grading is validated at parse time.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from math import factorial

from .scalars import (Scalar, Param, Grading, K_PARAM, KAPPA_PARAM,
                      XI_PARAM, as_scalar, degrees_of, rational_of, vadd,
                      vscale, veq)
from .modes import GeneratorInfo, OpeTable, FieldExpr, InfiniteGradedPiece
from .linalg import CoordinateError
from .engine import (
    Presentation, PresentationError, PBWModule, selected_identities,
    verify_axioms, superpotential_check, differential_map, check_square_zero,
    dg_cohomology, ghost_extension, brst_charge,
)
from . import catalog


class SpecError(Exception):
    """Input error: bad syntax, bad grading, unknown name (exit 2)."""


BUILTIN_PARAMS = {"K": K_PARAM, "kappa": KAPPA_PARAM, "xi": XI_PARAM}

PRESETS = {
    "fc": catalog.fc,
    "heisenberg": catalog.heisenberg,
    "virasoro": catalog.virasoro,
    "sl2": catalog.sl2,
    "fc_multi": catalog.fc_multi,
}


class SpecDoc:
    """Parsed presentation plus run options."""

    def __init__(self):
        self.name = "unnamed"
        self.params = dict(BUILTIN_PARAMS)
        self.declared_params = []
        self.gens = []
        self.entries = {}
        self.declared = set()
        self.derived = []
        self.superpotential = None

    @property
    def gen_names(self):
        return [g.name for g in self.gens]

    def grading(self, name):
        for g in self.gens:
            if g.name == name:
                return g.grading
        raise SpecError("unknown generator %r" % name)

    def presentation(self):
        if not self.gens:
            raise SpecError("no generators")
        return Presentation(self.name, self.gens, OpeTable(self.entries))


# ------------------------------------------------------ expressions

def _rational(text):
    """A rational literal; a zero denominator is an input error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecError("bad rational %r" % text) from None


_TOKEN = re.compile(r"\s*(NO|D\^\d+|-?\d+(?:/\d+)?|[A-Za-z_]\w*|[\[\],+*])")


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SpecError("bad token at %r" % text[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _nop_concat(e1, e2):
    out = {}
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            vadd(out, {m1 + m2: c1 * c2})
    return FieldExpr(out)


class _ExprParser:
    def __init__(self, tokens, doc):
        self.toks = tokens
        self.pos = 0
        self.doc = doc

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, want=None):
        t = self.peek()
        if t is None:
            raise SpecError("unexpected end of expression")
        if want is not None and t != want:
            raise SpecError("expected %r, got %r" % (want, t))
        self.pos += 1
        return t

    def expr(self):
        out = self.term()
        while self.peek() == "+":
            self.take("+")
            out = out + self.term()
        return out

    def term(self):
        t = self.peek()
        if t is not None and re.fullmatch(r"-?\d+(?:/\d+)?", t):
            q = _rational(t)
            self.take()
            if self.peek() == "*":
                self.take("*")
                return self.term().scale(q)
            return FieldExpr.const(q)
        return self.atom()

    def atom(self):
        t = self.take()
        if t == "NO":
            self.take("[")
            a = self.expr()
            self.take(",")
            b = self.expr()
            self.take("]")
            return _nop_concat(a, b)
        if t.startswith("D^"):
            name = self.take()
            if name not in self.doc.gen_names:
                raise SpecError("unknown generator %r" % name)
            return FieldExpr.gen(name, int(t[2:]))
        if t in self.doc.gen_names:
            return FieldExpr.gen(t)
        if t in self.doc.params:
            return FieldExpr.const(Scalar.param(self.doc.params[t]))
        raise SpecError("unknown name %r" % t)


def parse_expr(text, doc):
    p = _ExprParser(_tokenize(text), doc)
    out = p.expr()
    if p.peek() is not None:
        raise SpecError("trailing input %r" % p.toks[p.pos:])
    return out


# ------------------------------------------------------ statements

def _grading_key(g):
    """The (cohdeg, spin, totalized parity, flavor) tuple that grading
    errors print."""
    return (g.cohdeg, g.spin, g.tot, g.flavor)


def _expr_grading(expr, doc):
    """Common grading of every term, or raise with the offending term."""
    grades = set()
    for mono, c in expr.terms.items():
        coh, par = degrees_of(c)
        g = Grading(coh, 0, par)
        for name, k in mono:
            g = g + doc.grading(name) + Grading(spin=k)
        grades.add(_grading_key(g))
    if len(grades) > 1:
        raise SpecError("mixed grading in %s" % expr)
    return grades.pop() if grades else None


def _check_entry_grading(doc, a, b, n, expr):
    got = _expr_grading(expr, doc)
    if got is None:
        return
    # a_(n) b: the mode a_(n), n >= 0, shifts cohdeg by -1, spin by -n-1
    want = _grading_key(doc.grading(a) + doc.grading(b)
                        + Grading(-1, -n - 1))
    if got != want:
        raise SpecError("entry (%s, %s, %d) has grading %s, expected %s"
                        % (a, b, n, got, want))


def _parse_line(doc, line, lineno):
    def err(msg):
        raise SpecError("line %d: %s" % (lineno, msg))

    def read(parse, *args):
        # an expression or rational error, prefixed like a statement error
        try:
            return parse(*args)
        except SpecError as e:
            err(e)

    words = line.split()
    head = words[0]
    if head == "algebra":
        if len(words) != 2:
            err("algebra NAME")
        doc.name = words[1]
    elif head == "param":
        m = re.fullmatch(r"param\s+(\w+)\s*:\s*deg\s+(-?\d+)\s+(even|odd)",
                         line)
        if not m:
            err("param NAME : deg INT (even|odd)")
        nm, deg, par = m.group(1), int(m.group(2)), m.group(3)
        if nm in doc.params:
            err("param %r is %s" % (nm, "builtin" if nm in BUILTIN_PARAMS
                                    else "already declared"))
        if nm in doc.gen_names:
            err("param %r is already a generator" % nm)
        doc.params[nm] = Param(nm, deg, 1 if par == "odd" else 0)
        doc.declared_params.append(nm)
    elif head == "generator":
        m = re.fullmatch(
            r"generator\s+(\w+)\s*:\s*deg\s+(-?\d+)\s+spin\s+"
            r"(-?\d+(?:/\d+)?)\s+(even|odd)(\s+flavor(\s+-?\d+)+)?", line)
        if not m:
            err("generator NAME : deg INT spin RATIONAL (even|odd)"
                " [flavor INT ...]")
        nm = m.group(1)
        if nm in doc.gen_names:
            err("duplicate generator %r" % nm)
        if nm in doc.params:
            err("generator %r is already a param" % nm)
        fl = tuple(int(x) for x in m.group(5).split()[1:]) if m.group(5) \
            else ()
        doc.gens.append(GeneratorInfo(
            nm, Grading(int(m.group(2)), read(_rational, m.group(3)),
                        1 if m.group(4) == "odd" else 0, fl)))
    elif head == "ope":
        m = re.fullmatch(r"ope\s+(\w+)\s+(\w+)\s*:\s*(.*)", line)
        if not m:
            err("ope A B : N -> EXPR ; ...")
        a, b, rest = m.group(1), m.group(2), m.group(3)
        for nm in (a, b):
            if nm not in doc.gen_names:
                err("unknown generator %r" % nm)
        for clause in rest.split(";"):
            cm = re.fullmatch(r"\s*(\d+)\s*->\s*(.*\S)\s*", clause)
            if not cm:
                err("clause %r is not N -> EXPR" % clause.strip())
            n = int(cm.group(1))
            expr = read(parse_expr, cm.group(2), doc)
            _check_entry_grading(doc, a, b, n, expr)
            key = (a, b, n)
            if key in doc.declared:
                err("duplicate entry (%s, %s, %d)" % key)
            doc.declared.add(key)
            if expr.terms:
                doc.entries[key] = expr
    elif head == "use":
        m = re.fullmatch(r"use\s+(\w+)\s*(?:\(\s*(.*?)\s*\))?", line)
        if not m or m.group(1) not in PRESETS:
            err("use PRESET(args); presets: %s" % ", ".join(sorted(PRESETS)))
        kwargs = {}
        if m.group(2):
            for piece in m.group(2).split(","):
                km = re.fullmatch(r"\s*(\w+)\s*=\s*(-?\d+(?:/\d+)?)\s*",
                                  piece)
                if not km:
                    err("bad preset argument %r" % piece.strip())
                v = km.group(2)
                kwargs[km.group(1)] = int(v) if "/" not in v \
                    else read(_rational, v)
        try:
            pres = PRESETS[m.group(1)](**kwargs)
        except TypeError as e:
            err(str(e))
        for g in pres.gens:
            if g.name in doc.gen_names:
                err("preset generator %r already declared" % g.name)
            if g.name in doc.params:
                err("preset generator %r is already a param" % g.name)
            doc.gens.append(g)
        for key, e in pres.table.entries.items():
            doc.declared.add(key)
            doc.entries[key] = e
    elif head == "superpotential":
        doc.superpotential = read(parse_expr, line[len("superpotential"):],
                                  doc)
    else:
        err("unknown statement %r" % head)


def _skew_entry(doc, a, b, n):
    """b_(n) a from the declared (a, b, *) entries, n >= 0:
    (-1)^(|a||b|) sum_l ((-1)^(n+l)/l!) d^l (a_(n+l) b)."""
    ga, gb = doc.grading(a), doc.grading(b)
    kos = -1 if (ga.tot and gb.tot) else 1
    top = max((k for (x, y, k) in doc.entries
               if (x, y) == (a, b)), default=-1)
    out = FieldExpr.zero()
    for l in range(0, top - n + 1):
        e = doc.entries.get((a, b, n + l))
        if e is None:
            continue
        for _ in range(l):
            e = e.deriv()
        out = out + e.scale(Fraction(kos * (-1) ** ((n + l) % 2),
                                     factorial(l)))
    return out


def skew_complete(doc):
    """Fill in missing opposite-order entries; reject conflicts."""
    pairs = sorted({(a, b) for (a, b, n) in doc.declared})
    for a, b in pairs:
        rev_declared = any((x, y) == (b, a) for (x, y, n) in doc.declared)
        top = max((k for (x, y, k) in doc.entries if (x, y) == (a, b)),
                  default=-1)
        for n in range(0, top + 1):
            want = _skew_entry(doc, a, b, n)
            key = (b, a, n)
            if rev_declared or (a == b):
                have = doc.entries.get(key, FieldExpr.zero())
                if (have - want).terms:
                    raise SpecError(
                        "entries (%s, %s, %d) and (%s, %s, %d) violate "
                        "skew-symmetry" % (a, b, n, b, a, n))
            elif want.terms:
                doc.entries[key] = want
                doc.derived.append(key)


def parse_spec(text):
    doc = SpecDoc()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        _parse_line(doc, line, lineno)
    if not doc.gens:
        raise SpecError("no generators")
    skew_complete(doc)
    doc.presentation()
    return doc


# ------------------------------------------------------ printing

def _scalar_atoms(c):
    """A coefficient as a list of grammar atoms (one per parameter
    monomial)."""
    q = rational_of(c)
    if q is not None:
        return [str(q)]
    out = []
    for mono in sorted(c.terms, key=lambda m: [p.name for p in m]):
        q = c.terms[mono]
        if len(mono) > 1:
            raise SpecError("cannot print parameter product %s" % c)
        if not mono:
            out.append(str(q))
        elif q == 1:
            out.append(mono[0].name)
        else:
            out.append("%s * %s" % (q, mono[0].name))
    return out


def _factor_str(name, k):
    return name if k == 0 else "D^%d %s" % (k, name)


def expr_str(expr):
    if not expr.terms:
        return "0"
    bits = []
    for mono in sorted(expr.terms):
        c = expr.terms[mono]
        if not mono:
            bits.extend(_scalar_atoms(c))
            continue
        q = rational_of(c)
        if q is None:
            raise SpecError("cannot print coefficient %s of %s"
                            % (c, mono))
        base = _factor_str(*mono[-1])
        for f in reversed(mono[:-1]):
            base = "NO[%s, %s]" % (_factor_str(*f), base)
        bits.append(base if q == 1 else "%s * %s" % (q, base))
    return " + ".join(bits)


def print_doc(doc):
    lines = ["algebra %s" % doc.name]
    for nm in doc.declared_params:
        p = doc.params[nm]
        lines.append("param %s : deg %d %s"
                     % (nm, p.cohdeg, "odd" if p.parity else "even"))
    for g in doc.gens:
        gr = g.grading
        bit = "generator %s : deg %d spin %s %s" % (
            g.name, gr.cohdeg, gr.spin, "odd" if gr.parity else "even")
        if any(gr.flavor):
            bit += " flavor " + " ".join(str(x) for x in gr.flavor)
        lines.append(bit)
    by_pair = {}
    for (a, b, n) in sorted(doc.declared):
        if (a, b, n) in doc.entries:
            by_pair.setdefault((a, b), []).append(n)
    for (a, b), ns in by_pair.items():
        clauses = "; ".join("%d -> %s" % (n, expr_str(doc.entries[a, b, n]))
                            for n in sorted(ns, reverse=True))
        lines.append("ope %s %s : %s" % (a, b, clauses))
    if doc.superpotential is not None:
        lines.append("superpotential %s" % expr_str(doc.superpotential))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------ reports

class Report:
    def __init__(self, algebra, spin, word):
        self.algebra = algebra
        self.window = {"spin": spin, "word": word}
        self.checks = []
        self.series = None
        self.lines = []

    def add(self, name, ok, witness=None):
        self.checks.append(
            {"name": name, "status": "pass" if ok else "fail",
             "witness": None if witness is None else str(witness)})

    @property
    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)

    def render(self, fmt):
        if fmt == "json":
            out = {"algebra": self.algebra, "window": self.window,
                   "checks": self.checks}
            if self.series is not None:
                out["series"] = self.series
            return json.dumps(out, indent=2, sort_keys=True)
        bits = ["algebra %s (spin <= %s, word <= %s)"
                % (self.algebra, self.window["spin"], self.window["word"])]
        bits.extend(self.lines)
        for c in self.checks:
            line = "%-24s %s" % (c["name"], c["status"])
            if c["witness"]:
                line += "  [%s]" % c["witness"]
            bits.append(line)
        if self.series is not None:
            bits.append(self.series)
        return "\n".join(bits)


def _build_module(pres, args, specialize=None):
    return PBWModule(pres, spin_cap=args.spin, word_cap=args.word,
                     flavor_window=args.flavor_window, specialize=specialize)


def _fug_names(doc):
    axes = max((len(g.grading.flavor) for g in doc.gens), default=0)
    if axes <= 1:
        return ("y",)[:axes]
    return tuple("y%d" % i for i in range(1, axes + 1))


# ------------------------------------------------------ commands

def cmd_check(doc, args):
    wanted = None if args.checks is None else set(args.checks.split(","))
    try:
        selected_identities(wanted)
    except ValueError as e:
        raise SpecError(str(e))
    mod = _build_module(doc.presentation(), args)
    rep = Report(doc.name, args.spin, args.word)
    for key in doc.derived:
        rep.lines.append("derived by skew-symmetry: (%s, %s, %d)" % key)
    for name, ok, wit in verify_axioms(mod, checks=wanted):
        rep.add(name, ok, wit)
    return rep


def cmd_ope(doc, args):
    mod = _build_module(doc.presentation(), args)
    for nm in (args.a, args.b):
        if nm not in doc.gen_names:
            raise SpecError("unknown generator %r" % nm)
    sing = mod.ope_singular(mod.gen_state(args.a), mod.gen_state(args.b))
    rep = Report(doc.name, args.spin, args.word)
    bits = ["Omega^%d (%s)" % (n, mod.state_str(sing[n]))
            for n in sorted(sing, reverse=True)]
    rep.series = "%s(z) %s(w) ~ %s" % (
        args.a, args.b, " + ".join(bits) if bits else "0")
    rep.add("ope-computed", True)
    return rep


def cmd_character(doc, args):
    # --order N includes q^N, so the series truncation sits one above and
    # the window must hold every spin below N + 1
    integral = all(g.grading.spin.denominator == 1 for g in doc.gens)
    args = argparse.Namespace(
        spin=args.order if integral else args.order + 1, **vars(args))
    mod = _build_module(doc.presentation(), args)
    qs = catalog.character(mod, args.order + 1, _fug_names(doc),
                           fug_window=args.flavor_window)
    rep = Report(doc.name, args.spin, args.word)
    rep.series = str(qs)
    rep.add("character-computed", True)
    return rep


def cmd_brst(doc, args):
    names = [g.name for g in doc.gens
             if g.grading.cohdeg == 1 and g.grading.spin == 1
             and g.grading.parity == 0]
    if not names:
        raise SpecError("no degree-1 spin-1 current generators to gauge")
    structure, pairing = {}, {}
    for a in names:
        for b in names:
            e0 = doc.entries.get((a, b, 0))
            if e0 is not None:
                coeffs = {}
                for mono, c in e0.terms.items():
                    if len(mono) != 1 or mono[0][1] != 0:
                        raise SpecError(
                            "index-0 product (%s, %s) is not linear" % (a, b))
                    q = rational_of(c)
                    if q is None:
                        raise SpecError(
                            "index-0 product (%s, %s) has parameters" % (a, b))
                    coeffs[mono[0][0]] = q
                structure[(a, b)] = coeffs
            e1 = doc.entries.get((a, b, 1))
            if e1 is not None:
                if set(e1.terms) != {()}:
                    raise SpecError(
                        "index-1 product (%s, %s) is not central" % (a, b))
                # the invariant-form value, stripped of the level parameter
                form = as_scalar(e1.terms[()])
                pairing[(a, b)] = sum(form.terms.values())
    mod = _build_module(ghost_extension(doc.presentation(), names), args,
                        specialize={"K": 1, "kappa": 0})
    q = brst_charge(mod, names, structure=structure, pairing=pairing)
    rep = Report(doc.name, args.spin, args.word)
    g = mod.state_grading(q) if q else None
    rep.add("charge-grading",
            q != {} and g.cohdeg == 2 and g.spin == 1 and g.tot == 0,
            None if q else "zero charge")
    d = differential_map(mod, q)
    ok, wit = check_square_zero(mod, d)
    rep.add("square-zero", ok, wit)
    return rep


def cmd_cohomology(doc, args):
    if doc.superpotential is None:
        raise SpecError("document has no superpotential")
    mod = _build_module(doc.presentation(), args, specialize={"K": 1})
    w = mod.expr_to_state(doc.superpotential)
    try:
        mod.state_grading(w)
    except ValueError:
        raise SpecError("superpotential %s is not homogeneous"
                        % expr_str(doc.superpotential))
    rep = Report(doc.name, args.spin, args.word)
    try:
        sp = superpotential_check(mod, w)
        rep.add("superpotential-grading", sp["grading"],
                None if w else "zero superpotential")
        rep.add("self-bracket-exact", sp["self-bracket-exact"])
        d = differential_map(mod, w)
        ok, wit = check_square_zero(mod, d)
        rep.add("square-zero", ok, wit)
        coh = dg_cohomology(mod, d, spin_cap=args.spin) if rep.ok else None
    except CoordinateError as e:  # parameters left in, or window too small
        raise SpecError(str(e))
    if rep.ok:
        bits = []
        for (spin, deg, fl), (dim, _) in sorted(coh.items()):
            if dim:
                cell = "spin %s deg %d" % (spin, deg)
                if any(fl):
                    cell += " flavor %s" % (fl,)
                bits.append("%s: dim %d" % (cell, dim))
        rep.series = "; ".join(bits) if bits else "trivial"
    return rep


def cmd_fock(args):
    lam = _rational(args.lam)
    mod = catalog.fock(lam, spin_cap=args.spin, word_cap=args.word)
    rep = Report("fock(%s)" % lam, args.spin, args.word)
    ker = catalog.highest_weight_kernel(mod, args.spin)
    rep.add("kernel-is-cyclic",
            len(ker) == 1 and set(ker[0]) == {()},
            None if len(ker) == 1 else "%d kernel states" % len(ker))
    ev = mod.act("nu", 0, mod.vacuum())
    rep.add("weight", veq(ev, vscale(mod.vacuum(), lam)))
    T = catalog.stress_tensor(mod, "heisenberg")
    rep.add("cyclic-spin-zero", mod.field_mode(T, 1, mod.vacuum()) == {})
    g0 = mod.field_mode(T, 0, mod.vacuum())
    rep.add("translation-on-cyclic",
            veq(g0, vscale(mod.act("b", -1, mod.vacuum()), -lam)))
    return rep


def cmd_lattice(args):
    win = 3 if args.flavor_window is None else args.flavor_window
    if not win:
        # no sector pair: the defining relations would pass vacuously
        raise SpecError("lattice needs --flavor-window >= 1")
    lat = catalog.LatticeModule(window=win, spin_cap=args.spin + 1,
                                word_cap=args.word)
    rep = Report("lattice(window=%d)" % win, args.spin, args.word)
    ok, wit = catalog.check_lattice_relations(
        lat, mrange=min(3, win - 1), spin_cap=min(args.spin, 3))
    rep.add("defining-relations", ok, wit)
    qs = catalog.lattice_character(lat, 1)
    want = catalog.QSeries({}, 1)
    for m in range(-win, win + 1):
        want.add_term(0, (((catalog.LATTICE_FUG, m),) if m else ()), 1)
    rep.add("spin-zero-character", qs == want)
    rep.series = str(catalog.lattice_character(lat, args.order + 1))
    return rep


# ------------------------------------------------------ entry point

def _window(text):
    """A window size: a non-negative int (a negative one would make
    every verdict vacuous)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


# argument name -> argparse keywords
_ARGUMENTS = {
    "kind": dict(choices=("fock",)),
    "--spin": dict(type=_window, default=3),
    "--word": dict(type=_window, default=4),
    "--order": dict(type=_window, default=5),
    "--flavor-window": dict(type=_window),
    "--format": dict(choices=("text", "json"), default="text"),
    "--checks": {},
    "--lambda": dict(dest="lam", default="0"),
}

_SHARED = ("--word", "--format")

# subcommand -> (handler, help, positional arguments, options it reads
# besides _SHARED); a handler with a "file" argument is passed the parsed
# document before the arguments.  character takes its spin window from
# --order.
_COMMANDS = {
    "check": (cmd_check, "run the full verification suite", ("file",),
              ("--spin", "--flavor-window", "--checks")),
    "ope": (cmd_ope, "singular products of two generators",
            ("file", "a", "b"), ("--spin", "--flavor-window")),
    "character": (cmd_character, "graded character to q^order", ("file",),
                  ("--flavor-window", "--order")),
    "brst": (cmd_brst, "gauge the current generators", ("file",),
             ("--spin", "--flavor-window")),
    "cohomology": (cmd_cohomology, "superpotential differential cohomology",
                   ("file",), ("--spin", "--flavor-window")),
    "module": (cmd_fock, "builtin modules", ("kind",), ("--spin", "--lambda")),
    "lattice": (cmd_lattice, "lattice module relations", (),
                ("--spin", "--flavor-window", "--order")),
}


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except OSError as e:
        raise SpecError(str(e))
    except UnicodeDecodeError as e:
        raise SpecError("%s is not UTF-8 text: %s" % (path, e))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(
        prog="rav", description="raviolo vertex algebra workbench")
    # A call that names its command first builds that subparser alone
    # (the others cost more than the parse); the metavar keeps every
    # command in the top-level usage line its errors print.  Any other
    # argv (help, no or an unknown command) builds all of them.
    names = list(_COMMANDS)
    extra = {}
    if argv and argv[0] in _COMMANDS:
        names = [argv[0]]
        extra["metavar"] = "{%s}" % ",".join(_COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, **extra)
    for name in names:
        _, text, positional, options = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for arg in positional + _SHARED + options:
            p.add_argument(arg, **_ARGUMENTS.get(arg, {}))

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0

    handler, _, positional, _ = _COMMANDS[args.command]
    try:
        if "file" in positional:
            rep = handler(_load(args.file), args)
        else:
            rep = handler(args)
    except (SpecError, PresentationError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except InfiniteGradedPiece as e:
        # raised when a command first enumerates the module's basis
        print("error: graded pieces are infinite in %s; pass --flavor-window"
              % e.gen_name, file=sys.stderr)
        return 2
    print(rep.render(args.format))
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
