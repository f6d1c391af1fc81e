"""One-, two- and three-variable raviolo series/distribution arithmetic.

Monomial indexing convention used everywhere (it matches mode indices of
fields): an integer index i < 0 stands for z^(-i-1) and i >= 0 stands for
Omega^i.  With this convention the single-variable product rule is simply
i*j -> i+j+1, dropped when the result is an invalid polar monomial, and
Omega*Omega = 0.

Taylor directions are truncated at an explicit order; polar supports are
finite.  Coefficients follow the scalars layer: a plain int or Fraction,
or a Scalar while a parameter is left in.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .scalars import binom, as_vector, canonical, vadd, vscale, vsub


def combine_indices(i, j):
    """Product of two monomials in the same variable; None means zero."""
    if i >= 0 and j >= 0:
        return None
    k = i + j + 1
    if (i >= 0 or j >= 0) and k < 0:
        return None  # z^n Omega^m = 0 for n > m
    return k


class RavSeries:
    """Element of K^(s) (or K_dist): twist tag, indexed coefficients."""

    def __init__(self, terms=None, trunc=8, twist=0):
        self.trunc = trunc
        self.twist = Fraction(twist)
        self.terms = as_vector({i: c for i, c in (terms or {}).items()
                                if i >= 0 or -i - 1 <= trunc})

    @staticmethod
    def zero(trunc=8, twist=0):
        return RavSeries({}, trunc, twist)

    @staticmethod
    def one(trunc=8, twist=0):
        return RavSeries({-1: 1}, trunc, twist)

    @staticmethod
    def z_pow(n, trunc=8, twist=0):
        return RavSeries({-n - 1: 1}, trunc, twist)

    @staticmethod
    def omega(m, trunc=8, twist=0):
        return RavSeries({m: 1}, trunc, twist)

    def _sum(self, other, terms):
        # the terms of self +- other, at the common truncation
        if self.twist != other.twist:
            raise ValueError("twist mismatch: %s and %s"
                             % (self.twist, other.twist))
        return RavSeries(terms, min(self.trunc, other.trunc), self.twist)

    def __add__(self, other):
        return self._sum(other, vadd(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self._sum(other, vsub(self.terms, other.terms))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return RavSeries(vscale(self.terms, c), self.trunc, self.twist)

    def mul(self, other):
        """Product; twists add.  For exact polar output the partner's
        Taylor truncation should be at least the pole order."""
        r = {}
        for i, c1 in self.terms.items():
            for j, c2 in other.terms.items():
                k = combine_indices(i, j)
                if k is not None:
                    vadd(r, {k: c1 * c2})
        return RavSeries(r, min(self.trunc, other.trunc),
                         self.twist + other.twist)

    __mul__ = mul

    def dz(self):
        # d/dz sends mon(i) to (-i-1) mon(i+1) in both towers
        return RavSeries({i + 1: (-i - 1) * c for i, c in self.terms.items()
                          if i != -1}, self.trunc - 1, self.twist)

    def residue(self):
        """Res dz: requires twist 1; the Omega^0 coefficient."""
        if self.twist != 1:
            raise ValueError("residue needs twist 1, got %s" % self.twist)
        return self.terms.get(0, 0)

    def __eq__(self, other):
        if not isinstance(other, RavSeries):
            return NotImplemented
        if self.twist != other.twist:
            return False
        t = min(self.trunc, other.trunc)

        def window(s):
            return {i: c for i, c in s.terms.items() if i >= 0 or -i - 1 <= t}
        return window(self) == window(other)

    def __str__(self):
        return format_series(self)

    __repr__ = __str__


# ---------------------------------------------------------------- text

def format_series(f):
    if not f.terms:
        return "0"

    def monostr(i):
        if i == -1:
            return None
        if i < 0:
            return "z" if i == -2 else "z^%d" % (-i - 1)
        return "O[%d]" % i

    bits = []
    for i in sorted(f.terms, key=lambda i: (0, -i - 1) if i < 0 else (1, i)):
        c = f.terms[i]
        mono = monostr(i)
        if mono is None:
            cs = str(c)
            piece = "(%s)" % cs if (" + " in cs or " - " in cs) else cs
        else:
            if c == 1:
                piece = mono
            elif c == -1:
                piece = "-" + mono
            else:
                cs = str(c)
                if " + " in cs or " - " in cs:
                    cs = "(%s)" % cs
                piece = "%s*%s" % (cs, mono)
        bits.append(piece)
    out = bits[0]
    for p in bits[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out


# ---------------------------------------------------------------- BiDist

class BiDist:
    """Bivariate distribution: {(i, j): coefficient} with the index
    convention above in each slot; canonical monomial order is z-part
    then w-part (Omega_z and Omega_w anticommute)."""

    def __init__(self, terms=None, ztr=8, wtr=8):
        self.ztr = ztr
        self.wtr = wtr
        self.terms = as_vector(terms)

    def __add__(self, other):
        return BiDist(vadd(dict(self.terms), other.terms),
                      min(self.ztr, other.ztr), min(self.wtr, other.wtr))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return BiDist(vsub(self.terms, other.terms),
                      min(self.ztr, other.ztr), min(self.wtr, other.wtr))

    def scale(self, c):
        return BiDist(vscale(self.terms, c), self.ztr, self.wtr)

    # mul_z, mul_w, mul_omega_z/w and dw send distinct keys to distinct
    # keys, so they build their image directly, with nothing to add

    def mul_z(self):
        return BiDist({(i - 1, j): c for (i, j), c in self.terms.items()
                       if i != 0}, self.ztr + 1, self.wtr)

    def mul_w(self):
        return BiDist({(i, j - 1): c for (i, j), c in self.terms.items()
                       if j != 0}, self.ztr, self.wtr + 1)

    def mul_omega_z(self, m):
        """Left multiplication by Omega^m_z (needs ztr >= m for exactness)."""
        if self.ztr < m:
            raise ValueError("insufficient z truncation for Omega^%d_z" % m)
        return BiDist({(m + i + 1, j): c for (i, j), c in self.terms.items()
                       if i < 0 and m + i + 1 >= 0}, self.ztr, self.wtr)

    def mul_omega_w(self, m):
        """Left multiplication by Omega^m_w; passes the z monomial."""
        if self.wtr < m:
            raise ValueError("insufficient w truncation for Omega^%d_w" % m)
        return BiDist({(i, m + j + 1): (-1 if i >= 0 else 1) * c
                       for (i, j), c in self.terms.items()
                       if j < 0 and m + j + 1 >= 0}, self.ztr, self.wtr)

    def dw(self):
        # d/dw sends mon_w(j) to (-j-1) mon_w(j+1) in both towers
        return BiDist({(i, j + 1): (-j - 1) * c
                       for (i, j), c in self.terms.items() if j != -1},
                      self.ztr, self.wtr - 1)

    def mul_series_z(self, f):
        """Right-multiply by a RavSeries in z; its monomials commute left
        past the w part (Koszul sign when both are Omegas)."""
        b = BiDist({}, min(self.ztr, f.trunc), self.wtr)
        for (i, j), c in self.terms.items():
            for i2, c2 in f.terms.items():
                k = combine_indices(i, i2)
                if k is None:
                    continue
                sign = -1 if (i2 >= 0 and j >= 0) else 1
                vadd(b.terms, {(k, j): sign * (c * c2)})
        return b

    def mul_series_w(self, g):
        """Right-multiply by a RavSeries in w."""
        b = BiDist({}, self.ztr, min(self.wtr, g.trunc))
        for (i, j), c in self.terms.items():
            for j2, c2 in g.terms.items():
                k = combine_indices(j, j2)
                if k is not None:
                    vadd(b.terms, {(i, k): c * c2})
        return b

    def residue_z(self):
        """Res_z dz: picks the Omega^0_z row, leaving a series in w."""
        return RavSeries({j: c for (i, j), c in self.terms.items() if i == 0},
                         self.wtr)

    def first_within(self, zt=None, wt=None):
        """The least key inside the Taylor window (zt, wt); None when
        there is none."""
        zt = self.ztr if zt is None else min(zt, self.ztr)
        wt = self.wtr if wt is None else min(wt, self.wtr)
        return min(((i, j) for i, j in self.terms
                    if (i >= 0 or -i - 1 <= zt) and (j >= 0 or -j - 1 <= wt)),
                   default=None)

    def is_zero_within(self, zt=None, wt=None):
        return self.first_within(zt, wt) is None

    def eq_within(self, other, zt=None, wt=None):
        return (self - other).is_zero_within(zt, wt)

    def __eq__(self, other):
        if not isinstance(other, BiDist):
            return NotImplemented
        return (self - other).is_zero_within()


# ------------------------------------------------------------ delta

class DeltaKernel:
    """Delta^(j) and its plus/minus halves; variant in {full, plus, minus}."""

    def __init__(self, variant="full", j=0):
        if variant not in ("full", "plus", "minus"):
            raise ValueError("delta variant must be full, plus or minus, "
                             "got %r" % (variant,))
        if j < 0:
            raise ValueError("delta order must be >= 0, got %r" % (j,))
        self.variant = variant
        self.j = j


def delta_expand(kernel, trunc=8):
    """Explicit BiDist for Delta^(j) (= (1/j!) d_w^j Delta) truncated on
    the Taylor indices at `trunc`."""
    j = kernel.j
    terms = {}
    if kernel.variant in ("minus", "full"):
        # sum_{a>=0} C(a+j, j) w^a Omega^(a+j)_z
        for a in range(trunc + 1):
            terms[(a + j, -a - 1)] = binom(a + j, j)
    if kernel.variant in ("plus", "full"):
        # sum_{a>=0} (-1)^(j+1) C(a+j, j) z^a Omega^(a+j)_w
        for a in range(trunc + 1):
            terms[(-a - 1, a + j)] = (-1) ** (j + 1) * binom(a + j, j)
    return BiDist(terms, trunc, trunc)


def apply_delta(f, trunc=None):
    """Res_z dz Delta(z-w) f(z), computed through the kernel contraction."""
    t = f.trunc if trunc is None else trunc
    need = max([t] + [i for i in f.terms if i >= 0])
    d = delta_expand(DeltaKernel("full", 0), need)
    return RavSeries(d.mul_series_z(f).residue_z().terms, t)


def delta_decompose(f, N):
    """Decompose f = sum_i d_w^i Delta(z-w) g^(i)(w), i = 0..N.

    Returns (glist, None) on success or (None, failure) where failure is
    a (condition_name, witness) pair naming the violated hypothesis.
    Both conditions and the extraction read one table
    powers[j] = (w-z)^j f, j = 0..N+1.
    """
    T = min(f.ztr, f.wtr)
    powers = [f]
    for _ in range(N + 1):
        powers.append(powers[-1].mul_w() - powers[-1].mul_z())
    # condition (1): (w-z)^(N+1) f = 0
    key = powers[N + 1].first_within()
    if key is not None:
        return None, ("vanishing", key)
    # condition (2): (Omega^m_z - sum_j (w-z)^j C(m+j,j) Omega^(m+j)_w) f = 0
    for m in range(0, T - N + 1):
        lhs = f.mul_omega_z(m)
        for j in range(N + 1):
            vadd(lhs.terms, powers[j].mul_omega_w(m + j).terms,
                 -binom(m + j, j))
        key = lhs.first_within()
        if key is not None:
            return None, ("omega-replacement", (m, key))
    # extraction: g^(n)(w) = (1/n!) Res_z dz (z-w)^n f, reliable to the
    # full w window: the w^p coefficient, p <= wtr, reads only f entries
    # of Taylor depth <= p
    glist = [powers[n].residue_z().scale(Fraction((-1) ** n, factorial(n)))
             for n in range(N + 1)]
    # verify the rebuild
    rebuilt = delta_build(glist, T)
    key = (rebuilt - f).first_within(f.ztr - N, f.wtr - N)
    if key is not None:
        return None, ("rebuild", key)
    return glist, None


@lru_cache(maxsize=None)
def _delta_derivative(i, trunc):
    """d_w^i Delta(z-w) = i! Delta^(i), truncated at trunc; callers must
    not mutate it."""
    return delta_expand(DeltaKernel("full", i), trunc).scale(factorial(i))


def delta_build(glist, trunc=8):
    """sum_i d_w^i Delta(z-w) g^(i)(w) as a BiDist."""
    total = BiDist({}, trunc, trunc)
    for i, g in enumerate(glist):
        total = total + _delta_derivative(i, trunc).mul_series_w(g)
    return total


# ------------------------------------------------------------ trivariate

class TriElement:
    """Canonical form in the trivariate ring with towers Omega_z, Omega_w,
    Omega_{z-w} over C[[z,w]].

    Keys: ('0',a,b) = z^a w^b; ('z',b,c) = w^b Om^c_z; ('w',a,c) = z^a Om^c_w;
    ('d',b,c) = w^b Om^c_{z-w}; ('dz',i,j) = Om^i_{z-w} Om^j_z;
    ('wd',i,j) = Om^i_w Om^j_{z-w}.
    """

    def __init__(self, terms=None, trunc=8):
        self.trunc = trunc
        self.terms = as_vector(terms)

    def __add__(self, other):
        return TriElement(vadd(dict(self.terms), other.terms),
                          min(self.trunc, other.trunc))

    def __neg__(self):
        return TriElement(vscale(self.terms, -1), self.trunc)

    def __sub__(self, other):
        return TriElement(vsub(self.terms, other.terms),
                          min(self.trunc, other.trunc))

    def __eq__(self, other):
        if not isinstance(other, TriElement):
            return NotImplemented
        t = min(self.trunc, other.trunc)

        def window(e):
            out = {}
            for k, c in e.terms.items():
                tag = k[0]
                tay = ((k[1] + k[2]) if tag == "0" else
                       k[1] if tag in ("z", "w", "d") else 0)
                if tay <= t:
                    out[k] = c
            return out
        return window(self) == window(other)


# raw term: (coeff, a, b, omlist) with omlist a tuple of (x, m),
# x in {'z','w','d'}, kept in written order.

def raw_dz(terms):
    out = []
    for c, a, b, oms in terms:
        if a > 0:
            out.append((a * c, a - 1, b, oms))
        for idx, (x, m) in enumerate(oms):
            if x == "z":
                d = -(m + 1)
            elif x == "d":
                d = -(m + 1)
            else:
                continue
            noms = oms[:idx] + ((x, m + 1),) + oms[idx + 1:]
            out.append((d * c, a, b, noms))
    return out


def raw_dw(terms):
    out = []
    for c, a, b, oms in terms:
        if b > 0:
            out.append((b * c, a, b - 1, oms))
        for idx, (x, m) in enumerate(oms):
            if x == "w":
                d = -(m + 1)
            elif x == "d":
                d = m + 1
            else:
                continue
            noms = oms[:idx] + ((x, m + 1),) + oms[idx + 1:]
            out.append((d * c, a, b, noms))
    return out


_REL_CACHE = {}


def _zw_relation(a, b):
    """Rewrite of Om^a_z Om^b_w as a dict over canonical deg-2 keys."""
    if (a, b) in _REL_CACHE:
        return _REL_CACHE[(a, b)]
    base = [
        (1, 0, 0, (("d", 0), ("z", 0))),
        (1, 0, 0, (("w", 0), ("d", 0))),
        (1, 0, 0, (("z", 0), ("w", 0))),
    ]
    terms = base
    for _ in range(a):
        terms = raw_dz(terms)
    for _ in range(b):
        terms = raw_dw(terms)
    # collect the dz / wd families; the zw term is
    # (-1)^(a+b) a! b! Om^a_z Om^b_w exactly.
    out = {}
    for c, x, y, oms in terms:
        assert x == 0 and y == 0 and len(oms) == 2
        (x1, m1), (x2, m2) = oms
        pair = (x1, x2)
        if pair == ("z", "w"):
            continue
        if pair == ("d", "z"):
            key = ("dz", m1, m2)
        elif pair == ("w", "d"):
            key = ("wd", m1, m2)
        else:
            raise AssertionError(pair)
        vadd(out, {key: c})
    rel = vscale(out, -Fraction((-1) ** (a + b), factorial(a) * factorial(b)))
    _REL_CACHE[(a, b)] = rel
    return rel


def tri_normalize(raw_terms, trunc=8):
    """Canonical TriElement from raw (coeff, a, b, omlist) terms."""
    t = TriElement({}, trunc)
    work = [(canonical(c), a, b, tuple(oms)) for c, a, b, oms in raw_terms]
    while work:
        c, a, b, oms = work.pop()
        if not c:
            continue
        if len(oms) >= 3:
            continue  # degree >= 3 vanishes
        if len(oms) == 2 and oms[0][0] == oms[1][0]:
            continue  # same tower squares to zero
        if len(oms) == 0:
            vadd(t.terms, {("0", a, b): c})
            continue
        if len(oms) == 1:
            x, m = oms[0]
            if x == "z":
                if a > 0:  # z Om^m_z = Om^(m-1)_z
                    if m - a >= 0:
                        vadd(t.terms, {("z", b, m - a): c})
                    continue
                vadd(t.terms, {("z", b, m): c})
            elif x == "w":
                if b > 0:
                    if m - b >= 0:
                        vadd(t.terms, {("w", a, m - b): c})
                    continue
                vadd(t.terms, {("w", a, m): c})
            else:  # z-w tower: z^a = ((z-w)+w)^a, (z-w) reduces
                if a > 0:
                    for i in range(a + 1):
                        if m - i < 0:
                            continue
                        vadd(t.terms, {("d", a + b - i, m - i):
                                       binom(a, i) * c})
                    continue
                vadd(t.terms, {("d", b, m): c})
            continue
        # degree 2: sort the pair into a fixed written order
        (x1, m1), (x2, m2) = oms
        order = {"d": 0, "z": 1, "w": 2}
        swap_map = {("z", "d"): ("d", "z"), ("d", "w"): ("w", "d"),
                    ("w", "z"): ("z", "w")}
        if (x1, x2) in swap_map:
            work.append((-c, a, b, ((x2, m2), (x1, m1))))
            continue
        if (x1, x2) == ("d", "z"):
            if a > 0:  # z reduces against Om_z
                if m2 - 1 >= 0:
                    work.append((c, a - 1, b, (("d", m1), ("z", m2 - 1))))
                continue
            if b > 0:  # w = z - (z-w)
                if m2 - 1 >= 0:
                    work.append((c, a, b - 1, (("d", m1), ("z", m2 - 1))))
                if m1 - 1 >= 0:
                    work.append((-c, a, b - 1, (("d", m1 - 1), ("z", m2))))
                continue
            vadd(t.terms, {("dz", m1, m2): c})
            continue
        if (x1, x2) == ("w", "d"):
            if b > 0:  # w reduces against Om_w
                if m1 - 1 >= 0:
                    work.append((c, a, b - 1, (("w", m1 - 1), ("d", m2))))
                continue
            if a > 0:  # z = w + (z-w)
                if m1 - 1 >= 0:
                    work.append((c, a - 1, b, (("w", m1 - 1), ("d", m2))))
                if m2 - 1 >= 0:
                    work.append((c, a - 1, b, (("w", m1), ("d", m2 - 1))))
                continue
            vadd(t.terms, {("wd", m1, m2): c})
            continue
        assert (x1, x2) == ("z", "w")
        if a > 0:
            if m1 - 1 >= 0:
                work.append((c, a - 1, b, (("z", m1 - 1), ("w", m2))))
            continue
        if b > 0:
            if m2 - 1 >= 0:
                work.append((c, a, b - 1, (("z", m1), ("w", m2 - 1))))
            continue
        vadd(t.terms, _zw_relation(m1, m2), c)
    return t


def expand_region(e, region, trunc=8):
    """Image of a TriElement under one of the three expansion maps.

    w_near_0 / z_near_0 return a BiDist in (z, w); z_near_w returns a
    BiDist whose first slot is u = z-w and second slot is w.
    """
    if region not in ("w_near_0", "z_near_0", "z_near_w"):
        raise ValueError("region must be w_near_0, z_near_0 or z_near_w, "
                         "got %r" % (region,))
    out = BiDist({}, trunc, trunc)

    def put(i, j, c):
        vadd(out.terms, {(i, j): c})

    for key, c in e.terms.items():
        tag = key[0]
        if region == "z_near_w":
            _expand_near_w(key, c, trunc, put)
            continue
        if tag == "0":
            a, b = key[1], key[2]
            put(-a - 1, -b - 1, c)
        elif tag == "z":
            b, m = key[1], key[2]
            put(m, -b - 1, c)
        elif tag == "w":
            a, m = key[1], key[2]
            put(-a - 1, m, c)
        elif tag == "d":
            b, m = key[1], key[2]
            if region == "w_near_0":
                # Om^m_{z-w} -> sum_a C(m+a,a) w^a Om^(m+a)_z
                for a in range(trunc + 1):
                    put(m + a, -(a + b) - 1, binom(m + a, a) * c)
            else:
                # Om^m_{z-w} -> (-1)^m sum_a C(m+a,a) z^a Om^(m+a)_w
                for a in range(trunc + 1):
                    j = combine_indices(-b - 1, m + a)
                    if j is None:
                        continue
                    put(-a - 1, j,
                        (-1) ** m * binom(m + a, a) * c)
        elif tag == "dz":
            i, j = key[1], key[2]
            if region == "w_near_0":
                continue  # lands in Om_z Om_z = 0
            # Om^i_{z-w} -> z-expansion, then pair with Om^j_z
            for a in range(j + 1):
                put(j - a, i + a,
                    -(-1) ** i * binom(i + a, a) * c)
        elif tag == "wd":
            i, j = key[1], key[2]
            if region == "z_near_0":
                continue  # lands in Om_w Om_w = 0
            for a in range(i + 1):
                put(j + a, i - a, -binom(j + a, a) * c)
        else:
            raise AssertionError(key)
    return out


def _expand_near_w(key, c, trunc, put):
    """z_near_w map: coordinates (u = z-w, w); Om^m_z re-expanded."""
    tag = key[0]
    if tag == "0":
        a, b = key[1], key[2]
        # z^a = (u + w)^a
        for i in range(a + 1):
            put(-i - 1, -(a - i + b) - 1, binom(a, i) * c)
    elif tag == "z":
        b, m = key[1], key[2]
        # Om^m_z -> sum_n (-1)^n C(n+m,n) u^n Om^(m+n)_w
        for n in range(trunc + 1):
            j = combine_indices(-b - 1, m + n)
            if j is None:
                continue
            put(-n - 1, j, (-1) ** n * binom(n + m, n) * c)
    elif tag == "w":
        a, m = key[1], key[2]
        for i in range(a + 1):
            j = combine_indices(-(a - i) - 1, m)
            if j is None:
                continue
            put(-i - 1, j, binom(a, i) * c)
    elif tag == "d":
        b, m = key[1], key[2]
        put(m, -b - 1, c)
    elif tag == "dz":
        i, j = key[1], key[2]
        for n in range(i + 1):
            put(i - n, j + n, (-1) ** n * binom(n + j, n) * c)
    elif tag == "wd":
        i, j = key[1], key[2]
        put(j, i, -c)
    else:
        raise AssertionError(key)
