"""One- and two-variable raviolo series/distribution arithmetic.

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

from .scalars import binom, as_vector, sum_str, vadd, vscale, vsub


def combine_indices(i, j):
    """Product of two monomials in the same variable; None means zero."""
    if i >= 0 and j >= 0:
        return None
    k = i + j + 1
    if (i >= 0 or j >= 0) and k < 0:
        return None  # z^n Omega^m = 0 for n > m
    return k


class RavSeries:
    """Element of K_dist in one variable: indexed coefficients, the
    Taylor part kept to z^trunc."""

    def __init__(self, terms, trunc):
        self.trunc = trunc
        self.terms = as_vector({i: c for i, c in terms.items()
                                if i >= 0 or -i - 1 <= trunc})

    def __eq__(self, other):
        if not isinstance(other, RavSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)

        def window(s):
            return {i: c for i, c in s.terms.items() if i >= 0 or -i - 1 <= t}
        return window(self) == window(other)

    def __str__(self):
        return format_series(self)

    __repr__ = __str__


# ---------------------------------------------------------------- text

def format_series(f):
    def monostr(i):
        if i == -1:
            return ""
        if i < 0:
            return "z" if i == -2 else "z^%d" % (-i - 1)
        return "O[%d]" % i

    keys = sorted(f.terms, key=lambda i: (0, -i - 1) if i < 0 else (1, i))
    return sum_str((f.terms[i], monostr(i)) for i in keys)


# ---------------------------------------------------------------- BiDist

def _bidist(terms, ztr, wtr):
    """Wrap a vector already canonical, zeros dropped, as a BiDist."""
    b = object.__new__(BiDist)
    b.terms, b.ztr, b.wtr = terms, ztr, wtr
    return b


class BiDist:
    """Bivariate distribution: {(i, j) + key: coefficient} with the index
    convention above in each slot and key a passive trailing index, empty
    for a single distribution (the engine keeps one distribution per PBW
    key in one vector); canonical monomial order is z-part then w-part
    (Omega_z and Omega_w anticommute)."""

    def __init__(self, terms, ztr, wtr):
        self.ztr = ztr
        self.wtr = wtr
        self.terms = as_vector(terms)

    def __sub__(self, other):
        return _bidist(vsub(self.terms, other.terms),
                       min(self.ztr, other.ztr), min(self.wtr, other.wtr))

    def scale(self, c):
        return _bidist(vscale(self.terms, c), self.ztr, self.wtr)

    # mul_z, mul_w and mul_omega_z/w send distinct keys to distinct keys,
    # so they build their image directly, with nothing to add

    def mul_z(self):
        return _bidist({(k[0] - 1,) + k[1:]: c for k, c in self.terms.items()
                        if k[0] != 0}, self.ztr + 1, self.wtr)

    def mul_w(self):
        return _bidist({(k[0], k[1] - 1) + k[2:]: c
                        for k, c in self.terms.items() if k[1] != 0},
                       self.ztr, self.wtr + 1)

    def mul_omega_z(self, m):
        """Left multiplication by Omega^m_z (needs ztr >= m for exactness)."""
        if self.ztr < m:
            raise ValueError("insufficient z truncation for Omega^%d_z" % m)
        return _bidist({(m + k[0] + 1,) + k[1:]: c
                        for k, c in self.terms.items()
                        if k[0] < 0 and m + k[0] + 1 >= 0},
                       self.ztr, self.wtr)

    def mul_omega_w(self, m):
        """Left multiplication by Omega^m_w; passes the z monomial."""
        if self.wtr < m:
            raise ValueError("insufficient w truncation for Omega^%d_w" % m)
        return _bidist({(k[0], m + k[1] + 1) + k[2:]: -c if k[0] >= 0 else c
                        for k, c in self.terms.items()
                        if k[1] < 0 and m + k[1] + 1 >= 0},
                       self.ztr, self.wtr)

    def mul_series_z(self, f):
        """Right-multiply a single distribution by a RavSeries in z; its
        monomials commute left past the w part (Koszul sign when both are
        Omegas)."""
        b = _bidist({}, min(self.ztr, f.trunc), self.wtr)
        for (i, j), c in self.terms.items():
            for i2, c2 in f.terms.items():
                k = combine_indices(i, i2)
                if k is None:
                    continue
                sign = -1 if (i2 >= 0 and j >= 0) else 1
                vadd(b.terms, {(k, j): sign * (c * c2)})
        return b

    def mul_series_w(self, g):
        """Right-multiply a single distribution by series in w, given as
        one vector {(j,) + key: c}; the result carries the key."""
        b = _bidist({}, self.ztr, self.wtr)
        for (i, j), c in self.terms.items():
            # distinct g keys give distinct products
            vadd(b.terms, {(i, k) + gk[1:]: c * c2 for gk, c2 in g.items()
                           if (k := combine_indices(j, gk[0])) is not None})
        return b

    def residue_z(self):
        """Res_z dz: picks the Omega^0_z row, leaving series in w inside
        the w window, as {(j,) + key: c}."""
        return {k[1:]: c for k, c in self.terms.items()
                if k[0] == 0 and (k[1] >= 0 or -k[1] - 1 <= self.wtr)}

    def first_within(self, zt=None, wt=None):
        """{key: least (i, j)} over the entries inside the Taylor window
        (zt, wt), for each trailing key that has one."""
        zt = self.ztr if zt is None else min(zt, self.ztr)
        wt = self.wtr if wt is None else min(wt, self.wtr)
        least = {}
        for k in self.terms:
            i, j = k[0], k[1]
            if (i >= 0 or -i - 1 <= zt) and (j >= 0 or -j - 1 <= wt):
                least[k[2:]] = min(least.get(k[2:], k[:2]), k[:2])
        return least


# ------------------------------------------------------------ delta

def delta_expand(variant, j, trunc):
    """Explicit BiDist for Delta^(j) (= (1/j!) d_w^j Delta, variant
    "full") or its half "minus" or "plus", truncated on the Taylor
    indices at `trunc`."""
    terms = {}
    if variant in ("minus", "full"):
        # sum_{a>=0} C(a+j, j) w^a Omega^(a+j)_z
        for a in range(trunc + 1):
            terms[(a + j, -a - 1)] = binom(a + j, j)
    if variant in ("plus", "full"):
        # sum_{a>=0} (-1)^(j+1) C(a+j, j) z^a Omega^(a+j)_w
        for a in range(trunc + 1):
            terms[(-a - 1, a + j)] = (-1) ** (j + 1) * binom(a + j, j)
    return BiDist(terms, trunc, trunc)


def mon_u_expand(region, t, trunc):
    """mon_u(t), u = z-w, expanded near w = 0 ("w_near_0") or near z = 0
    ("z_near_0"): Omega^t_u is Delta_-^(t) near w = 0 and -Delta_+^(t)
    near z = 0; for t < 0, (z-w)^k, k = -t-1, is its binomial expansion
    in both regions."""
    if t >= 0:
        if region == "w_near_0":
            return delta_expand("minus", t, trunc)
        return delta_expand("plus", t, trunc).scale(-1)
    k = -t - 1
    return BiDist({(-i - 1, i - k - 1): (-1) ** (k - i) * binom(k, i)
                   for i in range(k + 1)}, trunc, trunc)


def apply_delta(f):
    """Res_z dz Delta(z-w) f(z), computed through the kernel contraction."""
    need = max([f.trunc] + [i for i in f.terms if i >= 0])
    d = delta_expand("full", 0, need)
    res = d.mul_series_z(f).residue_z()
    return RavSeries({j: c for (j,), c in res.items()}, f.trunc)


def delta_decompose(f, N):
    """Decompose f = sum_n d_w^n Delta(z-w) g^(n)(w), n = 0..N, at every
    trailing key of f at once.

    Returns (glist, failures): glist[n] is g^(n) as {(j,) + key: c}, and
    failures maps each key whose distribution is no such sum to
    (condition_name, witness) for the first violated hypothesis, in the
    order below, with the least failing (i, j) as witness.  Both
    conditions and the extraction read one table powers[j] = (w-z)^j f,
    j = 0..N+1, shared by all keys.
    """
    T = min(f.ztr, f.wtr)
    powers = [f]
    for _ in range(N + 1):
        powers.append(powers[-1].mul_w() - powers[-1].mul_z())
    # condition (1): (w-z)^(N+1) f = 0
    failures = {key: ("vanishing", ij)
                for key, ij in powers[N + 1].first_within().items()}
    # condition (2): (Omega^m_z - sum_j (w-z)^j C(m+j,j) Omega^(m+j)_w) f = 0
    for m in range(0, T - N + 1):
        lhs = f.mul_omega_z(m)
        for j in range(N + 1):
            vadd(lhs.terms, powers[j].mul_omega_w(m + j).terms,
                 -binom(m + j, j))
        for key, ij in lhs.first_within().items():
            failures.setdefault(key, ("omega-replacement", (m, ij)))
    # extraction: g^(n)(w) = (1/n!) Res_z dz (z-w)^n f, reliable to the
    # full w window: the w^p coefficient, p <= wtr, reads only f entries
    # of Taylor depth <= p
    glist = [vscale(powers[n].residue_z(), Fraction((-1) ** n, factorial(n)))
             for n in range(N + 1)]
    # verify the rebuild, expanding Delta's w^a Omega^a_z terms as deep as
    # the deepest polar g entry Omega^p_w, which they meet in polar-polar
    # entries of the window.  An exact rank check of each total-degree
    # slice i + j < 3T + 12 (N <= 3, T <= N + 4) found no f that passes
    # both conditions and fails here; that is evidence, not a proof, so
    # the rebuild stays.
    deepest = max([T] + [k[0] for g in glist for k in g if k[0] >= 0])
    rebuilt = delta_build(glist, deepest)
    for key, ij in (rebuilt - f).first_within(f.ztr - N, f.wtr - N).items():
        failures.setdefault(key, ("rebuild", ij))
    return glist, failures


@lru_cache(maxsize=None)
def _delta_derivative(i, trunc):
    """d_w^i Delta(z-w) = i! Delta^(i), truncated at trunc; callers must
    not mutate it."""
    return delta_expand("full", i, trunc).scale(factorial(i))


def delta_build(glist, trunc):
    """sum_i d_w^i Delta(z-w) g^(i)(w) as a BiDist, each g^(i) given as
    {(j,) + key: c}."""
    total = {}
    for i, g in enumerate(glist):
        vadd(total, _delta_derivative(i, trunc).mul_series_w(g).terms)
    return _bidist(total, trunc, trunc)
