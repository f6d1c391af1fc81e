"""Spans and counters around raviolo's layers, installed from outside.

Nothing in the package is edited: `Instrumentation` swaps wrappers into
the package's module and class namespaces for the traced passes and puts
the originals back afterwards.  A function that another module imported
by name (engine takes `solve` from linalg, verify_axioms reads the
`check_*` functions from engine's globals) is wrapped in every namespace
that holds it, so those calls are seen too.

A span records its name, start, end, parent span and pass id; spans stay
in memory until `write_spans`.  Self time is a span's duration minus the
time its child spans cover.  Identity spans (`engine.check.*`) also keep
an identity-self time, which subtracts only nested identity spans:
poisson-split and zero-mode-derivation call descent-derivation, and that
share is booked to descent-derivation.  Scalar arithmetic and other
millions-of-calls functions get counters only.
"""

import time

# (module, attribute, metric base name, kind).  "Class.attr" names a
# method.  Kinds: "count" counts calls; "span" also records a span;
# "identity" is a span timed as identity-self; "rref" is a span that also
# sums rows x columns of its input; "register" remembers each new
# PBWModule so its memo sizes can be read when the pass ends.
TARGETS = [
    ("scalars", "Scalar.__mul__", "scalars.Scalar.mul", "count"),
    ("scalars", "Scalar.__add__", "scalars.Scalar.add", "count"),
    ("scalars", "Scalar.subs", "scalars.Scalar.subs", "count"),
    ("scalars", "Scalar.parity_twist", "scalars.Scalar.parity_twist",
     "count"),
    ("scalars", "vadd", "scalars.vadd", "count"),
    ("scalars", "veq", "scalars.veq", "count"),
    ("modes", "bracket_from_ope", "modes.bracket_from_ope", "span"),
    ("modes", "vac_induce", "modes.vac_induce", "span"),
    ("engine", "PBWModule.__init__", "engine.PBWModule", "register"),
    ("engine", "PBWModule._act_key", "engine.act_key", "span"),
    ("engine", "PBWModule._mono_key", "engine.mono_key", "span"),
    ("engine", "PBWModule.field_mode", "engine.field_mode", "count"),
    ("engine", "check_vacuum_axiom", "engine.check.vacuum", "identity"),
    ("engine", "check_translation_axiom", "engine.check.translation",
     "identity"),
    ("engine", "check_skew", "engine.check.skew-symmetry", "identity"),
    ("engine", "check_nop_commutative",
     "engine.check.product-commutative", "identity"),
    ("engine", "check_nop_associative",
     "engine.check.product-associative", "identity"),
    ("engine", "check_zero_mode_derivation",
     "engine.check.zero-mode-derivation", "identity"),
    ("engine", "check_descent_derivation",
     "engine.check.descent-derivation", "identity"),
    ("engine", "check_descent_jacobi", "engine.check.descent-jacobi",
     "identity"),
    ("engine", "check_composite_fields", "engine.check.composite-fields",
     "identity"),
    ("engine", "check_locality", "engine.check.locality", "identity"),
    ("engine", "check_associativity", "engine.check.associativity",
     "identity"),
    ("engine", "check_poisson_split", "engine.check.poisson-split",
     "identity"),
    ("engine", "dg_cohomology", "engine.dg_cohomology", "span"),
    ("engine", "in_translation_image", "engine.in_translation_image",
     "span"),
    ("series", "delta_decompose", "series.delta_decompose", "span"),
    ("linalg", "rref", "linalg.rref", "rref"),
    ("linalg", "in_span", "linalg.in_span", "span"),
    ("linalg", "solve", "linalg.solve", "span"),
    ("linalg", "kernel_basis", "linalg.kernel_basis", "span"),
    ("dgmodel", "check_cohomology_window", "dgmodel.check_cohomology_window",
     "span"),
    ("dgmodel", "cohomology_basis", "dgmodel.cohomology_basis", "count"),
    ("dgmodel", "is_exact", "dgmodel.is_exact", "count"),
    ("catalog", "character", "catalog.character", "span"),
    ("catalog", "check_lattice_relations", "catalog.check_lattice_relations",
     "span"),
    ("catalog", "highest_weight_kernel", "catalog.highest_weight_kernel",
     "span"),
    ("cli", "parse_spec", "cli.parse_spec", "span"),
]


class Tracer:
    """Per-pass counters and timers plus the list of every span."""

    def __init__(self):
        self.spans = []    # (id, name, start_ns, end_ns, parent id, pass)
        self.pass_id = -1
        self._next_id = 0
        self._stack = []   # open frames [id, name, start_ns, child_ns]
        self._idstack = []  # open identity frames [identity child_ns]
        self._open = {}    # name -> open depth, for outermost-only totals
        self.start_pass(-1)

    def start_pass(self, pass_id):
        self.pass_id = pass_id
        self.calls = {}
        self.self_ns = {}
        self.total_ns = {}
        self.identity_ns = {}
        self.extra = {}
        self.modules = []

    def count(self, name, k=1):
        self.calls[name] = self.calls.get(name, 0) + k

    def add(self, name, v):
        self.extra[name] = self.extra.get(name, 0) + v

    def enter(self, name, identity=False):
        self.calls[name] = self.calls.get(name, 0) + 1
        sid = self._next_id
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1
        if identity:
            self._idstack.append([0])
        self._stack.append([sid, name, time.perf_counter_ns(), 0])

    def leave(self, identity=False):
        end = time.perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, start, end,
                           parent[0] if parent else -1, self.pass_id))
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        depth = self._open[name] - 1
        self._open[name] = depth
        if not depth:
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
        if identity:
            (nested,) = self._idstack.pop()
            self.identity_ns[name] = \
                self.identity_ns.get(name, 0) + dur - nested
            if self._idstack:
                self._idstack[-1][0] += dur

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tpass\n")
            for s in self.spans:
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % s)


def _wrap(tr, name, kind, fn):
    if kind == "count":
        def wrapper(*args, **kwargs):
            tr.count(name)
            return fn(*args, **kwargs)
    elif kind == "register":
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            tr.modules.append(self)
    else:
        identity = kind == "identity"

        def wrapper(*args, **kwargs):
            if kind == "rref" and args[0]:
                tr.add("linalg.rref.entries", len(args[0]) * len(args[0][0]))
            tr.enter(name, identity)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.leave(identity)
    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """The wrappers for one tracer over one import of the package."""

    def __init__(self, rv, tracer):
        self.swaps = []  # (namespace object, attribute, original, wrapper)
        for modname, attr, name, kind in TARGETS:
            owner = getattr(rv, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                w = _wrap(tracer, name, kind, fn)
                # aliases such as Scalar.__radd__ = __add__
                for a, v in list(cls.__dict__.items()):
                    if v is fn:
                        self.swaps.append((cls, a, fn, w))
                continue
            fn = getattr(owner, attr)
            w = _wrap(tracer, name, kind, fn)
            for mod in rv.modules:
                for a, v in list(vars(mod).items()):
                    if v is fn:
                        self.swaps.append((mod, a, fn, w))

    def install(self):
        for ns, a, _, w in self.swaps:
            setattr(ns, a, w)

    def remove(self):
        for ns, a, fn, _ in self.swaps:
            setattr(ns, a, fn)
