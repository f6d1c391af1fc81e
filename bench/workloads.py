"""The benchmark workloads: seeded inputs, timed items and exact oracles.

Each workload is built from one import of raviolo (`rv`, with the
package modules as attributes), the seed and the recorded oracle.  It
exposes `items` (run once per pass, in a seeded order), `once` (run once
per run, after the timed passes) and `window` (the sizes it runs at).

An item's `run` does the timed work and returns its raw output; `check`
runs untimed and turns that output into ops, one (name, ok, detail) per
identity verdict, cohomology or character result, or CLI command, plus
a canonical text used to compare traced and untraced passes.  `nops` is
the number of ops the item stands for when `run` raises.
"""

import contextlib
import io
import os
from fractions import Fraction


class Item:
    def __init__(self, label, run, check, nops, span=None):
        self.label = label
        self.run = run
        self.check = check
        self.nops = nops
        self.span = span  # benchmark-level span name, for CLI commands


def _verdict_ops(prefix, got, expected):
    """Compare a verify_axioms-style list of (name, ok, witness) with the
    recorded [name, ok, witness-text-or-null] list, entry by entry."""
    ops = []
    for i, (name, ok, wit) in enumerate(expected):
        if i >= len(got):
            ops.append(("%s/%s" % (prefix, name), False, "missing"))
            continue
        gname, gok, gwit = got[i]
        gwit = None if gwit is None else str(gwit)
        match = (gname, bool(gok), gwit) == (name, ok, wit)
        ops.append(("%s/%s" % (prefix, name), match,
                    None if match else repr(got[i])))
    for extra in got[len(expected):]:
        ops.append(("%s/%s" % (prefix, extra[0]), False,
                    "unexpected " + repr(extra)))
    return ops


# ------------------------------------------------------------ axiom-suite

class AxiomSuite:
    """verify_axioms from cold memos on the four builtin presets at the
    structure-theorem window, parameters left symbolic.

    The sample states are the vacuum and the generators plus one seeded
    extra basis state g_(-2) or g_(-3); the locality and associativity
    pairs are the generator pairs, and the bivariate expansions run at
    Taylor order 1.  sl2 takes no extra state: its candidates cost from
    1.2 s to 1.7 s each on a 2-core Xeon VM, which would make the pass
    time a function of the seed.  verify_axioms already runs
    check_associativity on every generator pair and check_descent_jacobi
    on the sample states.
    """

    name = "axiom-suite"
    PRESETS = [("fc", "fc", 2), ("h", "heisenberg", None),
               ("vir", "virasoro", None), ("sl2", "sl2", None)]
    SPIN, WORD, TAY = 4, 3, 1
    EXTRA_MODES = (-2, -3)

    def __init__(self, rv, rng, oracle, corpus):
        self.rv = rv
        self.expected = oracle["verdicts"]
        self.items = []
        self.window = {"spin": self.SPIN, "word": self.WORD,
                       "flavor_window": {"fc": 2}, "tay": self.TAY,
                       "extra_states": {}}
        for label, preset, fw in self.PRESETS:
            pres = getattr(rv.catalog, preset)()
            extra = []
            if label != "sl2":
                pool = [((gi, n),) for gi in range(len(pres.gens))
                        for n in self.EXTRA_MODES]
                extra = [rng.choice(pool)]
            self.window["extra_states"][label] = [
                "%s_(%d)" % (pres.gens[gi].name, n) for ((gi, n),) in extra]
            self.items.append(Item(
                label, self._runner(pres, fw, extra),
                self._checker(label), len(self.expected)))
        self.once = []

    def _runner(self, pres, fw, extra):
        eng, one = self.rv.engine, self.rv.scalars.ONE

        def run():
            mod = eng.PBWModule(pres, spin_cap=self.SPIN,
                                word_cap=self.WORD, flavor_window=fw)
            gens = [mod.gen_state(g.name) for g in mod.gens]
            states = eng.default_samples(mod, max_word=1) + \
                [{key: one} for key in extra]
            return eng.verify_axioms(mod, states=states, tay=self.TAY,
                                     deep_states=gens)
        return run

    def _checker(self, label):
        def check(got):
            return _verdict_ops(label, got, self.expected), str(got)
        return check


# ---------------------------------------------------- two-disk-cohomology

class TwoDiskCohomology:
    """Exact elimination: the two-disk cohomology window with its
    exactness witnesses, and superpotential cohomology of the chiral
    weight pair (X, psi of spin 1/2, K = 1, W = NO[X, X]) at a window
    above the deformation criterion's."""

    name = "two-disk-cohomology"
    CAP = 8
    WITNESSES = 5
    SPIN, WORD = 5, 12
    IMAGE_SPIN = 4  # translation-image targets: T of every spin-4 state

    def __init__(self, rv, rng, oracle, corpus):
        self.rv = rv
        self.expected = oracle
        half = Fraction(1, 2)
        G, Gr = rv.modes.GeneratorInfo, rv.scalars.Grading
        self.pres = rv.engine.Presentation(
            "chiral", [G("X", Gr(1, half, 1)), G("psi", Gr(0, half, 1))],
            rv.catalog.fc().table)
        self.items = [Item("cohomology-window", self._window,
                           self._check_window, 1)]
        for m in range(self.WITNESSES):
            self.items.append(Item(
                "exactness-witness-%d" % m, self._witness_runner(m),
                self._witness_checker(m), 1))
        self.items.append(Item("chiral", self._chiral, self._check_chiral,
                               6))
        self.once = []
        self.window = {"cap": self.CAP, "witnesses": self.WITNESSES,
                       "chiral": {"spin": self.SPIN, "word": self.WORD,
                                  "specialize": {"K": 1}}}

    def _window(self):
        return self.rv.dgmodel.check_cohomology_window(self.CAP)

    def _check_window(self, got):
        ok = got == (True, None)
        return [("cohomology-window", ok, None if ok else repr(got))], \
            repr(got)

    def _witness_runner(self, m):
        def run():
            return self.rv.dgmodel.exactness_witness(m)
        return run

    def _witness_checker(self, m):
        dg = self.rv.dgmodel

        def check(p):
            ok = p is not None
            if ok:
                target = dg.a_mul(dg.AElement.gen("z"),
                                  dg.omega_class(m + 1)) - dg.omega_class(m)
                ok = not dg.apoly_sub(dg.d_poly(p), target.odd)
            name = "exactness-witness-%d" % m
            return [(name, ok, None if ok else repr(p))], \
                dg.apoly_str(p) if p is not None else "None"
        return check

    def _chiral(self):
        eng, one = self.rv.engine, self.rv.scalars.ONE
        mod = eng.PBWModule(self.pres, spin_cap=self.SPIN,
                            word_cap=self.WORD, specialize={"K": 1})
        w = mod.nop(mod.gen_state("X"), mod.gen_state("X"))
        rep = eng.superpotential_check(mod, w)
        d = eng.differential_map(mod, w)
        square = eng.check_square_zero(mod, d)
        targets = [mod.translate({k: one}) for k, g in mod.basis()
                   if g.spin == self.IMAGE_SPIN]
        images = [eng.in_translation_image(mod, t) for t in targets]
        negative = eng.in_translation_image(mod, mod.gen_state("X"))
        coh = eng.dg_cohomology(mod, d, spin_cap=self.SPIN)
        return mod, d, rep, square, targets, images, negative, coh

    def _check_chiral(self, out):
        mod, d, rep, square, targets, images, negative, coh = out
        veq = self.rv.scalars.veq
        ops = [("superpotential-grading", rep["grading"] is True, None),
               ("self-bracket-exact",
                rep["self-bracket-exact"] is True
                and veq(mod.translate(rep["primitive"]),
                        rep["self-bracket"]), None),
               ("square-zero", square == (True, None), repr(square))]
        bad = [i for i, ((ok, prim), t) in enumerate(zip(images, targets))
               if not ok or not veq(mod.translate(prim), t)]
        ops.append(("translation-image",
                    len(targets) == self.expected["image_targets"]
                    and not bad, "targets %d, failed %s" % (len(targets),
                                                            bad)))
        ops.append(("translation-image-negative",
                    negative == (False, None), repr(negative)))
        dims = {"%s %d" % (spin, deg): dim
                for (spin, deg, fl), (dim, _) in coh.items()}
        reps_ok = all(len(reps) == dim and all(not d(r) for r in reps)
                      for dim, reps in coh.values())
        ok = dims == self.expected["chiral_dims"] and reps_ok
        ops.append(("dg-cohomology", ok, None if ok else repr(dims)))
        canon = repr((rep["grading"], rep["self-bracket-exact"], square,
                      [mod.state_str(p) if p else p for _, p in images],
                      negative, sorted(dims.items())))
        return [(n, o, None if o else det) for n, o, det in ops], canon


# -------------------------------------------------------------- rav-corpus

class RavCorpus:
    """`rav` commands run in-process through raviolo.cli.main over the
    DSL corpus kept next to this file.  Every command's exit code,
    standard output and standard error must equal the recorded text.

    The known-false `notjacobi` check takes 13-20 s on a 2-core Xeon VM,
    twice the rest of the corpus together, so it runs once per run after
    the timed passes rather than in every pass; it is verified all the
    same.
    """

    name = "rav-corpus"
    COMMANDS = [
        # (op name, span kind, argv; *.rav names live in the corpus)
        ("ope-fc", "ope", ["ope", "fc.rav", "psi", "X"]),
        ("ope-h", "ope", ["ope", "h.rav", "nu", "b"]),
        ("ope-sl2", "ope", ["ope", "sl2.rav", "mu_e", "mu_f"]),
        ("ope-vir", "ope", ["ope", "vir.rav", "Gamma", "Gamma"]),
        ("check-vir", "check", ["check", "vir.rav", "--spin", "3",
                                "--word", "3"]),
        ("check-subset-vir", "check-subset",
         ["check", "vir.rav", "--spin", "3", "--word", "3",
          "--format", "json", "--checks", "vacuum,locality"]),
        ("character-vir", "character",
         ["character", "vir.rav", "--order", "8"]),
        ("character-sl2", "character",
         ["character", "sl2.rav", "--flavor-window", "8"]),
        ("cohomology-chiral", "cohomology",
         ["cohomology", "chiral.rav", "--spin", "2", "--word", "6"]),
        ("brst-sl2", "brst", ["brst", "sl2.rav", "--spin", "2",
                              "--word", "3"]),
        ("module-fock", "module", ["module", "fock", "--lambda", "3/2"]),
        ("lattice", "lattice", ["lattice", "--order", "1", "--spin", "1",
                                "--word", "2"]),
        ("malformed", "check", ["check", "malformed.rav"]),
    ]
    ONCE = [("check-notjacobi", "check",
             ["check", "notjacobi.rav", "--spin", "2", "--word", "3"])]
    # the product-formula oracle of each character command: the
    # q-Pochhammer factors, the series order and the fugacity window
    POCHHAMMER = {
        "character-vir": ([((), 1, 2)], 9, None),
        "character-sl2": ([((("y", 2),), 1, 1), ((), 1, 1),
                           ((("y", -2),), 1, 1)], 6, 8),
    }

    def __init__(self, rv, rng, oracle, corpus):
        self.rv = rv
        self.expected = oracle["commands"]
        series = {name: rv.catalog.pochhammer_expand(
                      factors, order=order, fug_window=fw)
                  for name, (factors, order, fw) in self.POCHHAMMER.items()}
        vir = series["character-vir"]
        self.vir_coeffs_ok = [vir.coeff(n) for n in range(9)] == \
            oracle["vir_character_coefficients"]
        self.series = {name: str(qs) for name, qs in series.items()}
        for fn in sorted(os.listdir(corpus)):
            if fn.endswith(".rav") and fn != "malformed.rav":
                with open(os.path.join(corpus, fn)) as fh:
                    rv.cli.parse_spec(fh.read())

        def item(name, kind, argv):
            argv = [os.path.join(corpus, a) if a.endswith(".rav") else a
                    for a in argv]
            return Item(name, self._runner(argv), self._checker(name), 1,
                        span="cli.cmd." + kind)
        self.items = [item(*c) for c in self.COMMANDS]
        self.once = [item(*c) for c in self.ONCE]
        self.window = {name: argv[1:] for name, _, argv
                       in self.COMMANDS + self.ONCE}

    def _runner(self, argv):
        main = self.rv.cli.main

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()
        return run

    def _checker(self, name):
        def check(got):
            code, out, err = got
            want = self.expected[name]
            ok = (code, out, err) == (want["exit"], want["stdout"],
                                      want["stderr"])
            detail = None if ok else "exit %r, output %r" % (code, out + err)
            if ok and name in self.series:
                lines = out.splitlines()
                ok = self.vir_coeffs_ok and bool(lines) and \
                    lines[-1] == self.series[name]
                detail = None if ok else "series differs from the " \
                    "q-Pochhammer oracle"
            return [(name, ok, detail)], "%r\n%s\n%s" % (code, out, err)
        return check


WORKLOADS = {w.name: w for w in (AxiomSuite, TwoDiskCohomology, RavCorpus)}
