"""Golden failing rows of the pair checks.

The locality and associativity checks run on fc, h, vir and sl2 as
shipped and with each OPE entry dropped, sign-flipped or doubled (52
tables), for every generator pair on the vacuum, at two windows.  Their
failing rows, with the witness repr, must equal tests/data/pair_rows.json.
The locality check also runs on every pair of generators and translated
generators (g, T g), the pair set of `rav check`, at (spin 3, word 3,
tay 2), where the top singular index N reaches 5; its failing rows must
equal tests/data/locality_translate_rows.json.

Every other verify_axioms row, passing ones included, runs on the same
52 tables at (spin 3, word 2, tay 2) with default_samples(M,
max_word=1) as the samples; the rows and witnesses must equal
tests/data/suite_rows.json.

A change that moves a witness on purpose regenerates the three files with

    PYTHONPATH=src python tests/test_pair_rows.py

and lists every old -> new row it moves.
"""

import json
import os

from raviolo.catalog import fc, sl2, virasoro, heisenberg
from raviolo.engine import (IDENTITIES, PBWModule, check_locality,
                            check_associativity, default_samples,
                            verify_axioms)

from test_engine import _edited

DATA = os.path.join(os.path.dirname(__file__), "data", "pair_rows.json")
TRANSLATE_DATA = os.path.join(os.path.dirname(__file__), "data",
                              "locality_translate_rows.json")
SUITE_DATA = os.path.join(os.path.dirname(__file__), "data",
                          "suite_rows.json")
# (spin_cap, word_cap, tay)
WINDOWS = [(4, 3, 1), (3, 2, 2)]
EDITS = {"drop": None, "flip": -1, "double": 2}


def _tables():
    """(name, edit, presentation); edit is None or [entry, how]."""
    for pres in (fc(), heisenberg(), virasoro(), sl2()):
        yield pres.name, None, pres
        for entry in pres.table.entries:
            for how, factor in EDITS.items():
                yield (pres.name, [list(entry), how],
                       _edited(pres, {entry: factor}))


def pair_rows():
    """Every failing pair-check row, as [table, edit, window, condition,
    a, b, witness repr]."""
    out = []
    for spin, word, tay in WINDOWS:
        for name, edit, pres in _tables():
            M = PBWModule(pres, spin_cap=spin, word_cap=word)
            gens = [M.gen_state(g.name) for g in M.gens]
            for a in gens:
                for b in gens:
                    for check in (check_locality, check_associativity):
                        for cond, ok, wit in check(M, a, b, M.vacuum(), tay):
                            if not ok:
                                out.append([
                                    name, edit, [spin, word, tay],
                                    "%s/%s" % (check.__name__[6:], cond),
                                    M.state_str(a), M.state_str(b),
                                    repr(wit)])
    return out


def locality_translate_rows(spin=3, word=3, tay=2):
    """Every failing locality row on pairs of generators and translated
    generators, as [table, edit, condition, a, b, witness repr]."""
    out = []
    for name, edit, pres in _tables():
        M = PBWModule(pres, spin_cap=spin, word_cap=word)
        gens = [M.gen_state(g.name) for g in M.gens]
        states = gens + [M.translate(g) for g in gens]
        for a in states:
            for b in states:
                for cond, ok, wit in check_locality(M, a, b, M.vacuum(),
                                                    tay):
                    if not ok:
                        out.append([name, edit, cond, M.state_str(a),
                                    M.state_str(b), repr(wit)])
    return out


def suite_rows(spin=3, word=2, tay=2):
    """Every verify_axioms row but the pair checks', as [table, edit,
    identity, ok, witness repr]."""
    checks = [n for n in IDENTITIES if n not in ("locality", "associativity")]
    out = []
    for name, edit, pres in _tables():
        M = PBWModule(pres, spin_cap=spin, word_cap=word)
        for ident, ok, wit in verify_axioms(
                M, default_samples(M, max_word=1), tay=tay, checks=checks):
            out.append([name, edit, ident, ok, repr(wit)])
    return out


def _match(path, got):
    with open(path) as fh:
        want = json.load(fh)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_pair_rows_match_golden_file():
    _match(DATA, pair_rows())


def test_locality_translate_rows_match_golden_file():
    _match(TRANSLATE_DATA, locality_translate_rows())


def test_suite_rows_match_golden_file():
    _match(SUITE_DATA, suite_rows())


if __name__ == "__main__":
    for path, rows in ((DATA, pair_rows()),
                       (TRANSLATE_DATA, locality_translate_rows()),
                       (SUITE_DATA, suite_rows())):
        with open(path, "w") as fh:
            fh.write("[\n" + ",\n".join(json.dumps(r) for r in rows) +
                     "\n]\n")
        print("%d rows written to %s" % (len(rows), path))
