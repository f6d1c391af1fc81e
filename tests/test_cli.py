"""DSL parser, canonical printing, and the rav command surface."""

import json
import os
import re

import pytest

from raviolo.cli import (
    parse_spec, print_doc, expr_str, parse_expr, SpecError, main,
)
from raviolo.catalog import pochhammer_expand
from raviolo.scalars import Grading
from fractions import Fraction

DSL_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "dsl")
BENCH_CORPUS = os.path.join(os.path.dirname(__file__), "..", "bench", "corpus")


def _doc_path(name):
    return os.path.join(DSL_DIR, name)


# ------------------------------------------------------ parsing

def test_parse_virasoro_document():
    doc = parse_spec(open(_doc_path("vir.rav")).read())
    assert doc.name == "vir"
    assert doc.gen_names == ["Gamma"]
    assert doc.grading("Gamma") == Grading(1, 2, 0)
    assert set(doc.entries) == {("Gamma", "Gamma", n) for n in (0, 1, 3)}


def test_parse_derives_skew_entries():
    doc = parse_spec(open(_doc_path("fc.rav")).read())
    # only (psi, X, 0) is declared; the opposite order is derived
    assert ("X", "psi", 0) in doc.derived
    assert ("X", "psi", 0) in doc.entries
    from raviolo.catalog import fc
    ref = fc(0, 0).table.entries
    assert (doc.entries[("X", "psi", 0)]
            - ref[("X", "psi", 0)]).is_zero()


def test_example_documents_match_presets():
    from raviolo.catalog import fc, heisenberg, virasoro, sl2
    for name, ref in (("fc.rav", fc(Fraction(1, 2), 0)),
                      ("h.rav", heisenberg()),
                      ("vir.rav", virasoro()),
                      ("sl2.rav", sl2())):
        doc = parse_spec(open(_doc_path(name)).read())
        assert doc.gen_names == [g.name for g in ref.gens], name
        for g in ref.gens:
            assert doc.grading(g.name) == g.grading, (name, g.name)
        ref_entries = ref.table.entries
        assert set(doc.entries) == set(ref_entries), name
        for k in ref_entries:
            assert (doc.entries[k] - ref_entries[k]).is_zero(), (name, k)
    # the benchmark runs its own copies of the documents
    for name in ("fc.rav", "h.rav", "vir.rav", "sl2.rav", "chiral.rav"):
        with open(_doc_path(name), "rb") as a, \
                open(os.path.join(BENCH_CORPUS, name), "rb") as b:
            assert a.read() == b.read(), name


def test_skew_conflict_rejected():
    text = """\
algebra bad
generator b : deg 0 spin 1 even
generator nu : deg 1 spin 1 even
ope b nu : 1 -> K
ope nu b : 1 -> K
"""
    with pytest.raises(SpecError, match="skew"):
        parse_spec(text)


def test_grading_violation_rejected():
    text = """\
algebra bad
generator G : deg 1 spin 2 even
ope G G : 1 -> 3 * D^1 G
"""
    with pytest.raises(SpecError, match="grading"):
        parse_spec(text)


def test_empty_document_rejected():
    with pytest.raises(SpecError, match="no generators"):
        parse_spec("algebra nothing\n")


def test_use_preset_expands():
    doc = parse_spec("algebra sl2\nuse sl2\n")
    assert doc.gen_names == ["mu_e", "mu_h", "mu_f"]
    doc2 = parse_spec("algebra twofc\nuse fc_multi(n=2)\n")
    assert len(doc2.gens) == 4


# documents whose names clash: each is rejected at the line that makes
# the clash, so no name is silently replaced or made unreachable
NAME_CLASHES = {
    "param-twice": ("algebra a\nparam c : deg 0 even\n"
                    "param c : deg 0 even\n", "line 3: param 'c'"),
    "param-after-generator": ("algebra a\ngenerator X : deg 1 spin 1 even\n"
                              "param X : deg 0 even\n", "line 3: param 'X'"),
    "param-builtin": ("algebra a\nparam K : deg 1 odd\nuse heisenberg\n",
                      "line 2: param 'K' is builtin"),
    "generator-after-param": ("algebra a\nparam c : deg 0 even\n"
                              "generator c : deg 1 spin 1 even\n",
                              "line 3: generator 'c'"),
    "preset-after-param": ("algebra a\nparam X : deg 0 even\nuse fc\n",
                           "line 3: preset generator 'X'"),
}


@pytest.mark.parametrize("case", sorted(NAME_CLASHES))
def test_name_clash_rejected(case, tmp_path, capsys):
    text, want = NAME_CLASHES[case]
    with pytest.raises(SpecError, match=want):
        parse_spec(text)
    path = tmp_path / "clash.rav"
    path.write_text(text)
    assert main(["character", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + want) and err.count("\n") == 1


# expression and rational errors name their line like statement errors
EXPR_ERRORS = {
    "generator-spin": ("algebra a\ngenerator X : deg 1 spin 1/0 even\n",
                       "line 2: bad rational '1/0'"),
    "ope-clause": ("algebra a\ngenerator X : deg 0 spin 1 even\n"
                   "ope X X : 1 -> Q\n", "line 3: unknown name 'Q'"),
    "superpotential": ("algebra a\ngenerator X : deg 0 spin 1 even\n"
                       "superpotential NO[X, Y]\n",
                       "line 3: unknown name 'Y'"),
    "preset-argument": ("algebra a\nuse fc(s=1/0)\n",
                        "line 2: bad rational '1/0'"),
    "end-of-expression": ("algebra a\ngenerator X : deg 0 spin 1 even\n"
                          "ope X X : 1 -> 1 +\n",
                          "line 3: unexpected end of expression"),
}


@pytest.mark.parametrize("case", sorted(EXPR_ERRORS))
def test_expression_errors_name_the_line(case, tmp_path, capsys):
    text, want = EXPR_ERRORS[case]
    path = tmp_path / "bad.rav"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % want


def test_expr_productions():
    doc = parse_spec("""\
algebra probe
generator X : deg 1 spin 1/2 odd
generator psi : deg 0 spin 1/2 odd
ope psi X : 0 -> K
superpotential 2 * NO[X, X] + -1/2 * NO[X, NO[X, X]] + D^2 X
""")
    w = doc.superpotential
    monos = set(w.terms)
    assert (("X", 0), ("X", 0)) in monos
    assert (("X", 0), ("X", 0), ("X", 0)) in monos
    assert (("X", 2),) in monos


# ------------------------------------------------------ round trip

ROUND_TRIP_CORPUS = [
    # every grammar production: param, flavored generator, multi-clause
    # ope, derivatives, NO nesting, rational scaling, superpotential
    """\
algebra full
param lam : deg 0 even
generator A : deg 1 spin 2 even
generator B : deg 0 spin 1 even flavor 1
generator C : deg 1 spin 1 even flavor -1
generator Z : deg 0 spin 0 even
ope A A : 3 -> 1/2 * xi ; 1 -> 2 * A ; 0 -> D^1 A
ope B C : 1 -> lam
ope A B : 1 -> -3/2 * NO[Z, B] + 2 * NO[Z, NO[Z, B]]
superpotential 2 * NO[B, C] + -1/2 * D^2 Z
""",
    "algebra h\nuse heisenberg\n",
    "algebra vir\nuse virasoro\n",
]


def test_round_trip_identity():
    for text in ROUND_TRIP_CORPUS:
        doc = parse_spec(text)
        printed = print_doc(doc)
        doc2 = parse_spec(printed)
        assert print_doc(doc2) == printed
        assert doc2.name == doc.name
        assert doc2.gen_names == doc.gen_names
        assert set(doc2.entries) == set(doc.entries)
        for k in doc.entries:
            assert (doc.entries[k] - doc2.entries[k]).is_zero(), k


def test_expr_print_parse():
    doc = parse_spec("algebra h\nuse heisenberg\n")
    for text in ("K", "2 * K", "-1/2 * b", "NO[b, nu]",
                 "D^1 b + 3 * NO[b, D^2 nu]"):
        e = parse_expr(text, doc)
        assert (parse_expr(expr_str(e), doc) - e).is_zero(), text


# ------------------------------------------------------ commands

def test_check_command_passes(capsys):
    assert main(["check", _doc_path("vir.rav"),
                 "--spin", "3", "--word", "3"]) == 0
    out = capsys.readouterr().out
    assert "locality" in out and "fail" not in out


def test_check_json_schema(capsys):
    assert main(["check", _doc_path("h.rav"), "--format", "json",
                 "--spin", "3", "--word", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["algebra"] == "h"
    assert rep["window"] == {"spin": 3, "word": 3}
    for c in rep["checks"]:
        assert set(c) == {"name", "status", "witness"}
        assert c["status"] == "pass"


def test_checks_filter(capsys):
    assert main(["check", _doc_path("h.rav"), "--checks",
                 "vacuum,locality", "--spin", "3", "--word", "3"]) == 0
    rep = capsys.readouterr().out
    assert "vacuum" in rep and "skew-symmetry " not in rep


def test_checks_filter_reports_failed_conditions(monkeypatch, capsys):
    import raviolo.engine as engine

    def failing_locality(mod, a, b, v, tay=2):
        return [("order-ab", False, ("forced",)), ("order-ba", True, None)]

    def not_selected(*args, **kwargs):
        raise AssertionError("an unselected identity ran")

    monkeypatch.setattr(engine, "check_locality", failing_locality)
    monkeypatch.setattr(engine, "check_skew", not_selected)
    monkeypatch.setattr(engine, "check_associativity", not_selected)
    assert main(["check", _doc_path("vir.rav"), "--checks",
                 "vacuum,locality", "--spin", "3", "--word", "3"]) == 1
    out = capsys.readouterr().out
    assert "locality/order-ab" in out and "fail" in out
    assert "vacuum" in out and "order-ba" not in out

    def failing_associativity(mod, a, b, v, tay=2):
        return [("expand-w-near-0", True, None),
                ("expand-z-near-0", False, ("forced",))]

    monkeypatch.setattr(engine, "check_associativity", failing_associativity)
    monkeypatch.setattr(engine, "check_locality", not_selected)
    assert main(["check", _doc_path("vir.rav"), "--checks", "associativity",
                 "--spin", "3", "--word", "3"]) == 1
    out = capsys.readouterr().out
    assert "associativity/expand-z-near-0" in out
    assert "vacuum" not in out and "expand-w-near-0" not in out


def test_invalid_presentation_exits_2_with_and_without_asserts(tmp_path):
    # validation must not rest on assert, which python -O strips
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    neg = tmp_path / "neg.rav"
    neg.write_text("algebra neg\ngenerator a : deg 0 spin -1 even\n")
    # the ghost extension of J adds a second generator named c_J
    dup = tmp_path / "dup.rav"
    dup.write_text("algebra dup\ngenerator J : deg 1 spin 1 even\n"
                   "generator c_J : deg 1 spin 1/2 odd\n")
    zero = tmp_path / "zero.rav"
    zero.write_bytes(BAD_INPUT_DOCS["ope.rav"])
    for flags in ([], ["-O"]):
        for argv, msg in ((["check", str(neg)], "negative spin"),
                          (["brst", str(dup)], "duplicate generator names"),
                          (["check", str(zero)], "bad rational '1/0'"),
                          (["module", "fock", "--lambda", "1/0"],
                           "bad rational '1/0'")):
            r = subprocess.run(
                [sys.executable] + flags + ["-m", "raviolo.cli"] + argv,
                capture_output=True, text=True, env=env, timeout=120)
            assert r.returncode == 2, (flags, argv, r.stdout, r.stderr)
            assert msg in r.stderr and "Traceback" not in r.stderr


def test_ope_command(capsys):
    assert main(["ope", _doc_path("vir.rav"), "Gamma", "Gamma"]) == 0
    out = capsys.readouterr().out
    assert "Omega^3 (1/2*xi*|0>)" in out
    assert "Omega^1 (2*Gamma_(-1)|0>)" in out
    assert "Omega^0 (Gamma_(-2)|0>)" in out


def test_character_command(capsys):
    assert main(["character", _doc_path("vir.rav"), "--order", "5"]) == 0
    assert "1 - q^2 - q^3 - q^4 + O(q^6)" in capsys.readouterr().out


def test_character_window_follows_order(capsys):
    """--order 3 prints up to O(q^4), so the window holds the spin-7/2
    states of the spin-1/2 pair too: the series is the q-Pochhammer
    ratio through q^(7/2)."""
    assert main(["character", _doc_path("fc.rav"), "--order", "3",
                 "--word", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "algebra fc (spin <= 4, word <= 8)"
    assert out[-1] == str(pochhammer_expand(
        [((("y", 1),), -1, "1/2"), ((("y", -1),), 1, "1/2")], order=4))


def test_cohomology_command(capsys):
    assert main(["cohomology", _doc_path("chiral.rav"),
                 "--spin", "2", "--word", "6"]) == 0
    out = capsys.readouterr().out
    assert "square-zero" in out and "fail" not in out


def test_brst_command(capsys):
    for window in (["--spin", "2", "--word", "3"],
                   ["--spin", "3", "--word", "5"]):
        assert main(["brst", _doc_path("sl2.rav")] + window) == 0, window
        out = capsys.readouterr().out
        assert "square-zero              pass" in out and "fail" not in out


# sl2 written out with a neutral mu_h that declares no flavor axis, so
# its weight () meets the (0,) of the charged currents in one charge
SL2_NEUTRAL_H = """\
algebra sl2
generator mu_e : deg 1 spin 1 even flavor 2
generator mu_h : deg 1 spin 1 even
generator mu_f : deg 1 spin 1 even flavor -2
ope mu_h mu_e : 0 -> 2 * mu_e
ope mu_h mu_f : 0 -> -2 * mu_f
ope mu_e mu_f : 0 -> mu_h ; 1 -> 4 * kappa
"""


def test_brst_neutral_flavor_mix(tmp_path, capsys):
    path = tmp_path / "sl2.rav"
    path.write_text(SL2_NEUTRAL_H + "ope mu_h mu_h : 1 -> 8 * kappa\n")
    assert main(["brst", str(path), "--spin", "2", "--word", "3"]) == 0
    assert "square-zero              pass" in capsys.readouterr().out
    # without the Killing-form entry of mu_h the charge does not square
    # to zero: a verdict, not a homogeneity traceback
    path.write_text(SL2_NEUTRAL_H)
    assert main(["brst", str(path), "--spin", "2", "--word", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "charge-grading           pass",
        "square-zero              fail  [('b_mu_e_(-1)|0>',)]"]


def test_module_and_lattice_commands(capsys):
    assert main(["module", "fock", "--lambda", "3/2"]) == 0
    assert "kernel-is-cyclic" in capsys.readouterr().out
    assert main(["lattice", "--order", "1"]) == 0
    assert "defining-relations" in capsys.readouterr().out


def test_lattice_window_zero_rejected(capsys):
    # window 0 has no sector pair, so the relations check would be vacuous;
    # only an absent flag means the default window 3
    assert main(["lattice", "--order", "1", "--flavor-window", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: lattice needs --flavor-window >= 1\n"
    assert main(["lattice", "--order", "1", "--flavor-window", "1"]) == 0
    assert "lattice(window=1)" in capsys.readouterr().out


# each subcommand takes only the options it reads
COMMAND_OPTIONS = {
    "check": {"--spin", "--word", "--format", "--flavor-window", "--checks"},
    "ope": {"--spin", "--word", "--format", "--flavor-window"},
    # the spin window of character follows --order
    "character": {"--word", "--format", "--flavor-window", "--order"},
    "brst": {"--spin", "--word", "--format", "--flavor-window"},
    "cohomology": {"--spin", "--word", "--format", "--flavor-window"},
    "module": {"--spin", "--word", "--format", "--lambda"},
    "lattice": {"--spin", "--word", "--format", "--flavor-window",
                "--order"},
}


def test_subcommand_options(capsys):
    for cmd, want in COMMAND_OPTIONS.items():
        assert main([cmd, "--help"]) == 0, cmd
        got = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert got - {"--help"} == want, cmd
    assert sum(map(len, COMMAND_OPTIONS.values())) == 30
    # a flag the subcommand would ignore is an input error
    for argv in (["ope", _doc_path("fc.rav"), "psi", "X", "--checks",
                  "vacuum"],
                 ["character", _doc_path("vir.rav"), "--checks", "bogus"],
                 ["check", _doc_path("vir.rav"), "--spin", "1", "--word",
                  "1", "--order", "5"],
                 ["module", "fock", "--flavor-window", "2"]):
        assert main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


# documents rav must reject with exit 2: a zero-denominator rational in
# a spin, an OPE coefficient and a preset argument; non-UTF-8 bytes
BAD_INPUT_DOCS = {
    "spin.rav": b"algebra z\ngenerator X : deg 1 spin 1/0 even\n",
    "ope.rav": b"algebra z\ngenerator X : deg 1 spin 1 even\n"
               b"generator Y : deg 0 spin 1 even\n"
               b"ope X Y : 1 -> 1/0 * K\n",
    "use.rav": b"algebra z\nuse fc(s=1/0)\n",
    "latin1.rav": b"algebra caf\xe9\ngenerator X : deg 1 spin 1 even\n",
}


def test_exit_codes(tmp_path, capsys):
    # 2: input errors
    assert main(["check", str(tmp_path / "absent.rav")]) == 2
    bad = tmp_path / "bad.rav"
    bad.write_text("algebra x\ngenerator G : deg 1 spin 2 even\n"
                   "ope G G : 1 -> 3 * D^1 G\n")
    assert main(["check", str(bad)]) == 2
    # a parameter left in the OPE has no rational cohomology to compute
    param = tmp_path / "param.rav"
    param.write_text("algebra chirala\n"
                     "param a : deg 0 even\n"
                     "generator X : deg 1 spin 1/2 odd\n"
                     "generator psi : deg 0 spin 1/2 odd\n"
                     "ope psi X : 0 -> a\n"
                     "superpotential NO[X, X]\n")
    assert main(["cohomology", str(param), "--spin", "2",
                 "--word", "4"]) == 2
    assert "non-rational coefficient" in capsys.readouterr().err
    # a zero superpotential (0, or NO[psi, psi] of an odd psi) fails its
    # grading row with a witness, as a zero BRST charge does; an
    # inhomogeneous one is an input error
    chiral = open(_doc_path("chiral.rav")).read()
    assert "superpotential NO[X, X]\n" in chiral
    for sp in ("0", "NO[psi, psi]", "NO[X, X] + X"):
        doc = tmp_path / "w.rav"
        doc.write_text(chiral.replace("NO[X, X]", sp))
        code = main(["cohomology", str(doc), "--spin", "2", "--word", "4"])
        out, err = capsys.readouterr()
        if sp == "NO[X, X] + X":
            assert (code, out, err) == (2, "", "error: superpotential "
                                        "X + NO[X, X] is not homogeneous\n")
        else:
            assert code == 1 and err == "", sp
            assert "superpotential-grading   fail  [zero superpotential]" \
                in out.splitlines(), sp
    # 1: a verified-false identity (structure constants violate the
    # triple-bracket identity; skew-consistent, so it parses)
    wrong = tmp_path / "wrong.rav"
    wrong.write_text("algebra notjacobi\n"
                     "generator mu_e : deg 1 spin 1 even\n"
                     "generator mu_h : deg 1 spin 1 even\n"
                     "generator mu_f : deg 1 spin 1 even\n"
                     "ope mu_h mu_e : 0 -> 2 * mu_e\n"
                     "ope mu_h mu_f : 0 -> -2 * mu_f\n"
                     "ope mu_e mu_f : 0 -> mu_h + mu_e\n")
    assert main(["check", str(wrong), "--spin", "2", "--word", "3"]) == 1
    assert "fail" in capsys.readouterr().out
    # 2: a negative window would make every verdict vacuous
    for argv in (["cohomology", _doc_path("chiral.rav"), "--spin", "-1",
                  "--word", "6"],
                 ["character", _doc_path("vir.rav"), "--order", "-2"],
                 ["check", _doc_path("vir.rav"), "--word", "-1"],
                 ["character", _doc_path("sl2.rav"),
                  "--flavor-window", "-1"]):
        assert main(argv) == 2, argv
        assert ">= 0" in capsys.readouterr().err, argv
    # 2: a check name outside the suite, before any module is built
    assert main(["check", _doc_path("vir.rav"), "--checks",
                 "vacuum,bogus"]) == 2
    assert "unknown checks: bogus" in capsys.readouterr().err
    # an empty item (a trailing or lone comma, or an empty value) is
    # named, not left blank or read as "every check"
    for checks in ("locality,", ",", ""):
        assert main(["check", _doc_path("vir.rav"), "--checks",
                     checks]) == 2, checks
        assert capsys.readouterr().err == "error: unknown checks: ''\n", \
            checks
    # 2: a spin-0 even generator makes the graded pieces infinite; the
    # commands that enumerate a basis say so instead of a traceback
    flat = tmp_path / "flat.rav"
    flat.write_text("algebra flat\n"
                    "generator J : deg 1 spin 1 even\n"
                    "generator phi : deg 0 spin 0 even\n")
    for cmd in ("character", "brst"):
        assert main([cmd, str(flat)]) == 2, cmd
        assert capsys.readouterr().err == (
            "error: graded pieces are infinite in phi; pass "
            "--flavor-window\n"), cmd
    # 2: a zero-denominator rational, a non-UTF-8 document or a bad
    # --lambda is one error line, not a traceback
    for name, text in BAD_INPUT_DOCS.items():
        path = tmp_path / name
        path.write_bytes(text)
        assert main(["check", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, name
    for lam in ("1/0", "abc"):
        assert main(["module", "fock", "--lambda", lam]) == 2, lam
        assert capsys.readouterr().err == (
            "error: bad rational %r\n" % lam), lam


# stdout, stderr and exit code of 22 argvs, recorded when every call
# built all seven subparsers: help, no or an unknown command, option
# errors that print the top-level or the subcommand usage line, "--",
# an abbreviated option, and commands that run
PARSER_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                             "cli_parser_golden.json")


def test_parser_output_matches_golden(monkeypatch, capsys):
    import argparse
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    # usage lines wrap at the terminal width; the paths are relative
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    with open(PARSER_GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 22
    for case in cases:
        argv = case["argv"]
        built.clear()
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out, err) == \
            (case["exit"], case["stdout"], case["stderr"]), argv
        # a call that names its command first builds that subparser only
        named = bool(argv) and argv[0] in COMMAND_OPTIONS
        assert built == ([argv[0]] if named else list(COMMAND_OPTIONS)), \
            argv
