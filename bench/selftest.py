"""Self-test of the benchmark harness.

    python3 bench/selftest.py        (about a minute on 2 cores)

Checks that the oracles bite and that tracing changes nothing:
  - a wrong recorded value makes ops fail and the run exit nonzero;
  - a sign-flipped Virasoro entry, in the DSL corpus and in the library
    table, makes ops fail (and the CLI run exit nonzero);
  - traced passes reproduce the untraced outputs on every workload, and
    per-layer call counts repeat exactly across two traced runs with
    the same seed;
  - every per-layer metric is nonzero on at least one workload;
  - without the source tree the runner exits nonzero and prints no
    result.
Scratch files go to build/bench/selftest/.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys

import run

TMP = run.OUT / "selftest"
SEED = 7


def invoke(workload, trace=0, seconds=1):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", str(seconds), "--trace", str(trace)])
    last = buf.getvalue().splitlines()[-1]
    return code, json.loads(last)


@contextlib.contextmanager
def patched(name, value):
    old = getattr(run, name)
    setattr(run, name, value)
    try:
        yield
    finally:
        setattr(run, name, old)


def wrong_expected_value():
    oracle = json.loads(run.ORACLE.read_text())
    oracle["two-disk-cohomology"]["chiral_dims"]["0 0"] = 2
    path = TMP / "oracle.json"
    path.write_text(json.dumps(oracle))
    with patched("ORACLE", path):
        code, res = invoke("two-disk-cohomology")
    assert code != 0 and res["failed"] > 0 and not res["correct"], res


def sign_flipped_virasoro():
    # the DSL document: flip the central term, which still parses
    corpus = TMP / "corpus"
    shutil.copytree(run.CORPUS, corpus)
    vir = corpus / "vir.rav"
    text = vir.read_text()
    flipped = text.replace("3 -> 1/2 * xi", "3 -> -1/2 * xi")
    assert flipped != text
    vir.write_text(flipped)
    with patched("CORPUS", corpus):
        code, res = invoke("rav-corpus")
    assert code != 0 and res["failed"] > 0, res

    # the library table: flip the index-1 self-product of Gamma only
    rv = run.import_raviolo()
    original = rv.catalog.virasoro

    def virasoro():
        pres = original()
        entries = dict(pres.table.entries)
        key = ("Gamma", "Gamma", 1)
        entries[key] = entries[key].scale(-1)
        return rv.engine.Presentation(pres.name, pres.gens,
                                      rv.modes.OpeTable(entries))
    rv.catalog.virasoro = virasoro
    oracle = json.loads(run.ORACLE.read_text())["axiom-suite"]
    work = run.WORKLOADS["axiom-suite"](rv, random.Random(SEED), oracle,
                                        str(run.CORPUS))
    (item,) = [it for it in work.items if it.label == "vir"]
    ops, _ = item.check(item.run())
    assert any(not ok for _, ok, _ in ops), ops


def traced_runs():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    seen = set()
    for workload in sorted(run.WORKLOADS):
        code, res = invoke(workload, trace=1)
        assert code == 0 and res["correct"], (workload, res)
        seen.update(k for k, v in res["metrics"].items() if v["value"])
        if workload != "rav-corpus":  # its extra run would take 25 s
            code, again = invoke(workload, trace=1)
            assert code == 0
            for name in counts:
                assert res["metrics"][name] == again["metrics"][name], name
    silent = [m["name"] for m in bench["per_layer"]
              if m["name"] not in seen and m["name"] != "ops_failed_ratio"]
    assert not silent, "per-layer metrics zero on every workload: %s" % silent


def bare_directory():
    bare = TMP / "bare"
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % run.HERE.name, "--workload",
         "two-disk-cohomology", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main():
    shutil.rmtree(TMP, ignore_errors=True)
    (TMP / "bare").mkdir(parents=True)
    for test in (wrong_expected_value, sign_flipped_virasoro, traced_runs,
                 bare_directory):
        test()
        print("ok", test.__name__, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
