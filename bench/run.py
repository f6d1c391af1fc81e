"""raviolo benchmark: exact-verification workloads, timed and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; raviolo is imported from
the checkout's `src/`, and the metric names and units come from the
checkout's `BENCHMARK.json`.  One single-threaded process runs one
workload in a closed loop: a pass runs every item of the workload once,
in an order drawn from the seed, and the next pass starts when it ends.
Passes continue until the next one would end after S seconds.  Memos
start cold in every pass, because every `rav` invocation pays for them.

Every output is compared with its recorded exact value (`oracle.json`);
an op fails on an exception, a wrong exit code or any differing output.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is 0 only when every
op passed.

--trace 0 reports the end-to-end metrics: the median pass time (the
highest percentile with at least 10 passes beyond it, and the pass
count, are printed above the JSON line), the median of several set-ups
(a fresh import of raviolo plus input generation) and the peak RSS.
Both times are reference-speed seconds (`refclock.py`): on a shared
host the raw wall time of the same pass moves by up to 2x with the
neighbours' load, so the CPU's speed is sampled during the pass and
the time is scaled to a fixed speed.  The raw times are printed above
the JSON line and kept in the run record.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones: call counts from the first traced
pass, times as medians over traced passes, and the tracing overhead as
traced minus untraced median pass time.  Traced and untraced passes must
produce identical outputs.  Each run writes its record, with the
environment, to build/bench/, and a traced run also writes its spans
there.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE = HERE / "oracle.json"
CORPUS = HERE / "corpus"
OUT = ROOT / "build" / "bench"
LAYERS = ("scalars", "modes", "engine", "series", "linalg", "dgmodel",
          "catalog", "cli")
SETUP_REPS = 11

sys.path.insert(0, str(HERE))
from refclock import RefClock  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupError(Exception):
    """raviolo cannot be imported from this checkout."""


def import_raviolo():
    """A fresh import of every raviolo module from ROOT/src."""
    src = ROOT / "src"
    if not (src / "raviolo" / "__init__.py").is_file():
        raise SetupError("no raviolo source tree under %s" % src)
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "raviolo" or m.startswith("raviolo.")]:
        del sys.modules[name]
    rv = types.SimpleNamespace(modules=[])
    for layer in LAYERS:
        mod = importlib.import_module("raviolo." + layer)
        if not Path(mod.__file__).resolve().is_relative_to(src.resolve()):
            raise SetupError("raviolo.%s imported from %s"
                             % (layer, mod.__file__))
        setattr(rv, layer, mod)
        rv.modules.append(mod)
    return rv


def environment(args, window):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "window": window}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_item(item, tracer, times):
    if tracer is not None and item.span:
        tracer.enter(item.span)
    t0 = time.perf_counter()
    try:
        return True, item.run()
    except Exception as e:  # a crashing item fails its ops, run goes on
        return False, "%s: %s" % (type(e).__name__, e)
    finally:
        times.setdefault(item.label, []).append(time.perf_counter() - t0)
        if tracer is not None and item.span:
            tracer.leave()


def check_item(item, raised, out):
    if raised:
        return [(item.label, False, out)] * item.nops, "raised " + out
    try:
        return item.check(out)
    except Exception as e:
        msg = "%s: %s" % (type(e).__name__, e)
        return [(item.label, False, "check raised " + msg)] * item.nops, msg


def layer_snapshot(tracer):
    """The per-layer values of one traced pass, by metric name."""
    m = {}
    for name, k in tracer.calls.items():
        m[name + ".calls"] = k
    for name, ns in tracer.self_ns.items():
        m[name + ".self_s"] = ns / 1e9
    for name, ns in tracer.total_ns.items():
        m[name + ".s"] = ns / 1e9
    for name, ns in tracer.identity_ns.items():
        m[name + ".s"] = ns / 1e9
    m.update(tracer.extra)
    m["linalg.self_s"] = sum(ns for name, ns in tracer.self_ns.items()
                             if name.startswith("linalg.")) / 1e9
    memo = {"act": 0, "mono": 0, "kg": 0}
    for mod in tracer.modules:
        memo["act"] += len(mod._act_memo)
        memo["mono"] += len(mod._mono_memo)
        memo["kg"] += len(mod._kg_memo)
    for key in ("act", "mono"):
        calls = tracer.calls.get("engine.%s_key" % key, 0)
        m["engine.%s_key.memo_hit_ratio" % key] = \
            1 - memo[key] / calls if calls else 0.0
    m["engine.memo_entries"] = sum(memo.values())
    return m


def tail(samples):
    """(percentile, value) with at least 10 samples above it, or None."""
    n = len(samples)
    if n <= 20:
        return None  # the candidate would sit at or below the median
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        oracle = json.loads(ORACLE.read_text())[args.workload]
        setups, raw_setups = [], []
        for _ in range(SETUP_REPS):
            with RefClock() as clock:
                rv = import_raviolo()
                work = WORKLOADS[args.workload](
                    rv, random.Random(args.seed), oracle, str(CORPUS))
            setups.append(clock.ref)
            raw_setups.append(clock.raw)
    except Exception as e:  # no result without a working set-up
        print("error: cannot set up %s: %s: %s"
              % (args.workload, type(e).__name__, e), file=sys.stderr)
        return 2
    env = environment(args, work.window)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    instr = Instrumentation(rv, tracer) if traced else None
    order = random.Random(args.seed)
    walls = {False: [], True: []}  # raw seconds
    ref_walls = []  # untraced passes in reference-speed seconds
    item_walls = {False: {}, True: {}}
    snapshots = []
    reference = {}  # item label -> canonical output of an untraced pass
    ops = []
    deadline = time.perf_counter() + args.seconds
    n = 0
    while True:
        use = traced and n % 2 == 1
        items = list(work.items)
        order.shuffle(items)
        gc.collect()
        if use:
            tracer.start_pass(n)
            instr.install()
            t0 = time.perf_counter()
            try:
                outs = [run_item(it, tracer, item_walls[use])
                        for it in items]
            finally:
                instr.remove()
            walls[use].append(time.perf_counter() - t0)
        else:
            with RefClock() as clock:
                outs = [run_item(it, None, item_walls[use]) for it in items]
            walls[use].append(clock.raw)
            ref_walls.append(clock.ref)
        if use:
            snapshots.append(layer_snapshot(tracer))
            tracer.modules = []
        for it, (ok, out) in zip(items, outs):
            item_ops, canon = check_item(it, not ok, out)
            ops.extend(item_ops)
            if not use:
                reference.setdefault(it.label, canon)
            elif canon != reference.get(it.label):
                ops.append(("traced-output/" + it.label, False,
                            "traced output differs from untraced"))
        n += 1
        if walls[False] and (walls[True] or not traced):
            nxt = walls[traced and n % 2 == 1]
            if time.perf_counter() + statistics.median(nxt) > deadline:
                break
    for it in work.once:
        ok, out = run_item(it, None, {})
        ops.extend(check_item(it, not ok, out)[0])

    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed[:20]:
        print("FAIL %s: %.300s" % (name, detail), file=sys.stderr)
    ratio = len(failed) / len(ops)
    base = walls[False]
    values = {"wall_s": statistics.median(ref_walls),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops_failed_ratio": ratio}
    if traced:
        values["trace.overhead_s"] = \
            statistics.median(walls[True]) - statistics.median(base)
        for name in snapshots[0]:
            vals = [s.get(name, 0) for s in snapshots]
            # counts repeat in every pass; times vary, so take medians
            timed = name.endswith(("_s", ".s"))
            values[name] = statistics.median(vals) if timed else vals[0]
    print("passes %d untraced%s; wall_s median %.4f s, max %.4f s; %s"
          % (len(base), ", %d traced" % len(walls[True]) if traced else "",
             values["wall_s"], max(ref_walls),
             "p%.1f %.4f s (10 passes beyond)" % tail(ref_walls)
             if tail(ref_walls)
             else "no tail percentile: it needs more than 20 passes"))
    print("raw wall time: pass median %.4f s, max %.4f s; set-up median "
          "%.4f s" % (statistics.median(base), max(base),
                      statistics.median(raw_setups)))
    print("ops attempted %d, failed %d, ops_failed_ratio %.6f"
          % (len(ops), len(failed), ratio))

    spec = bench["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in spec:
        v = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("%-44s %.6g %s" % (m["name"], v, m["unit"]))
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed,
                                         args.trace))
    record = {"env": env, "metrics": metrics, "setup_s": setups,
              "raw_setup_s": raw_setups, "walls": ref_walls,
              "raw_walls": base, "traced_raw_walls": walls[True],
              "item_walls": item_walls[False],
              "failed_ops": failed, "attempted": len(ops)}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if traced:
        tracer.write_spans(stem.with_suffix(".spans.tsv"))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
