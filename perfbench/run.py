"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dense-gb --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from its `src/`.
The workload's operations are run in whole rounds until --seconds have
passed (at least one round), then every output is checked.  With
--trace 0 the end-to-end metrics are printed; with --trace 1 the layers
are wrapped, the per-layer metrics are printed, and the spans are written
to perfbench/out/.  The last line of standard output is the result.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import Tracer, install, summarize, within

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("dense-gb", "lex", "structure")
SETUP_REPEATS = 5
# a module is imported once per process, so the import is timed in fresh
# interpreters, after this process has compiled the bytecode
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import wgb, wgb.engine, wgb.fglm, wgb.structure; print(time.perf_counter() - t)"
)

# per-layer metrics read off the outputs' run statistics, not off spans
COUNTED = [
    "engine.matrix.max_cols",
    "engine.matrix.max_rows",
    "engine.matrix.zero_reductions",
    "engine.basis_size",
    "engine.buchberger.pairs",
    "engine.buchberger.zero_reductions",
    "fglm.field_ops",
    "fglm.staircase_size",
]


class RunFailed:
    """An operation that raised instead of returning an output."""

    def __init__(self, exc):
        self.reason = f"raised {type(exc).__name__}: {exc}"


def layer_metrics(spans, counts):
    """Every per-layer metric of one round, from its spans and output counts."""
    by_name = summarize(spans)

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    m = dict.fromkeys(COUNTED, 0)
    m.update(counts)
    for name in [
        "engine.matrix",
        "engine.prefix_dims",
        "structure.semiregular",
        "engine.buchberger",
    ]:
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ["series.census", "monomial.enumerate", "series.expand", "poly.reduce"]:
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.calls"] = get(name, "calls")
    m["structure.sequences"] = get("structure.semiregular", "calls")
    m["structure.regular.s"] = get("structure.regular", "s")
    m["engine.interreduce.s"] = within(spans, "engine.interreduce", "engine.matrix")[0]
    m["engine.interreduce.reduce_calls"] = within(
        spans, "poly.reduce", "engine.interreduce", "engine.matrix"
    )[1]
    m["engine.buchberger.reduce_s"], m["engine.buchberger.reduce_calls"] = within(
        spans, "poly.reduce", "engine.buchberger"
    )
    m["fglm.staircase.s"] = get("fglm.staircase", "s")
    m["fglm.mult_matrices.s"] = get("fglm.mult_matrices", "s")
    m["fglm.normal_forms"] = within(spans, "poly.reduce", "fglm.mult_matrices")[1]
    m["fglm.walk.self_s"] = get("fglm.lex", "self_s")
    return m, by_name


def import_seconds():
    """Median time to import the program, over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def add_counts(total, counts):
    for k, v in counts.items():
        total[k] = max(total.get(k, 0), v) if ".max_" in k else total.get(k, 0) + v


def run_rounds(workload, ops, seconds, tracer):
    """Whole rounds of every operation until `seconds` have passed."""
    rounds = []
    start = perf_counter()
    while True:
        outputs = []
        t0 = perf_counter()
        for op in ops:
            with tracer.span("op", op.label) if tracer else nullcontext():
                try:
                    outputs.append(workload.run(op))
                except Exception as exc:  # counted as a failed operation
                    traceback.print_exc(file=sys.stderr)
                    outputs.append(RunFailed(exc))
        batch_s = perf_counter() - t0
        rounds.append({"batch_s": batch_s, "outputs": outputs,
                       "spans": tracer.take() if tracer else None})
        if perf_counter() - start >= seconds:
            return rounds


def check_rounds(workload, ops, rounds):
    """(attempted, failed, unexpected failures) over every output.

    An output equal to one already checked for the same operation has that
    one's verdict."""
    verdicts = [{} for _ in ops]
    attempted = failed = 0
    unexpected = []
    for r in rounds:
        for i, (op, out) in enumerate(zip(ops, r["outputs"])):
            attempted += 1
            if isinstance(out, RunFailed):
                reason = out.reason
            else:
                key = workload.fingerprint(out)
                if key not in verdicts[i]:
                    try:
                        verdicts[i][key] = workload.check(op, out)
                    except Exception as exc:  # a malformed output fails its operation
                        verdicts[i][key] = f"check raised {type(exc).__name__}: {exc}"
                reason = verdicts[i][key]
            if reason is None:
                continue
            failed += 1
            if op.fault:
                print(f"perfbench: {op.label} failed ({op.fault}): {reason}", file=sys.stderr)
            else:
                unexpected.append(f"{op.label}: {reason}")
    return attempted, failed, unexpected


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wgb" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/wgb", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wgb

    if Path(wgb.__file__).resolve().parent != SRC / "wgb":
        print(f"perfbench: imported wgb from {wgb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.make(args.workload, ROOT)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        ops = workload.setup(args.seed)
        setup_times.append(perf_counter() - t)
    setup_s = import_seconds() + statistics.median(setup_times)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    try:
        rounds = run_rounds(workload, ops, args.seconds, tracer)
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, unexpected = check_rounds(workload, ops, rounds)
    for line in unexpected:
        print(f"perfbench: CHECK FAILED {line}", file=sys.stderr)

    if args.trace:
        per_round = []
        for r in rounds:
            counts = {}
            for out in r["outputs"]:
                if not isinstance(out, RunFailed):
                    add_counts(counts, workload.counts(out))
            m, by_name = layer_metrics(r["spans"], counts)
            per_round.append({"batch_s": r["batch_s"], "metrics": m, "spans_by_name": by_name})
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            per_layer = json.load(fh)["per_layer"]
        metrics = {
            spec["name"]: {
                "value": statistics.median(rnd["metrics"][spec["name"]] for rnd in per_round),
                "unit": spec["unit"],
            }
            for spec in per_layer
        }
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "setup_s": setup_s,
                "per_layer": {name: v["value"] for name, v in metrics.items()},
                "rounds": per_round,
                "spans": [r["spans"] for r in rounds],
            }, fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "batch_s": {"value": statistics.median(r["batch_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
