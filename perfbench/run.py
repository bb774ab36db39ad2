"""Cold-cache CLI benchmark for zetatheta.

    python3 perfbench/run.py --workload theta-cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  One closed-loop client runs ops one at a time
for --seconds seconds (whole rounds, see workloads.py); each op is one
`zetatheta` CLI invocation through `zetatheta.cli.main(argv)` in a child
forked from this process, which has only imported the package.  Every op's
output is verified (verify.py).  --trace 0 prints the end-to-end metrics,
--trace 1 runs every op untraced and then traced and prints the per-layer
metrics.  The last stdout line is one JSON object; the metric names, units
and directions are those of BENCHMARK.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import executor  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
OUT_DIR = os.path.join(HERE, "out")
# The failure share is printed but not in the JSON line, whose values must be
# nonzero: on the timed workloads it is 0 whenever the run is correct.
PRINT_ONLY_UNITS = {"ops_failed_frac": "1"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import zetatheta
import zetatheta.cli
from zetatheta import fields
for name in ("Q", "sqrt5", "gauss", "cubic7", "zeta5"):
    fields.builtin_field(name)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package(root):
    """Import zetatheta from <root>/src, the checkout being measured."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zetatheta", "__init__.py")):
        raise SystemExit(f"perfbench: no zetatheta package under {src}; "
                         "run from the repository root")
    sys.path.insert(0, src)
    import zetatheta
    import zetatheta.cli  # noqa: F401  (what a CLI process imports)
    if not os.path.abspath(zetatheta.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"perfbench: imported zetatheta from {zetatheta.__file__}, not {src}")
    return src


def setup_sample(src):
    """Wall time of one fresh interpreter that imports zetatheta and builds
    the five builtin fields (interpreter start-up included)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, src], check=True)
    return time.perf_counter() - t0


def environment():
    import numpy
    import scipy
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    env.update({var: os.environ.get(var, "") for var in THREAD_VARS})
    return env


def load_references():
    return {field: verify.load_reference(field) for field in workloads.FIELDS}


def run_loop(workload, seed, seconds, run_one, between=None):
    """Run whole rounds until `seconds` of op time have passed; returns the op
    time.  `between`, if given, is called SETUP_SAMPLES times spread evenly
    over the first round, and its time is not op time."""
    busy, first = 0.0, True
    for ops in workloads.rounds(workload, seed):
        every = math.ceil(len(ops) / SETUP_SAMPLES)
        for i, op in enumerate(ops):
            if first and between is not None and i % every == 0:
                between()
            t0 = time.perf_counter()
            run_one(op)
            busy += time.perf_counter() - t0
        first = False
        if busy >= seconds:
            return busy


class Record:
    __slots__ = ("op", "verdict", "latency", "rss", "cpu")

    def __init__(self, op, verdict, latency, rss, cpu):
        self.op, self.verdict, self.latency, self.rss, self.cpu = op, verdict, latency, rss, cpu

    def as_json(self):
        return {"argv": list(self.op.argv), "ok": self.verdict.ok, "reason": self.verdict.reason,
                "margin": self.verdict.margin, "latency_s": self.latency, "cpu_s": self.cpu,
                "peak_rss_mib": self.rss}


def checked_op(op, references, trace_functions=None):
    if op.kind == "zeros-scan" and op.window[1] > references[op.field][0]:
        raise SystemExit(f"perfbench: reference ordinates for {op.field} stop below {op.window}")
    result, latency, rss, cpu = executor.run_op(op.argv, trace_functions)
    return result, Record(op, verify.verify(op, result, references), latency, rss, cpu)


def end_to_end(records, wall, setup_s):
    """Every end-to-end value by name, with a note on how it was taken."""
    ok = [r for r in records if r.verdict.ok]
    n, n_ok = len(records), len(ok)
    p50, tail_p, tail, _ = stats.latency_summary(
        [r.latency if r.verdict.ok else math.inf for r in records])
    margins = [r.verdict.margin for r in ok]
    values = {
        "setup_s": (setup_s, f"median of {SETUP_SAMPLES} fresh interpreters, "
                             "spread over the op list"),
        "goodput_ops_per_s": (n_ok / wall, f"{n_ok} verified ops in {wall:.2f} s of op time"),
        "op_p50_s": (p50, f"all {n} ops, failures as +inf"),
        "op_tail_s": (tail, f"p{tail_p} of all {n} ops, "
                            f"{stats.samples_beyond(n, tail_p)} beyond, failures as +inf"),
        "ops_failed_frac": (1.0 - n_ok / n, f"{n - n_ok} of {n}"),
        "peak_rss_mb": (max(r.rss for r in records), "max over ops of the child's ru_maxrss"),
        "tol_margin_digits_min": (min(margins) if margins else 0.0,
                                  "min over passing ops of log10(tol/residual)"),
    }
    return values


def write_jsonl(path, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def print_failures(records):
    for i, r in enumerate(records):
        if not r.verdict.ok:
            print(f"FAILED op {i}: {r.verdict.reason} :: {r.op.command()}")


def measure_untraced(args, spec, src, references, records):
    """The end-to-end pass; returns the JSON metrics."""
    samples = []

    def run_one(op):
        records.append(checked_op(op, references)[1])

    wall = run_loop(args.workload, args.seed, args.seconds, run_one,
                    lambda: samples.append(setup_sample(src)))
    setup_s = statistics.median(samples)
    print(f"# setup samples {', '.join(f'{s:.4f}' for s in samples)}")
    write_jsonl(os.path.join(OUT_DIR, f"ops-{args.workload}.jsonl"),
                (r.as_json() for r in records))
    print_failures(records)
    values = end_to_end(records, wall, setup_s)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(PRINT_ONLY_UNITS)
    for name, (value, note) in values.items():
        print(f"metric {name:<24} {value:<14.6g} {units[name]:<6} {note}")
    return {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def measure_traced(args, spec, references, records):
    """The per-layer pass: each op untraced, then traced; returns the JSON metrics."""
    functions = sorted(tracing.traced_functions(m["name"] for m in spec["per_layer"]))
    totals = tracing.LayerTotals()
    missing = set()
    spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(spans_path, "w") as spans_out:
        def run_one(op):
            untraced = checked_op(op, references)[1]
            result, record = checked_op(op, references, functions)
            payload = result.get("trace", {"spans": [], "counts": {}})
            missing.update(result.get("missing", ()))
            totals.add_op(payload, untraced.latency, record.latency)
            records.append(record)
            spans_out.write(json.dumps({"op": len(records) - 1, "argv": list(op.argv),
                                        **payload}) + "\n")

        run_loop(args.workload, args.seed, args.seconds, run_one)
    print_failures(records)
    metrics, absent = {}, []
    for m in spec["per_layer"]:
        value = totals.metric(m["name"])
        if value is None:
            absent.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']:<44} {value:<14.6g} {m['unit']}")
    print(f"# spans written to {os.path.relpath(spans_path)}")
    if missing:
        print(f"# not found in the package: {', '.join(sorted(missing))}")
    if absent:
        print(f"# not collected on this workload (reported as 0): {', '.join(absent)}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    src = import_package(os.getcwd())
    references = load_references()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    records = []
    if args.trace:
        metrics = measure_traced(args, spec, references, records)
    else:
        metrics = measure_untraced(args, spec, src, references, records)
    failed = sum(1 for r in records if not r.verdict.ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
