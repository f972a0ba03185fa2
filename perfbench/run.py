"""Benchmark of the moment_angle package: the betti, search and family workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py                     # every workload, one table
    python3 perfbench/run.py --workload betti --seed 3 --seconds 20 --trace 0

One run is one fresh single-threaded process and one closed-loop client: the
workload's operations run one after another, never overlapping.  A pass runs
every operation of the workload once; passes repeat until ``--seconds`` have
passed, each with the package's memo caches emptied and with its own inputs
drawn from the seed.  Every result is checked (see ``workloads.py``).

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced passes
over the same inputs and reports the per-layer metrics (see ``tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with provenance, goes to ``perfbench/out/``.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up (interpreter start, import, input generation) is timed in this many
# fresh child processes and reported as their median.
SETUP_REPEATS = 7

NPROC = len(os.sched_getaffinity(0))  # before ``main`` pins the run to one core


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import moment_angle from this checkout's src/, never from anywhere else."""
    if not (SRC / "moment_angle" / "__init__.py").is_file():
        fail(f"no moment_angle package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import moment_angle

    if Path(moment_angle.__file__).resolve().parent != SRC / "moment_angle":
        fail(f"imported moment_angle from {moment_angle.__file__}, not from {SRC}")
    return moment_angle


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


# -- provenance -------------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
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
    return None


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "moment_angle").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(package, seed):
    rational = getattr(package, "Rational", None)
    return {
        "python": platform.python_version(),
        "rational_backend": f"{rational.__module__}.{rational.__name__}" if rational else None,
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


# -- passes -------------------------------------------------------------------------------


class Pass:
    """Timings, digests and failures of one pass over a workload's operations.

    Latencies are normalized to the reference speed (see ``reference.py``);
    ``raw_wall`` is the unnormalized sum of the op latencies.
    """

    def __init__(self, latency, raw_wall, digests, failures):
        self.latency = latency  # op name -> normalized seconds
        self.wall = sum(latency.values())
        self.raw_wall = raw_wall
        self.digests = digests  # op name -> sha256 of the op's checked key
        self.failures = failures  # op name -> reason


def run_pass(workload, ops, tracer=None, pass_no=0):
    tracing.reset_caches()
    results, raw, latency, failures = {}, {}, {}, {}
    speed = reference.sample()
    for op in ops:
        if tracer is not None:
            tracer.begin_op(f"{pass_no}:{op.name}")
        with reference.Meter(speed) as meter:
            try:
                results[op.name] = op.call()
            except Exception as exc:  # a failed op is counted, and the run goes on
                failures[op.name] = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end_op()
        raw[op.name], latency[op.name], speed = meter.raw, meter.seconds, meter.after

    expected = workloads.CORPUS["digests"]
    digests = {}
    for op in ops:
        if op.name not in results:
            continue
        try:
            digests[op.name] = workloads.digest(op.key(results[op.name]))
        except (KeyError, TypeError, AttributeError) as exc:
            failures[op.name] = f"result lacks a checked field: {exc!r}"
            continue
        if digests[op.name] != expected.get(op.name):
            failures[op.name] = f"result digest {digests[op.name][:16]} is not the recorded one"
    try:
        broken = workloads.oracle_failures(workload, results)
    except (KeyError, TypeError, AttributeError):
        broken = list(results)  # some result lacks a field the oracles read
    for name in broken:
        failures.setdefault(name, "workload oracle failed")
    for name, reason in failures.items():
        print(f"perfbench: {workload}: {name} failed: {reason}", file=sys.stderr)
    return Pass(latency, sum(raw.values()), digests, failures)


def percentile_ms(per_op, q):
    """q-th percentile, over the ops, of each op's median latency across the passes."""
    medians = sorted(statistics.median(v) for v in per_op.values())
    if len(medians) == 1:
        return medians[0] * 1000
    return statistics.quantiles(medians, n=100, method="inclusive")[q - 1] * 1000


def measure_setup(workload, seed):
    """Normalized median, and raw samples, of fresh set-up processes."""
    normalized, raw = [], []
    before = reference.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - t0)
        after = reference.sample()
        normalized.append(reference.normalized(raw[-1], before, after))
        before = after
    return statistics.median(normalized), raw


def run_untraced(args):
    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        ops = workloads.make_pass(args.workload, args.seed, len(passes))
        passes.append(run_pass(args.workload, ops))
        if len(passes) == 1:
            # Caches are emptied between passes, so one pass shows their growth;
            # later passes would add only allocator fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_op = defaultdict(list)
    for p in passes:
        for name, seconds in p.latency.items():
            per_op[name].append(seconds)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": percentile_ms(per_op, 50),
        "op_p90_ms": percentile_ms(per_op, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "passes": [{"wall_s": p.wall, "raw_wall_s": p.raw_wall, "latency_s": p.latency,
                    "failures": p.failures} for p in passes],
        "raw_setup_samples_s": setup_samples,
    }
    return passes, metrics, detail


def run_traced(args):
    """Pairs of passes over the same inputs, untraced then traced."""
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    plain, traced, layers = [], [], []
    while not traced or time.perf_counter() < deadline:
        ops = workloads.make_pass(args.workload, args.seed, len(traced))
        plain.append(run_pass(args.workload, ops))
        tracer.reset_stats()
        tracer.install()
        try:
            traced.append(run_pass(args.workload, ops, tracer, len(traced)))
            layers.append(tracer.layer_metrics(traced[-1].wall / traced[-1].raw_wall))
        finally:
            tracer.uninstall()
        for name, value in traced[-1].digests.items():
            if plain[-1].digests.get(name) != value:
                traced[-1].failures[name] = "traced and untraced results differ"
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace_overhead_ratio"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
    )
    detail = {
        "untraced_wall_s": [p.wall for p in plain],
        "traced_wall_s": [p.wall for p in traced],
        "missing_targets": tracer.missing,
        "per_op": tracer.per_op,
    }
    return plain + traced, metrics, detail, tracer.spans


# -- reporting ----------------------------------------------------------------------------


def report(args, spec, package, passes, metrics, detail, spans=None):
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not args.trace:
        fail(f"end-to-end metrics missing from the run: {', '.join(missing)}")
    for name in missing:
        tracing.warn(f"per-layer metric {name} is missing")

    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(package, args.seed),
        "result": line,
        "all_metrics": metrics,
        **detail,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)

    print(f"# {args.workload}: seed {args.seed}, {len(passes)} passes, trace {args.trace}")
    if not args.trace:
        print(f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted} ops)")
    for m in declared:
        if m["name"] in metrics:
            print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


def run_all(args, spec):
    """Each workload in its own fresh process, one after another; prints one table."""
    rows, status = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print(f"\n{'workload':8} {'metric':44} {'value':>12} unit")
    for workload, line in rows:
        if not args.trace:
            ratio = line["failed"] / line["attempted"]
            print(f"{workload:8} {'fail_ratio':44} {ratio:12.4f} {line['failed']}/{line['attempted']}")
        for name, m in line["metrics"].items():
            print(f"{workload:8} {name:44} {m['value']:12.6g} {m['unit']}")
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="betti | search | family | all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # One core for the run and its set-up children, so that the reference
    # kernel samples the speed of the core the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    package = import_package()
    if args.workload != "all" and args.workload not in workloads.OP_LISTS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.OP_LISTS)}")
    if args.setup_only:
        workloads.make_pass(args.workload, args.seed, 0)
        return 0
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.trace:
        passes, metrics, detail, spans = run_traced(args)
        return report(args, spec, package, passes, metrics, detail, spans)
    passes, metrics, detail = run_untraced(args)
    return report(args, spec, package, passes, metrics, detail)


if __name__ == "__main__":
    sys.exit(main())
