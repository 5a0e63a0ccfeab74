"""Run one zxtk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain_extract --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout: zxtk is imported from ``src/``.
One client in one process calls zxtk's public functions in a closed
loop, checks every result, and prints a table, a ``perfbench-record``
line (machine, interpreter, commit, seed, failures) and, last, one JSON
object with the metrics that ``BENCHMARK.json`` names.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same ops with
the layer hooks of ``layers.py`` installed and reports the per-layer
metrics, with the tracing overhead measured against an untraced twin
run in a child process.  Results and spans are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import Tracer, source_layer  # noqa: E402

RECORD_TAG = "perfbench-record"


def _parse_args(argv):
    p = argparse.ArgumentParser(description="Run one zxtk benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int, help="sets the op count, about this long at the baseline")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _child_argv(args, trace: int) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    return argv + (["--toy"] if args.toy else [])


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of a percentile.

    It weights every order statistic by a beta distribution centred on
    the percentile, so with a few dozen samples it moves less from run
    to run than one or two order statistics do.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (pct / 100.0) * (n + 1), (1.0 - pct / 100.0) * (n + 1)
    # the beta(a, b) CDF at i/n, by cumulative trapezoids on a fine grid
    grid = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])
    return float(np.dot(np.diff(edges), x))


def summarize(latencies: list[float], plan: workloads.Plan, tail_pct: float) -> dict[str, float]:
    """Throughput, p50 and tail latency of a run, robust to bursts of load from other tenants.

    When every repetition runs the whole mix, each op of the mix is timed
    by its fastest run, as ``timeit`` reports: the op's work is the same
    every time, and interference from other tenants of the machine only
    ever adds to it.  The metrics are read from those times: throughput
    is the mix's op count over their sum.  A burst then moves a metric
    only if it slows every run of an op, and the slower first run of an
    op counts as warm-up.  Costs that come now and then, such as a full
    garbage collection, are left out; the traced run's layer times
    include every run.

    When the repetitions are blocks of distinct ops, each metric is read
    per block and the median over blocks is reported.
    """
    if plan.repeated:
        runs: list[list[float]] = [[] for _ in plan.mix]
        for i, seconds in zip(plan.order, latencies):
            runs[i].append(seconds)
        per_op = [min(r) for r in runs]
        return {
            "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": 1000.0 * percentile(per_op, 50.0),
            "op_p90_ms": 1000.0 * percentile(per_op, tail_pct),
        }
    rates, p50s, tails, start = [], [], [], 0
    for rep in plan.reps:
        block = latencies[start : start + len(rep)]
        start += len(rep)
        rates.append(len(block) / sum(block))
        p50s.append(percentile(block, 50.0))
        tails.append(percentile(block, tail_pct))
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1000.0 * statistics.median(p50s),
        "op_p90_ms": 1000.0 * statistics.median(tails),
    }


def tail_percentile(n: int) -> float:
    """p90, or the highest percentile with ten of the run's n samples beyond it, never below p50.

    The level comes from the whole run's op count; ``summarize`` then
    estimates it over the mix or per block.
    """
    return max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / n)))


def run_ops(ops, tracer: Tracer | None = None):
    """Run every op in order; returns per-op seconds and (index, class, detail) failures.

    Only the call into zxtk is timed; the check runs after the clock
    stops and with tracing off.  The clock is the process's CPU time:
    zxtk's ops here run on one thread and wait for no I/O, so on an idle
    machine it reads as wall time, and on a shared host it leaves out
    the time in which the OS or the hypervisor ran something else (Linux
    with paravirtual steal-time accounting keeps steal time out of task
    time).
    """
    latencies: list[float] = []
    failures: list[tuple[int, str, str]] = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = process_time()
        try:
            result, error = op.run(), None
        except Exception as err:  # an op that raises is counted as failed; the run goes on
            result, error = None, f"{op.label}: {type(err).__name__}: {err}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(process_time() - t0)
        if tracer is not None:
            tracer.end_op()
        verdict = ("raised", error) if error else op.check(result)
        if verdict is not None:
            failures.append((i, *verdict))
        del result  # else it stays alive through the next op and adds to its peak memory
    return latencies, failures


def _setup_seconds(args, own: float) -> list[float]:
    """This process's set-up time and that of four fresh probe processes."""
    samples = [own]
    for _ in range(4):
        out = subprocess.run(_child_argv(args, 0) + ["--setup-probe"], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _untraced_op_seconds(args) -> float:
    """Summed op seconds of the same run without hooks, in a child process."""
    out = subprocess.run(_child_argv(args, 0), cwd=ROOT, capture_output=True,
                         text=True, timeout=170, check=True)
    for line in out.stdout.splitlines():
        if line.startswith(RECORD_TAG + " "):
            return json.loads(line[len(RECORD_TAG) + 1:])["op_s"]
    raise RuntimeError("the untraced twin run printed no record")


def _machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown: git failed"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "zxtk" / "__init__.py").is_file():
        print(f"perfbench: no zxtk sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sizes = workloads.TOY if args.toy else workloads.FULL

    t0 = process_time()
    plan = workloads.plan_ops(args.workload, args.seed, args.seconds, sizes)
    mix_ops = workloads.build_ops(args.workload, plan.mix, sizes)
    ops = [mix_ops[i] for i in plan.order]
    own_setup = process_time() - t0
    n = len(ops)
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    if args.trace:
        untraced = _untraced_op_seconds(args)
        tracer = Tracer()
        tracer.install()
        try:
            latencies, failures = run_ops(ops, tracer)
        finally:
            tracer.uninstall()
        measured = tracer.layer_metrics()
        measured["trace.overhead_ratio"] = sum(latencies) / untraced
        wanted = bench["per_layer"]
    else:
        setup_samples = _setup_seconds(args, own_setup)
        phase_start = perf_counter()
        latencies, failures = run_ops(ops)
        phase_wall = perf_counter() - phase_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = {
            "setup_s": statistics.median(setup_samples),
            **summarize(latencies, plan, tail_percentile(n)),
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": (n - len(failures)) / n,
        }
        wanted = bench["end_to_end"]

    baseline_layers = set(design["baseline_layers"].get(args.workload, ()))
    metrics = {}
    for spec in wanted:
        entry = {"value": measured[spec["name"]], "unit": spec["unit"]}
        layer = source_layer(spec["name"]) if args.trace else None
        if layer in baseline_layers and measured.get(f"{layer}_calls") == 0:
            entry["status"] = "not reached"
        metrics[spec["name"]] = entry

    classes = Counter(cls for _, cls, _ in failures)
    known = design["known_failures"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": design["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        **_machine(),
        "latency_samples": n,
        "op_s": sum(latencies),
        "tail_percentile": tail_percentile(n),
        "fail_ratio": len(failures) / n,
        "failures_by_class": dict(classes),
        "failures": [f"op {i} [{cls}] {detail}" for i, cls, detail in failures[:20]],
    }
    per_op = [[op.label, i, seconds] for op, i, seconds in zip(ops, plan.order, latencies)]
    if args.trace:
        record["layers_reached"] = sorted(
            key[: -len("_calls")] for key, value in measured.items() if key.endswith("_calls") and value
        )
    else:
        record["setup_samples_s"] = setup_samples
        record["phase_wall_s"] = phase_wall
    result = {
        "correct": all(cls in known for cls in classes),
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"result": result, "record": record, "op_seconds": per_op}) + "\n")
    if args.trace:
        tracer.write_spans(out_dir / f"{stem}-spans.tsv")

    for name, entry in metrics.items():
        shown = entry.get("status") or f"{entry['value']:.6g}"
        print(f"{args.workload:14s} {name:28s} {shown:>14s} {entry['unit']}")
    for line in record["failures"]:
        print(f"{args.workload:14s} failed {line}")
    print(RECORD_TAG, json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
