"""End-to-end benchmark of sparsecert: certificates, experiment trials and the CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs from the root of a source checkout and imports the package from
``src/``. Each workload is a closed loop with one client: the next operation
starts when the previous one returns. Every output is checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.
``--smoke`` runs every workload for a few operations in both modes and checks
the output schema and the correctness gates.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("certify_k2", "certify_k3", "trial", "cli")
SETUP_CHILDREN = 2
IMPORT_SAMPLES = 3
# The calibration task; REFERENCE_CAL_MS is its time at the reference speed,
# about that of an idle 2 GHz core. End-to-end times are scaled to that speed.
CALIBRATION_LOOP = 20_000
CALIBRATION_SVDS = 10
REFERENCE_CAL_MS = 7.0
TAIL_BEYOND = 10


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import the checkout's own package from src/, never an installed copy."""
    if not (SRC / "sparsecert" / "__init__.py").is_file():
        fail(f"no sparsecert package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import sparsecert

    if Path(sparsecert.__file__).resolve().parent != SRC / "sparsecert":
        fail(f"imported sparsecert from {sparsecert.__file__}, not from {SRC}")
    import workloads

    return workloads


def tail(values):
    """Highest percentile with at least ten samples beyond it, else the median.

    Nearest rank: the p-th percentile of n sorted values is the
    ceil(p n / 100)-th. Returns (percentile, value, samples beyond it).
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return 50, statistics.median(ordered), n // 2


def environment():
    import numpy
    import scipy
    import sparsecert

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "kernel_backend": sparsecert.kernel_backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def setup_seconds(workloads, name, seed, own):
    """Median set-up time at reference speed: this process and fresh children.

    ``own`` is this process's wall seconds; a calibration follows it and
    each child, and a child is scaled by the mean of the two around it.
    """
    walls, calibrations = [own], [calibration_ms(calibration_repeats(own * 1e3))]
    for index in range(SETUP_CHILDREN):
        out = workloads.OUT / f"setup-{name}-{index}.txt"
        status, _, _ = workloads.run_child(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"], out)
        if status != 0:
            raise RuntimeError(f"set-up child for {name} exited with {status}")
        walls.append(float(out.read_text()))
        calibrations.append(calibration_ms(calibration_repeats(walls[-1] * 1e3)))
    around = [calibrations[0]] + [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]
    scaled = [wall * REFERENCE_CAL_MS / cal for wall, cal in zip(walls, around)]
    return statistics.median(scaled), walls


def attempt(workload, i, tracer, errors):
    """One checked operation; its timed parts, or None when it failed."""
    try:
        parts, ok = workload.run(i, tracer)
    except Exception:  # a failed operation is counted, not fatal
        errors.append(f"operation {i}:\n{traceback.format_exc()}")
        return None
    if not ok:
        errors.append(f"operation {i}: output failed its check")
        return None
    return parts


def calibration_ms(repeats):
    """Median milliseconds of ``repeats`` runs of a fixed reference task.

    The task, an interpreter loop and small SVDs, never changes and calls
    nothing in sparsecert, so its time tracks only how fast this machine
    runs at the moment.
    """
    import numpy

    mats = numpy.random.default_rng(0).standard_normal((200, 6, 3))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0.0
        for i in range(CALIBRATION_LOOP):
            total += i * 0.5
        for _ in range(CALIBRATION_SVDS):
            numpy.linalg.svd(mats, compute_uv=False)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def calibration_repeats(last_ms):
    """Calibrate for about a tenth of the last operation's time, 3 to 15 repeats.

    Speed drifts within a long operation, so a longer calibration estimates
    it better; a short operation keeps the cost low.
    """
    return max(3, min(15, int(0.1 * last_ms / REFERENCE_CAL_MS)))


def run_loop(workload, seconds, tracer, errors):
    """Closed loop until ``seconds`` pass, ending on a whole pool cycle.

    A calibration runs before every operation and after the last; each
    operation is scaled by the mean of the two around it. At least one cycle
    runs; with a tracer, cycles alternate untraced and traced and at least
    one of each runs. Returns (samples of the passing operations, attempted),
    a sample being {"parts", "traced", "op", "cal_ms"}.
    """
    import tracing

    samples, calibrations = [], []
    last_ms = 0.0
    min_cycles = 1 if tracer is None else 2
    start = time.perf_counter()
    i = 0
    while True:
        cycle = i // workload.cycle
        if (i % workload.cycle == 0 and cycle >= min_cycles
                and time.perf_counter() - start >= seconds):
            break
        calibrations.append(calibration_ms(calibration_repeats(last_ms)))
        traced = tracer is not None and cycle % 2 == 1
        if not traced:
            parts = attempt(workload, i, None, errors)
        elif workload.in_process:
            tracer.op = i
            with tracing.installed(tracer), tracer.span("op"):
                parts = attempt(workload, i, tracer, errors)
        else:
            tracer.op = i
            parts = attempt(workload, i, tracer, errors)
        if parts is not None:
            samples.append({"parts": parts, "traced": traced, "op": i})
            last_ms = sum(parts.values())
        i += 1
    calibrations.append(calibration_ms(calibration_repeats(last_ms)))
    for sample in samples:
        op = sample["op"]
        sample["cal_ms"] = (calibrations[op] + calibrations[op + 1]) / 2
    return samples, i


def latency_summary(values):
    pct, value, beyond = tail(values)
    return {"p50": statistics.median(values), "tail": value, "tail_pct": pct,
            "n": len(values), "beyond": beyond}


def metric(value, unit):
    return {"value": value, "unit": unit}


def rounds(samples, size):
    """Wall and reference ms of each round of ``size`` operations that all passed."""
    members = defaultdict(list)
    for sample in samples:
        members[sample["op"] // size].append(sample)
    result = []
    for group in members.values():
        if len(group) == size:
            walls = [sum(s["parts"].values()) for s in group]
            result.append({
                "traced": group[0]["traced"],
                "wall": sum(walls),
                "reference": sum(w * REFERENCE_CAL_MS / s["cal_ms"]
                                 for w, s in zip(walls, group)),
            })
    return result


def end_to_end(workload, samples, setup_s):
    done = rounds(samples, workload.round)
    reference = latency_summary([r["reference"] for r in done])
    wall = [r["wall"] for r in done]
    if workload.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = workload.peak_rss_mb
    metrics = {
        "op_ms_p50": metric(reference["p50"], "ms"),
        "op_ms_tail": metric(reference["tail"], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    parts = defaultdict(list)
    for sample in samples:
        for key, value in sample["parts"].items():
            parts[key].append(value)
    detail = {"wall_op_ms": latency_summary(wall), "reference_op_ms": reference,
              "parts": {key: latency_summary(values) for key, values in parts.items()},
              "ops_per_s": len(wall) / (sum(wall) / 1e3),
              "calibration_ms_p50": statistics.median(s["cal_ms"] for s in samples)}
    return metrics, detail


def per_layer(workloads, workload, tracer, samples, spec):
    """Per traced operation: calls, self ms and counts of every traced layer."""
    done = rounds(samples, workload.round)
    traced = [r["reference"] for r in done if r["traced"]]
    plain = [r["reference"] for r in done if not r["traced"]]
    speed = statistics.median(s["cal_ms"] for s in samples) / REFERENCE_CAL_MS
    n_ops = max(len(traced), 1)
    calls, self_s = tracer.totals()
    kernel_self = self_s.get("kernels.edge_min_singular_values", 0.0)
    submatrices = tracer.counts.get("kernels.edge_min_singular_values.submatrices", 0)
    special = {
        "kernels.us_per_submatrix": kernel_self * 1e6 / submatrices if submatrices else 0.0,
        "serialize.self_ms": 1e3 * sum(v for k, v in self_s.items()
                                       if k.startswith("serialize.")) / n_ops,
        "cli.import_ms": statistics.median(
            workloads.import_ms() for _ in range(IMPORT_SAMPLES)),
        # reference medians, converted back to wall ms at the run's median speed
        "trace.overhead_ms": ((statistics.median(traced) - statistics.median(plain))
                              * speed if traced and plain else 0.0),
    }
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0) / n_ops
        elif name.endswith(".self_ms"):
            value = 1e3 * self_s.get(name[:-len(".self_ms")], 0.0) / n_ops
        else:
            value = tracer.counts.get(name, 0) / n_ops
        metrics[name] = metric(value, entry["unit"])
    return metrics, {"traced_ops": len(traced), "untraced_ops": len(plain)}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The calibration then runs on the same CPU as every operation, including
    the CLI children, and no operation migrates between CPUs that a shared
    host slows down by different amounts.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def bench(args):
    cpu = pin_to_one_cpu()
    workloads = load_package()
    import tracing

    workload = workloads.make(args.workload, args.seed)
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(own_setup)
        return 0
    setup_s, setup_walls = setup_seconds(workloads, args.workload, args.seed,
                                           own_setup)
    errors = []
    warmed = 0
    if workload.in_process:  # lazy set-up and caches: checked, not timed
        warmed = 1 if attempt(workload, 0, None, errors) is not None else 0
    tracer = tracing.Tracer() if args.trace else None
    samples, attempted = run_loop(workload, args.seconds, tracer, errors)
    attempted += int(workload.in_process)
    failed = attempted - len(samples) - warmed
    spec = benchmark_spec()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": dict(environment(), pinned_cpu=cpu),
              "setup_wall_s": setup_walls,
              "errors": errors[:5]}
    if not samples:
        metrics = {}
    elif args.trace:
        metrics, extra = per_layer(workloads, workload, tracer, samples,
                                   spec["per_layer"])
        detail.update(extra)
        spans_path = workloads.OUT / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(workload, samples, setup_s)
        detail.update(extra)
    detail["failed_frac"] = failed / attempted
    (workloads.OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, metrics=metrics), indent=1))
    print_summary(detail, metrics)
    print(json.dumps({"correct": failed == 0 and bool(samples),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_summary(detail, metrics):
    print(f"# environment {json.dumps(detail['environment'], sort_keys=True)}")
    print(f"# workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}"
          f" failed_frac {detail['failed_frac']:.6g}")
    for name, part in detail.get("parts", {}).items():
        print(f"# {name}_ms_p50 {part['p50']:.4f} ms; {name}_ms_tail {part['tail']:.4f} ms"
              f" (p{part['tail_pct']} of {part['n']} samples, {part['beyond']} beyond)")
    if "reference_op_ms" in detail:
        ref, wall = detail["reference_op_ms"], detail["wall_op_ms"]
        print(f"# op_ms_tail is p{ref['tail_pct']} of {ref['n']} samples"
              f" ({ref['beyond']} beyond); wall op_ms_p50 {wall['p50']:.4f} ms,"
              f" tail {wall['tail']:.4f} ms; calibration p50"
              f" {detail['calibration_ms_p50']:.4f} ms (reference {REFERENCE_CAL_MS} ms);"
              f" {detail['ops_per_s']:.6g} operations per second")
    for name, entry in metrics.items():
        print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    for error in detail["errors"]:
        print(error, file=sys.stderr)


def smoke():
    """Every workload for a few operations in both modes; schema and gates."""
    seed = load_package().DEFAULT_SEED
    spec = benchmark_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{name} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: correctness gate failed: {proc.stderr[-500:]}")
            print(f"# smoke {label}: attempted {result['attempted']}"
                  f" failed {result['failed']}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print the set-up seconds, exit")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
