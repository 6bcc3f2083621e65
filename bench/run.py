"""The varqfi benchmark: seeded workloads timed end to end and traced per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; the program is imported
from the checkout's src/.  A workload is measured by one worker in a
fresh interpreter (bench/worker.py) that imports varqfi.cli, builds the
workload's item table from the seed and makes one warm-up call outside
the table, then runs passes over the items for --seconds: each pass is a
closed loop with one client, each item starting when the previous one
returns, in one process with no threads and BLAS pinned to one thread.
Reference checks and the known-defect probes run after the timed passes.
Set-up is timed in that worker and in SETUP_SAMPLES - 1 more fresh
interpreters that stop once set up, and reported as the median.

Every pass runs the same item table, so each item gets its own latency:
the fastest of its passes.  On a shared machine, other tenants slow the
CPU down in bursts of seconds and in phases of minutes, by up to 1.5x.  A
best-of-passes latency drops an item's slowed passes, but not a phase
that covers the whole run, so the worker also times a fixed calibration
kernel between items (bench/calibration.py).  solve_cal and item_cal.p50
and .p90 measure each item in units of the median kernel time around it
(cal), before taking the fastest pass: the sum over items and the
percentiles over items.  A change to the program moves them as it moves
wall time; a change in machine speed slows the kernel alike and largely
cancels out.  The same figures in wall-clock seconds (solve_s,
item_ms.p50 and .p90) and the kernel's median time (cal_ms) are printed
beside them.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, the tracing overhead
and a self-test of the tracer's counts.  The metric names and units are
the ones BENCHMARK.json lists.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when every check passes, 1 when a check fails and 2 when
the program cannot be run.  Each run appends a record to
.bench_out/runs.jsonl, which keeps the order runs were made in; traced
runs also write their spans to .bench_out/spans/.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("fig3-lorentzian", "waveform-powerlaw", "oracle", "crosscheck")
SETUP_SAMPLES = 5
# how long a worker may run past its measuring time: checks, probes, self-test
WORKER_SLACK_S = 60.0
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# digits_min treats a relative error at or below one ulp of 1.0 as exact
ROUNDOFF = 2.0**-52


class BenchError(Exception):
    """The program could not be run, or a worker broke down."""


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _caches():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            sizes["L" + level] = _read(index / "size")
    return sizes


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment():
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": 1,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _worker(workload, seed, mode, seconds=0.0, spans_file=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, str(seconds)]
    if spans_file is not None:
        cmd.append(str(spans_file))
    timeout = seconds + WORKER_SLACK_S
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past {timeout:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    expected = (ROOT / "src" / "varqfi" / "cli.py").resolve()
    if Path(result["varqfi_file"]).resolve() != expected:
        raise BenchError(f"imported varqfi from {result['varqfi_file']}, not {expected}")
    # perf_counter is CLOCK_MONOTONIC, shared by the two processes
    result["setup_s"] = result["setup_done"] - t_spawn
    return result


def _item_latencies(passes, key="item_s"):
    """Each item's fastest latency over the passes, in seconds or (item_cal) cal."""
    return [min(times) for times in zip(*(p[key] for p in passes))]


def run_workload(workload, seed, seconds, trace):
    """Set-ups and timed passes of one workload.

    Returns (report lines, check failures, attempted, failed, metrics),
    where metrics maps each name to (value, unit).
    """
    spans_file = OUT / "spans" / f"{workload}-seed{seed}.npz"
    if trace:
        spans_file.parent.mkdir(parents=True, exist_ok=True)
    starts = [_worker(workload, seed, "setup") for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(workload, seed, "trace" if trace else "run", seconds,
                  spans_file if trace else None)
    starts.append(run)
    setups = [s["setup_s"] for s in starts]
    plain, traced = run["plain"], run["traced"]

    failures = list(run["check_failures"])
    item_s = _item_latencies(plain)
    item_cal = _item_latencies(plain, "item_cal")
    attempted = sum(len(p["item_s"]) for p in plain)
    failed = sum(len(p["errors"]) for p in plain)
    rel_err_max = run["rel_err_max"]
    cuts = statistics.quantiles(item_s, n=100, method="inclusive")
    cal_cuts = statistics.quantiles(item_cal, n=100, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_cal": (math.fsum(item_cal), "cal"),
        "item_cal.p50": (cal_cuts[49], "cal"),
        "item_cal.p90": (cal_cuts[89], "cal"),
        "solve_s": (math.fsum(item_s), "s"),
        "item_ms.p50": (1e3 * cuts[49], "ms"),
        "item_ms.p90": (1e3 * cuts[89], "ms"),
        "cal_ms": (1e3 * statistics.median(p["cal_s"] for p in plain), "ms"),
        "failed_share": (failed / attempted, "1"),
        "rel_err_max": (rel_err_max, "1"),
        "digits_min": (-math.log10(max(rel_err_max, ROUNDOFF)), "digits"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    lines = [
        f"{workload}: {len(plain)} timed passes of {len(item_s)} items, "
        f"{len(setups)} set-ups, {len(traced)} traced passes; pass times "
        f"{', '.join('%.3f s' % math.fsum(p['item_s']) for p in plain)}"
    ]
    lines += [f"probe {name}: {outcome}: {detail}" for name, outcome, detail in run["probes"]]
    lines += [f"item error: {e}" for e in sorted({e for p in plain for e in p["errors"]})[:10]]

    if trace:
        for key, (got, want) in run["selftest"].items():
            lines.append(f"tracer self-test {key}: {got} (want {want})")
            if got != want:
                failures.append(f"tracer self-test {key} = {got}, want {want}")
        metrics = {}
        for key in run["layers"][0]:
            metrics[key] = (statistics.median(layer[key] for layer in run["layers"]), "")
        for key in ("cli.import_s", "cli.scipy_loaded"):
            metrics[key] = (statistics.median(s[key] for s in starts), "")
        traced_cal = _item_latencies(traced, "item_cal")
        metrics["trace.overhead_share"] = (math.fsum(traced_cal) / math.fsum(item_cal) - 1.0, "1")
    lines += [f"CHECK FAILED: {f}" for f in failures[:10]]
    return lines, failures, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload "
                        "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "varqfi" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"needs src/varqfi/ and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    OUT.mkdir(exist_ok=True)
    log = OUT / "runs.jsonl"
    run_no = 1 + (len(log.read_text().splitlines()) if log.exists() else 0)
    env = environment()
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    print(f"varqfi benchmark run #{run_no} at {started}: workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))

    correct = True
    attempted = failed = 0
    reported = {}
    for name in names:
        try:
            lines, failures, n_items, n_failed, metrics = run_workload(
                name, args.seed, args.seconds, args.trace
            )
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        for line in lines:
            print(line)
        correct = correct and not failures
        attempted += n_items
        failed += n_failed
        for metric, (value, unit) in metrics.items():
            print(f"metric {name} {metric} = {value:.6g} {wanted.get(metric, unit)}")
        missing = sorted(set(wanted) - set(metrics))
        if missing:
            print(f"benchmark error: {name} did not produce {missing}", file=sys.stderr)
            return 2
        prefix = "" if len(names) == 1 else name + "/"
        for metric, unit in wanted.items():
            reported[prefix + metric] = {"value": metrics[metric][0], "unit": unit}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported}
    with log.open("a") as fh:
        fh.write(json.dumps({"run": run_no, "started": started, "workload": args.workload,
                             "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "environment": env,
                             "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
