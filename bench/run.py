"""Benchmark of levy_info: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, which needs no build step.  Workloads and their output
checks are in ``workloads.py``; the spans behind ``--trace 1`` in
``tracing.py``.

A run measures set-up first: ``import levy_info`` in five fresh
interpreters (``setup_s`` is their median; with ``--trace 1`` three more
under ``-X importtime`` split it by package).  Then a fresh worker process
runs the workload for ``--seconds`` (see ``worker.py``).  Every child gets
LEVY_INFO_THREADS=2 and single-threaded BLAS/OpenMP, so a change that
parallelises chunks can show a gain without more than two threads.

The line before the result is an ``{"record": ...}`` object: the machine and
library versions, the pinned variables, the seed, the operation counts behind
each median, the error rate and the workload's throughput under its own name.
The last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer ones with
``--trace 1``).  The run exits 2 without a result when the checkout has no
``src/levy_info``, and 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PINNED = {
    "LEVY_INFO_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import levy_info; print(time.perf_counter() - t)"
)
_IMPORT_MARKED = "import sys; sys.stderr.write('@levy_info\\n'); import levy_info"
_IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")
# Also byte-compiles the package on a fresh checkout, before any timing.
_VERSIONS = (
    "import json, platform, numpy, scipy, levy_info; print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args, env, timeout, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True, check=True, **kwargs)


def _setup_times(env, samples: int) -> list:
    return [float(_python(["-c", _IMPORT_TIMER], env, 60).stdout) for _ in range(samples)]


def _import_split(env, samples: int) -> dict:
    """Median self time of ``import levy_info`` by top-level package."""
    runs = defaultdict(list)
    for _ in range(samples):
        stderr = _python(["-X", "importtime", "-c", _IMPORT_MARKED], env, 60).stderr
        totals = dict.fromkeys(("numpy", "scipy", "levy_info", "other"), 0.0)
        for line in stderr.partition("@levy_info\n")[2].splitlines():
            match = _IMPORTTIME_LINE.match(line)
            if match:
                top = match.group(2).split(".")[0]
                totals[top if top in totals else "other"] += int(match.group(1)) * 1e-6
        for key, value in totals.items():
            runs[key].append(value)
    return {f"setup.{key}_s": statistics.median(values) for key, values in runs.items()}


def _cli_subprocess(argvs, env, deadline) -> tuple:
    """Wall time of each argv as its own ``python -m levy_info.cli`` process, summed."""
    total, failed = 0.0, 0
    for argv in argvs:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "levy_info.cli", *argv], env=env, cwd=ROOT,
                              timeout=deadline - t0, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        total += time.perf_counter() - t0
        failed += proc.returncode != 0
    return total, failed


def _relative_p50(op_times, probe_times) -> float:
    """Median of each operation's wall time over the mean of the probes around it."""
    return statistics.median(t / (0.5 * (before + after))
                             for t, before, after in zip(op_times, probe_times, probe_times[1:]))


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-tests")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "levy_info" / "__init__.py").is_file():
        print(f"bench: no levy_info sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = _child_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        versions = json.loads(_python(["-c", _VERSIONS], env, 120).stdout)
        setup = _setup_times(env, SETUP_SAMPLES)
        split = _import_split(env, IMPORTTIME_SAMPLES) if args.trace else {}
        worker_args = [str(BENCH_DIR / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--workdir", str(workdir), "--src", str(SRC)]
        if args.tiny:
            worker_args.append("--tiny")
        worker = json.loads(_python(worker_args, env, deadline - time.perf_counter()).stdout.splitlines()[-1])
        attempted, failed = worker["attempted"], worker["failed"]
        setup_s = statistics.median(setup)
        op_p50 = statistics.median(worker["op_s"])
        if args.trace:
            sub_s, sub_failed = _cli_subprocess(worker["cli_argvs"], env, deadline)
            attempted += len(worker["cli_argvs"])
            failed += sub_failed
            expected = len(worker["cli_argvs"]) * setup_s + op_p50 if worker["cli_argvs"] else 0.0
            layers = {**split, **worker["layers"], "cli.subprocess_s": sub_s,
                      "cli.subprocess_excess_s": sub_s - expected}
            metrics = {name: _metric(value, UNITS[name]) for name, value in layers.items()}
        else:
            values = {"setup_s": setup_s, "op_p50_rel": _relative_p50(worker["op_s"], worker["probe_s"]),
                      "peak_rss_mb": worker["peak_rss_mb"]}
            metrics = {name: _metric(value, UNITS[name]) for name, value in values.items()}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(getattr(exc, "stderr", "") or "", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **versions,
        "pinned": PINNED,
        "setup_samples": len(setup),
        "timed_ops": len(worker["op_s"]),
        "traced_ops": len(worker.get("traced_op_s", ())),
        "error_rate": failed / attempted,
        "errors": worker["errors"],
        "op_p50_s": op_p50,
        worker["unit"]: worker["work"] / op_p50,
        "work_per_op": worker["work"],
        "probe": worker["probe"],
        "probe_p50_s": statistics.median(worker["probe_s"]),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
