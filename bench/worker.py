"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``, which sets PYTHONPATH to the checkout's ``src`` and
pins the thread variables.  The worker imports levy_info, runs and checks one
warm-up operation, then repeats the timed operation until ``--seconds`` have
passed, checking each output outside the timed region.  With ``--trace 1``
it spends the first half of the time untraced and the second half with the
tracer installed.  It prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import probe
import tracing
from workloads import WORKLOADS

MIN_OPS = 3


def _timed_ops(workload, seconds, tally, traced=None):
    """Run operations for ``seconds``.

    Returns their wall times, the probe times taken before the first and
    after each operation, and the per-operation trace rows.
    """
    times, probes, rows = [], [probe.timed(workload.probe)], []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        if traced is not None:
            traced.reset()
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, exc
        else:
            error = None
        times.append(time.perf_counter() - t0)
        if traced is not None:
            spans, counts = traced.reset()
        probes.append(probe.timed(workload.probe))
        if error is None:
            try:
                workload.check(out)
            except Exception as exc:
                error = exc
        tally.record(error)
        if traced is not None and error is None:
            rows.append(_trace_row(workload, out, spans, counts))
    return times, probes, rows


def _trace_row(workload, out, spans, counts) -> dict:
    row = {f"{layer}.self_s": s for layer, s in tracing.self_times(spans).items()}
    calls = tracing.call_counts(spans)
    row["filtering.calls"] = calls["filtering"]
    row["noise.calls"] = calls["noise"]
    for key in ("rng.streams", "simulate.variates", "experiments.ensembles"):
        row[key] = counts[key]
    study_rows = counts["experiments.study_rows"]
    row["experiments.rows_kept_ratio"] = workload.csv_rows(out) / study_rows if study_rows else 0.0
    row["cli.bytes_written"] = workload.bytes_written(out)
    return row


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()

    def record(self, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors[f"{type(error).__name__}: {error}"[:300]] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the src directory levy_info must come from")
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-tests")
    args = parser.parse_args(argv)

    import levy_info
    import levy_info.cli  # noqa: F401  (cli.main is an entry point the workloads call)

    package_dir = Path(levy_info.__file__).resolve().parent
    if package_dir.parent != Path(args.src).resolve():
        raise SystemExit(f"levy_info was imported from {package_dir}, not from {args.src}")

    tally = Tally()
    workload = WORKLOADS[args.workload](levy_info, args.seed, Path(args.workdir), tiny=args.tiny)
    try:
        workload.warmup()
    except Exception as exc:
        tally.record(exc)
    else:
        tally.record(None)

    seconds = args.seconds / 2 if args.trace else args.seconds
    op_times, probe_times, _ = _timed_ops(workload, seconds, tally)
    result = {
        "op_s": op_times,
        "probe_s": probe_times,
        "probe": workload.probe,
        "work": workload.work,
        "unit": workload.unit,
        "cli_argvs": [list(a) for a in workload.cli_argvs],
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(levy_info)
        try:
            traced_times, _, rows = _timed_ops(workload, seconds, tally, traced=tracer)
        finally:
            tracer.uninstall()
        layer = {key: statistics.median(r[key] for r in rows) for key in (rows[0] if rows else ())}
        layer["trace.overhead"] = statistics.median(traced_times) / statistics.median(op_times) - 1.0
        result["traced_op_s"] = traced_times
        result["layers"] = layer
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=dict(tally.errors.most_common(5)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
