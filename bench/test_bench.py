"""Self-tests of the benchmark: tiny workloads, corrupted outputs, the tracer.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import levy_info  # noqa: E402
import levy_info.cli  # noqa: E402,F401

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make(name, tmp_path, seed=5):
    return WORKLOADS[name](levy_info, seed, tmp_path, tiny=True)


def flip_digit(path, line_no, column):
    """Replace the first digit of one CSV cell (1-based data line) by another."""
    lines = Path(path).read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    i = data[line_no]
    cells = lines[i].split(",")
    cell = cells[column]
    k = next(j for j, ch in enumerate(cell) if ch in "123456789")
    cells[column] = cell[:k] + str(int(cell[k]) % 9 + 1) + cell[k + 1:]
    lines[i] = ",".join(cells)
    Path(path).write_text("".join(lines))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_checks(name, tmp_path):
    w = make(name, tmp_path)
    w.warmup()
    w.check(w.run())
    assert w.work > 0


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_simulate_csv_flipped_byte_fails(tmp_path):
    w = make("simulate-csv", tmp_path)
    out = w.run()
    flip_digit(out, 37, 2)
    with pytest.raises(CheckFailed):
        w.check(out)


def test_simulate_csv_golden_digest_is_checked(tmp_path, monkeypatch):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"simulate-csv-tiny": "0" * 64}))
    monkeypatch.setattr(workloads, "GOLDEN_FILE", golden)
    with pytest.raises(CheckFailed, match="digest"):
        make("simulate-csv", tmp_path).warmup()


def test_ensemble_filter_perturbed_weight_fails(tmp_path):
    w = make("ensemble-filter", tmp_path)
    positions, weights = w.prior.positions, w.prior.weights.copy()
    weights[3] *= 1.5
    w.prior, good = levy_info.prior_from_atoms(list(zip(positions, weights))), w.prior
    out = w.run()
    w.prior = good
    with pytest.raises(CheckFailed):
        w.check(out)


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_ensemble_filter_perturbed_output_fails(tmp_path, index):
    w = make("ensemble-filter", tmp_path)
    out = list(w.run())
    if index == 0:
        out[0] = out[0] + 0.125  # a message off the prior atoms
    else:
        out[index] = out[index].copy()
        out[index][7, -1 if index == 2 else 4] += 1e-6
    with pytest.raises(CheckFailed):
        w.check(tuple(out))


@pytest.mark.parametrize("which,column", [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4)])
def test_path_filter_flipped_byte_fails(tmp_path, which, column):
    w = make("path-filter", tmp_path)
    out = w.run()
    flip_digit(out[which], 150, column)
    with pytest.raises(CheckFailed):
        w.check(out)


def test_study_scorecard_flagged_row_fails(tmp_path):
    w = make("study-scorecard", tmp_path)
    out = w.run()
    lines = w.outs[2].read_text().splitlines(keepends=True)
    assert lines[-2].startswith("mse[t=16],")
    cells = lines[-2].split(",")
    cells[4] = "-3.6\n"
    lines[-2] = ",".join(cells)
    w.outs[2].write_text("".join(lines))
    with pytest.raises(CheckFailed, match=r"\|z\|"):
        w.check(out)
    with pytest.raises(CheckFailed, match="exited"):
        w.check([0, 3] + out[2:])


def test_tracer_sees_package_reexports_and_restores():
    original = levy_info.innovations_ensemble
    tracer = tracing.Tracer()
    tracer.install(levy_info)
    try:
        assert levy_info.innovations_ensemble is not original
        model = levy_info.make_noise_model("Gamma", (1.0, 1.0))
        prior = levy_info.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
        tracer.reset()
        levy_info.innovations_ensemble(model, prior, levy_info.TimeGrid.regular(1.0, 4), 300, 1)
        spans, counts = tracer.reset()
    finally:
        tracer.uninstall()
    assert levy_info.innovations_ensemble is original
    layers = {span[2] for span in spans}
    assert {"innovations", "simulate", "rng", "prior", "noise"} <= layers
    assert counts["rng.streams"] == 5  # one chunk: messages plus four intervals
    assert counts["simulate.variates"] == 4 * 300
    top = [span for span in spans if span[1] is None]
    assert [span[3] for span in top] == ["innovations_ensemble"]


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, None, "cli", "main", 0.0, 10.0),
        (2, 1, "simulate", "a", 1.0, 4.0),
        (3, 1, "simulate", "b", 3.0, 6.0),  # overlaps 2, as on another thread
        (4, 3, "rng", "stream", 3.5, 4.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["cli"] == pytest.approx(5.0)
    assert selfs["simulate"] == pytest.approx(3.0 + 2.0)
    assert selfs["rng"] == pytest.approx(1.0)


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_metric(trace, section):
    proc = _run_bench(ROOT, "--workload", "path-filter", "--seed", "2", "--seconds", "0.2",
                      "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and record["error_rate"] == 0.0
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "simulate-csv", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
