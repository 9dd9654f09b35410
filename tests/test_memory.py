"""Each study's traced memory peak, in units of one n-length float array.

The studies hold a few n-length arrays at a time, not one per grid value or
per leave-one-out term.  Each study runs at its command-line defaults with
n = 100k paths under ``tracemalloc``, which sees numpy's array buffers, at
LEVY_INFO_THREADS 1 and 2; its peak, less what was traced before the call,
must stay within the study's ceiling of 8n-byte arrays plus a constant
allowance for the rows, labels and generators every run makes.  The
ceilings count the arrays each study holds at its peak, plus, for a study
that reduces the ensemble as it is drawn, what each thread holds for the
run of chunks it is sampling and folding (see ``simulate._fold_runs``):

* convergence: one row of squared errors per ladder time (3) and, per
  thread, the run in flight: its values, messages, per-path drift and
  thresholds and the samplers' temporaries, about 2 arrays at this n, where
  a run is 16,384 paths
* factorization: the messages and xi_t, each written run by run, the
  weights, the atom indices, the residual and two complex buffers (2 each)
* esscher: the draws, their products and the jackknife's vectors
* bridge: xi_s and xi_t, once the values they are scaled from, written
  run by run, are freed, and the jackknife's vectors
* representation: the draws and the jackknife's four buffers

The batched filter allocates each block's arrays as it filters the block and
drops them before the next, so it holds, per thread, one block: its
``BLOCK_ROWS x atoms`` log-weights, its observation rows (xi, t, 1 and the
shift) and its sum rows (the normalizer and one sum per column of g), above
the output it writes.

``levy-info filter`` reduces each block of the batched filter to the
posterior mean and variance where it is exponentiated (a block of squared
deviations per thread), so without ``--weights`` its columns hold less than
one (rows x atoms) weight matrix.

The CSV writer formats and writes ``simulate`` output a block of whole paths
at a time (``cli._BLOCK_ROWS`` rows or one path), and any other float table
a block of as many cells, so its peak is a few blocks of four-cell rows
whatever the path count or the table's width: the formatter's gather index
(8 bytes per character of a block's floats), the cells, the row matrix and
its text.
"""

import tracemalloc

import numpy as np
import pytest

import levy_info as li
from levy_info import cli
from levy_info.filtering import BLOCK_ROWS

N = 100_000
ALLOWANCE = 64 * 1024  # bytes, independent of n

BROWNIAN = li.make_noise_model("Brownian", ())
PRIOR = li.prior_from_atoms([(-1.0, 0.5), (1.0, 0.5)])

# name -> (arrays, arrays per thread, study at n paths)
STUDIES = {
    "convergence": (3.0, 2.25, lambda n: li.convergence_study(BROWNIAN, PRIOR, [1.0, 4.0, 16.0], n, 0)),
    "factorization": (8.0, 0.0, lambda n: li.factorization_study(
        BROWNIAN, PRIOR, [0.3j, 0.6j, 0.9j], [0.2j, 0.5j, 0.8j], 1.0, n, 0)),
    "esscher": (10.0, 0.0, lambda n: li.esscher_consistency_study(BROWNIAN, 0.25, 1.0, n, 0)),
    "representation": (5.0, 0.0, lambda n: li.representation_equivalence_study(
        li.make_noise_model("VarianceGamma", (2.0,)), 0.5, 1.0, n, 0)),
    "bridge": (8.0, 0.0, lambda n: li.bridge_study(li.make_noise_model("Gamma", (1.0, 1.0)), 0.3, 2.0, 0.5, 1.0, n, 0)),
}


def traced_peak(run) -> int:
    """Bytes allocated at the peak of ``run()`` above the level before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_peak_stays_within_its_ceiling(name, threads, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", str(threads))
    arrays, per_thread, study = STUDIES[name]
    ceiling = arrays + per_thread * threads
    study(1000)  # first-call caches are not the study's working set
    peak = traced_peak(lambda: study(N))
    assert peak <= ceiling * 8 * N + ALLOWANCE, f"{name}: {peak / (8 * N):.2f} arrays of 8n bytes"


@pytest.mark.parametrize("threads", [1, 2])
def test_posterior_expectations_peak_stays_within_a_block_per_thread(threads, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", str(threads))
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_density(lambda x: np.ones_like(x), li.Interval(-3.0, 3.0), 64)
    rows = 10_001
    xi = np.random.default_rng(0).normal(size=rows)
    t = np.linspace(0.0, 10.0, rows)
    g = li.exponent_derivatives(model, prior.positions)[0][:, None]
    li.posterior_expectations(prior, model, xi[:10], t[:10], g)  # first-call caches are not the working set
    peak = traced_peak(lambda: li.posterior_expectations(prior, model, xi, t, g))
    block = BLOCK_ROWS * (len(prior) + 4 + 1 + g.shape[1]) * 8
    assert peak - 8 * rows * g.shape[1] <= threads * block + ALLOWANCE, f"{peak / block:.2f} blocks"


@pytest.mark.parametrize("threads", [1, 2])
def test_filter_columns_hold_less_than_one_weight_matrix(threads, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", str(threads))
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_density(lambda x: np.exp(-0.5 * x * x), li.Interval(-3.0, 3.0), 64)
    rows = 10_001
    grid = li.TimeGrid(np.linspace(0.0, 10.0, rows))
    path = li.InformationPath(grid, np.random.default_rng(0).normal(size=rows).cumsum() * 0.03, 0.5, model)
    cli._filter_columns(path, prior, False)  # first-call caches are not the working set
    peak = traced_peak(lambda: cli._filter_columns(path, prior, False))
    matrix = 8 * rows * len(prior)
    assert peak < matrix, f"{peak / matrix:.2f} (rows x atoms) matrices"


@pytest.mark.parametrize("paths", [1000, 4000])
def test_simulate_csv_peak_stays_within_a_few_blocks_of_rows(paths, tmp_path):
    times = np.linspace(0.0, 1.0, 101)
    rng = np.random.default_rng(0)
    xi, messages = rng.normal(size=(paths, times.size)).cumsum(axis=1), rng.normal(size=paths)
    header = ("path_id", "t", "xi", "x_hidden")

    def write():
        cli._emit(str(tmp_path / "simulate.csv"), "simulate", {"seed": 0}, header,
                  cli._simulate_blocks(messages, xi, times))

    write()  # first-call tables are not the working set
    peak = traced_peak(write)
    block = cli._BLOCK_ROWS * (4 * 24 + 4)  # four cells of at most 24 bytes and their separators
    assert peak <= 6 * block + ALLOWANCE, f"{peak / block:.2f} blocks"


def test_a_wide_float_table_peak_stays_within_a_block_of_cells(tmp_path):
    # filter --weights writes a column per atom, here 5 + 256: a block of
    # _BLOCK_ROWS rows of it would hold 65 times the cells of a simulate block
    columns = list(np.random.default_rng(0).normal(size=(261, 10_001)))
    header = [f"c{i}" for i in range(len(columns))]

    def write():
        cli._emit(str(tmp_path / "filter.csv"), "filter", {"seed": 0}, header, cli._float_blocks(columns))

    write()  # first-call tables are not the working set
    peak = traced_peak(write)
    # every cell of a block is formatted: per cell, the gather index of at
    # most 24 characters, the cell and its place in the row matrix and its text
    cell = 8 * 24 + 3 * 25
    assert peak <= 4 * cli._BLOCK_ROWS * cell + ALLOWANCE, f"{peak / cell:.0f} cells"


def test_traced_peak_sees_numpy_buffers():
    assert traced_peak(lambda: np.ones(N)) >= 8 * N
