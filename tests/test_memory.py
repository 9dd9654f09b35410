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
* bridge: xi_s and xi_t, once the ensemble they are scaled from is freed,
  and the jackknife's vectors
* representation: the draws and the jackknife's four buffers
"""

import tracemalloc

import pytest

import levy_info as li

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


def test_traced_peak_sees_numpy_buffers():
    import numpy as np

    assert traced_peak(lambda: np.ones(N)) >= 8 * N
