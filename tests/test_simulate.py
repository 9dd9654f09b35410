"""Increment samplers, path constructions, representations, bridge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levy_info as li
from conftest import FAMILY_PARAMS, interior_grid
from levy_info import rng
from levy_info.noise import _logarithmic_draws
from levy_info.rng import CHUNK, _chunks, ensemble_streams, stream, stream_keys
from levy_info.simulate import _fold_runs


def degenerate(x):
    return li.prior_from_atoms([(x, 1.0)])


# ---------------------------------------------------------------------------
# TimeGrid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps", [2.5, 2.0, "3", None, 0])
def test_grid_regular_steps_are_a_whole_number(steps):
    with pytest.raises(li.InvalidParameter, match="steps"):
        li.TimeGrid.regular(1.0, steps)


def test_grid_regular():
    g = li.TimeGrid.regular(2.0, 4)
    np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(g) == 5


def test_grid_validation():
    with pytest.raises(li.InvalidParameter, match="at least the point t=0"):
        li.TimeGrid([])
    with pytest.raises(li.InvalidParameter):
        li.TimeGrid([0.5, 1.0])  # must start at 0
    with pytest.raises(li.InvalidParameter):
        li.TimeGrid([0.0, 1.0, 1.0])  # strictly increasing
    with pytest.raises(li.InvalidParameter):
        li.TimeGrid([0.0, float("inf")])


def test_grid_times_are_write_protected():
    g = li.TimeGrid.regular(1.0, 2)
    with pytest.raises(ValueError):
        g.times[0] = 5.0


# ---------------------------------------------------------------------------
# sample_messages
# ---------------------------------------------------------------------------

def test_sample_messages_degenerate():
    rng = np.random.default_rng(0)
    p = degenerate(2.0)
    np.testing.assert_array_equal(li.sample_messages(p, 20, rng), np.full(20, 2.0))
    assert li.sample_messages(p, None, rng) == 2.0
    assert np.ndim(li.sample_messages(p, None, rng)) == 0


def test_sample_messages_frequencies():
    rng = np.random.default_rng(1)
    p = li.prior_from_atoms([(0.0, 0.5), (1.0, 0.5)])
    draws = li.sample_messages(p, 100_000, rng)
    freq = draws.mean()
    se = math.sqrt(0.25 / draws.size)
    assert abs(freq - 0.5) <= 3.0 * se


def test_sample_messages_extreme_weights_stay_in_support():
    rng = np.random.default_rng(2)
    p = li.prior_from_atoms([(0.0, 1e-9), (1.0, 1.0 - 1e-9)])
    assert set(li.sample_messages(p, 1000, rng)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_trivial_grid_gives_zero_path():
    rng = np.random.default_rng(3)
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    path = li.simulate_information_path(model, degenerate(0.0),
                                        li.TimeGrid([0.0]), rng)
    np.testing.assert_array_equal(path.values, [0.0])


def test_path_invariants(model):
    # x chosen interior for every family
    x = 0.3 if model.family != "VarianceGamma" else 0.3
    _, xi = li.simulate_ensemble(model, degenerate(x),
                                 li.TimeGrid.regular(1.0, 16), 64, seed=4)
    assert (xi[:, 0] == 0.0).all()
    if model.family in ("Poisson", "Gamma", "NegativeBinomial",
                        "InverseGaussian"):
        assert (np.diff(xi, axis=1) >= 0.0).all()
    if model.family in ("Poisson", "NegativeBinomial"):
        assert (xi == np.round(xi)).all()


def test_brownian_mean_oracle():
    grid = li.TimeGrid([0.0, 4.0])
    _, xi = li.simulate_ensemble(li.make_noise_model("Brownian", ()),
                                 degenerate(0.5), grid, 20_000, seed=5)
    mean, se = li.mean_stderr(xi[:, -1])
    assert abs(mean - 2.0) <= 3.0 * se


def test_poisson_variance_oracle():
    grid = li.TimeGrid([0.0, 3.0])
    _, xi = li.simulate_ensemble(li.make_noise_model("Poisson", (1.0,)),
                                 degenerate(0.0), grid, 20_000, seed=6)
    v = xi[:, -1].var(ddof=1)
    # variance of the sample variance for Poisson(3): (mu4 - v^2 (n-3)/(n-1))/n
    se = math.sqrt((3.0 + 3 * 9.0 + 9.0 * 2.0 / (xi.shape[0] - 1)) / xi.shape[0])
    assert abs(v - 3.0) <= 3.0 * se


def test_conditional_moment_laws(model):
    x = 0.25
    t = 1.0
    rng = np.random.default_rng(8)
    draws = li.increment_draws(model, x, t, rng, size=20_000)
    d1, d2, _ = li.exponent_derivatives(model, x)
    mean, se = li.mean_stderr(draws)
    assert abs(mean - d1 * t) <= 3.5 * se
    est = li.jackknife_cumulants(draws)
    assert abs(est.k2 - d2 * t) <= 3.5 * est.se2


def test_increments_uncorrelated_given_message(model):
    grid = li.TimeGrid([0.0, 1.0, 2.0])
    _, xi = li.simulate_ensemble(model, degenerate(0.2), grid, 20_000, seed=9)
    a = xi[:, 1] - xi[:, 0]
    b = xi[:, 2] - xi[:, 1]
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) <= 3.0 / math.sqrt(a.size)


def test_ensemble_deterministic_and_thread_independent(monkeypatch):
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 0.5), (0.5, 0.5)])
    grid = li.TimeGrid.regular(1.0, 10)
    x1, xi1 = li.simulate_ensemble(model, prior, grid, 5000, seed=11)
    x2, xi2 = li.simulate_ensemble(model, prior, grid, 5000, seed=11)
    np.testing.assert_array_equal(xi1, xi2)
    np.testing.assert_array_equal(x1, x2)
    monkeypatch.setenv("LEVY_INFO_THREADS", "4")
    x3, xi3 = li.simulate_ensemble(model, prior, grid, 5000, seed=11)
    np.testing.assert_array_equal(xi1, xi3)
    np.testing.assert_array_equal(x1, x3)
    _, xi4 = li.simulate_ensemble(model, prior, grid, 5000, seed=11, tag=1)
    assert not np.array_equal(xi1, xi4)


@pytest.mark.parametrize("atoms, draws_messages", [([(0.5, 1.0)], False), ([(0.0, 0.5), (0.5, 0.5)], True)])
def test_only_a_prior_of_two_atoms_or_more_draws_messages(atoms, draws_messages, monkeypatch):
    # every message of a one-atom prior is that atom: no (seed, tag, chunk, 0) key
    tables = []
    monkeypatch.setattr(rng, "stream_keys", lambda *args: tables.append(stream_keys(*args)) or tables[-1])
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    x, _ = li.simulate_ensemble(model, li.prior_from_atoms(atoms), li.TimeGrid.regular(1.0, 2), CHUNK + 3, seed=5)
    built = sorted(map(tuple, np.concatenate([t.reshape(-1, 2) for t in tables]).tolist()))
    assert built == sorted(tuple(stream_keys(5, 0, c, j).tolist()) for c in (0, 1) for j in range(1 - draws_messages, 3))
    assert draws_messages or (x == 0.5).all()


@pytest.mark.parametrize("atoms", [[(0.5, 1.0)], [(0.0, 0.5), (0.5, 0.5)]])
def test_keys_computed_in_blocks_of_intervals_draw_the_same_ensemble(atoms, monkeypatch):
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    args = (model, li.prior_from_atoms(atoms), li.TimeGrid.regular(1.0, 7), CHUNK + 3, 4)
    whole = li.simulate_ensemble(*args)
    monkeypatch.setattr(rng, "_BLOCK", 3)
    for got, want in zip(li.simulate_ensemble(*args), whole):
        np.testing.assert_array_equal(got, want)


def test_a_bad_seed_is_refused_where_no_stream_is_built():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter, match="seed"):
        li.simulate_ensemble(model, degenerate(0.0), li.TimeGrid([0.0]), 3, seed=2.5)
    with pytest.raises(li.InvalidParameter, match="stream key"):
        li.simulate_ensemble(model, degenerate(0.0), li.TimeGrid([0.0]), 3, seed=1, tag=-1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("family, params, t", [
    ("Gamma", (1.0, 1.0), 1e308),        # increments of 2e308 at x = 0.5
    ("Poisson", (1.0,), 1e19),           # a rate numpy's poisson refuses
    ("NegativeBinomial", (1.0, 0.5), 1e25),
])
def test_a_time_too_long_for_the_increments_is_non_finite_value(family, params, t, threads, monkeypatch):
    # these returned inf paths or raised numpy's bare ValueError; a path is
    # checked once on its sum of increments, so the 1e-3 steps before the
    # overflowing one change nothing
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    model, grid = li.make_noise_model(family, params), li.TimeGrid([0.0, 1e-3, 2e-3, t])
    with pytest.raises(li.NonFiniteValue, match="overflow"):
        li.simulate_ensemble(model, degenerate(0.5), grid, 2 * CHUNK + 3, seed=1)
    with pytest.raises(li.NonFiniteValue, match="overflow"):
        li.simulate_information_path(model, degenerate(0.5), grid, np.random.default_rng(1))


def test_compound_draws_with_no_jump_at_all_are_zero():
    # at t = 1e-12 every Poisson count of jumps is 0, so no logarithmic jump is drawn
    model = li.make_noise_model("NegativeBinomial", (1.0, 0.5))
    np.testing.assert_array_equal(li.representation_draws(model, "NB_compound", 0.0, 1e-12, 5, 1), np.zeros(5))


@pytest.mark.parametrize("rep", ["NB_compound", "NB_subordinated"])
def test_representation_draws_at_a_time_too_long_are_non_finite_value(rep):
    model = li.make_noise_model("NegativeBinomial", (1.0, 0.5))
    with pytest.raises(li.NonFiniteValue, match="overflow"):
        li.representation_draws(model, rep, 0.0, 1e25, 5, 1)


ORACLE_CASES = [(family, params, 0.0, False) for family, params in sorted(FAMILY_PARAMS.items())] + [
    ("Gamma", (2.0, 1.0), 0.3, False),
    ("Brownian", (), -0.7, False),
    ("Poisson", (1.0,), 0.0, True),
]


def per_chunk_oracle(model, prior, grid, n, seed, tag):
    """The ensemble drawn chunk by chunk, each interval from its own
    (seed, tag, chunk, interval) stream, one new Generator per stream."""
    x, xi = np.empty(n), np.zeros((n, len(grid)))
    for c, sl in _chunks(n):
        count = sl.stop - sl.start
        x[sl] = prior.positions[0] if len(prior) == 1 else li.sample_messages(prior, count, stream(seed, tag, c, 0))
        for j, dt in enumerate(np.diff(grid.times), 1):
            xi[sl, j] = xi[sl, j - 1] + li.increment_draws(model, x[sl], dt, stream(seed, tag, c, j), count)
    return x, xi


def folded(model, prior, grid, n, seed, tag):
    """The ensemble put together from what ``_fold_runs`` hands its fold,
    after checking that the runs come in order and cover the paths."""
    runs = _fold_runs(model, prior, grid, n, seed, tag, lambda sl, x, rows: (sl, x.copy(), rows.copy()))
    assert [sl.start for sl, _, _ in runs] == [0] + [sl.stop for sl, _, _ in runs[:-1]] and runs[-1][0].stop == n
    return np.concatenate([x for _, x, _ in runs]), np.concatenate([rows for _, _, rows in runs])


def assert_both_routes_draw_the_oracle(family, params, drift, one_atom, n, grid):
    # the ensemble is sampled in place, the fold gets each run in run-sized
    # storage; at every worker count both must draw what the oracle draws
    model = li.make_noise_model(family, params, drift=drift)
    a, b = interior_grid(model, 4)[1:3]
    prior = degenerate(a) if one_atom else li.prior_from_atoms([(a, 0.4), (b, 0.6)])
    seed, tag = 12, 3
    x, xi = per_chunk_oracle(model, prior, grid, n, seed, tag)
    for threads in ("1", "2", "3"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("LEVY_INFO_THREADS", threads)
            for got_x, got_xi in (li.simulate_ensemble(model, prior, grid, n, seed, tag),
                                  folded(model, prior, grid, n, seed, tag)):
                np.testing.assert_array_equal(got_x, x)
                np.testing.assert_array_equal(got_xi, xi)


@pytest.mark.parametrize("family, params, drift, one_atom", ORACLE_CASES)
def test_runs_of_chunks_draw_what_each_chunk_draws_from_its_own_streams(family, params, drift, one_atom):
    # 10 chunks make runs of 4, 4, 2 at 1 and 2 threads and of 3, 3, 3, 1 at 3
    grid = li.TimeGrid([0.0, 0.5, 1.5, 4.0])
    assert_both_routes_draw_the_oracle(family, params, drift, one_atom, 9 * CHUNK + 17, grid)


@pytest.mark.parametrize("family, params, drift, one_atom", ORACLE_CASES)
def test_runs_carry_their_sums_across_blocks_of_keys(family, params, drift, one_atom):
    # 5000 intervals take the keys of two blocks of rng._BLOCK intervals, and
    # each path's sum runs on across the block edge
    assert_both_routes_draw_the_oracle(family, params, drift, one_atom, 3, li.TimeGrid.regular(50.0, 5000))


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_a_failing_fold_raises_the_error_of_the_lowest_failing_run(threads, monkeypatch):
    # every run but the first fails; whichever thread fails first, the
    # error is the second run's, as in a serial loop over the runs
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    n = 9 * CHUNK + 17

    def fold(sl, x, rows):
        if sl.start:
            raise ValueError(f"run at {sl.start}")

    with pytest.raises(ValueError, match=f"^run at {ensemble_streams(1, 0, n, [1])[1].paths.start}$"):
        _fold_runs(model, degenerate(0.5), li.TimeGrid([0.0, 1.0]), n, 1, 0, fold)


def test_chunks_cover_the_paths_in_order():
    n = 2 * CHUNK + 5
    assert _chunks(n) == [(0, slice(0, CHUNK)), (1, slice(CHUNK, 2 * CHUNK)), (2, slice(2 * CHUNK, n))]
    assert _chunks(CHUNK) == [(0, slice(0, CHUNK))]
    assert _chunks(1) == [(0, slice(0, 1))]


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(FAMILY_PARAMS)), n_paths=st.integers(1, 9000),
       steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_ensemble_independent_of_worker_count(family, n_paths, steps, seed):
    # up to 9000 paths crosses the sampler's chunk edges at 4096 and 8192
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    prior = li.prior_from_atoms([(x, 1.0) for x in interior_grid(model, 4)[1:3]])
    grid = li.TimeGrid.regular(1.0, steps)
    runs = []
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("LEVY_INFO_THREADS", threads)
            runs.append(li.simulate_ensemble(model, prior, grid, n_paths, seed))
    (x1, xi1), (x2, xi2) = runs
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(xi1, xi2)


def test_path_counts_must_be_integers():
    model = li.make_noise_model("VarianceGamma", (2.0,))
    prior = li.prior_from_atoms([(0.0, 1.0)])
    grid = li.TimeGrid.regular(1.0, 1)
    for bad in (1.5, 2.0, "3"):
        with pytest.raises(li.InvalidParameter, match="n_paths"):
            li.simulate_ensemble(model, prior, grid, bad, seed=1)
        with pytest.raises(li.InvalidParameter, match="integer"):
            li.representation_draws(model, "VG_subordinated", 0.0, 1.0, bad, seed=1)
    x, xi = li.simulate_ensemble(model, prior, grid, np.int64(3), seed=1)
    assert x.shape == (3,) and xi.shape == (3, 2)
    assert li.representation_draws(model, "VG_subordinated", 0.0, 1.0, np.int64(3), seed=1).shape == (3,)


def test_negative_seed_is_invalid_parameter():
    with pytest.raises(li.InvalidParameter, match="seed"):
        stream(-1, 0)


@pytest.mark.parametrize("seed", [2.5, math.nan, "2"])
def test_a_seed_that_is_not_a_whole_number_is_invalid_parameter(seed):
    # 2.5 used to run seed 2 and NaN raised numpy's ValueError
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter, match="seed"):
        li.simulate_ensemble(model, degenerate(0.0), li.TimeGrid.regular(1.0, 2), 3, seed=seed)


@pytest.mark.parametrize("tag", [2.5, -1, math.nan])
def test_a_stream_key_that_is_not_a_count_is_invalid_parameter(tag):
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter, match="stream key"):
        li.simulate_ensemble(model, degenerate(0.0), li.TimeGrid.regular(1.0, 2), 3, seed=1, tag=tag)


@pytest.mark.parametrize("dt", [-1.0, math.nan, math.inf, [0.5, -0.5]])
def test_increment_draws_reject_a_bad_time_step(dt):
    # dt = -1 used to raise numpy's ValueError and NaN returned NaN draws
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter, match="dt must be finite and >= 0"):
        li.increment_draws(model, 0.0, dt, np.random.default_rng(0))


@pytest.mark.parametrize("size", [-1, (2, -1), (2, 2.5), [math.nan]])
def test_increment_draws_reject_a_size_that_is_not_a_count(size):
    # -1 and (2, -1) used to raise numpy's ValueError
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter, match="size must be"):
        li.increment_draws(model, 0.0, 1.0, np.random.default_rng(0), size)


def test_increment_draws_take_an_empty_size():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    assert li.increment_draws(model, 0.0, 1.0, np.random.default_rng(0), (2, 0)).shape == (2, 0)


def test_a_drift_is_added_after_the_draw_for_every_family(model):
    # the law given X = x is the x-tilted model, and a drift delta shifts it
    # by delta dt outside the sampler: from the same Generator state the
    # drifted draws are the drift-free ones plus delta dt, bit for bit
    drifted = li.make_noise_model(model.family, FAMILY_PARAMS[model.family], drift=0.3)
    x = interior_grid(model, 4)[1:3, None]
    dt = np.array([0.01, 0.1, 1.0 / 3.0, 1.0, 2.5])
    got = li.increment_draws(drifted, x, dt, np.random.default_rng(21), (2, 5))
    want = li.increment_draws(model, x, dt, np.random.default_rng(21), (2, 5)) + 0.3 * dt
    np.testing.assert_array_equal(got, want)


def test_gamma_draws_match_numpy_gamma():
    # the sampler goes through standard_gamma; the variates must be the ones
    # numpy's gamma(shape, scale) gives on the same stream
    model = li.make_noise_model("Gamma", (2.0, 0.5))
    x = np.linspace(-1.0, 1.9, 7)
    dt = np.array([0.1, 0.5, 1.0, 2.0, 0.25, 3.0, 0.01])
    m, kappa = model.params
    for xs, dts, size in ((x, 0.3, 7), (0.4, dt, 7), (x, dt, 7), (x[:, None], dt, (7, 7))):
        got = li.increment_draws(model, xs, dts, np.random.default_rng(17), size)
        want = np.random.default_rng(17).gamma(m * np.asarray(dts), kappa / (1.0 - kappa * np.asarray(xs)), size)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("scale", [1.0, 1.0 / 3.0, 0.5, 7.25])
@pytest.mark.parametrize("shape", [0.7, 2.0, np.linspace(0.01, 5.0, 9)], ids=["0.7", "2", "per-path"])
def test_numpy_gamma_is_standard_gamma_times_its_scale(shape, scale):
    # every sampler draws a gamma variate as standard_gamma(shape) * scale,
    # the facade of a run of chunks forwards only standard_gamma, and the
    # recorded digests were drawn with gamma(shape, scale): all three agree
    # only while numpy computes gamma this way, bit for bit
    for size in (9, None):
        want = np.random.default_rng(5).gamma(shape, scale, size)
        np.testing.assert_array_equal(np.random.default_rng(5).standard_gamma(shape, size) * scale, want)


# ---------------------------------------------------------------------------
# dedicated samplers
# ---------------------------------------------------------------------------

def test_ig_sampler_moments():
    rng = np.random.default_rng(12)
    ig = li.make_noise_model("InverseGaussian", (2.0, 1.0))
    draws = li.increment_draws(ig, 0.0, 1.0, rng, 20_000)
    assert (draws > 0.0).all()
    mean, se = li.mean_stderr(draws)
    assert abs(mean - 2.0) <= 3.0 * se  # E = a t / b
    est = li.jackknife_cumulants(draws)
    assert abs(est.k2 - 2.0) <= 3.0 * est.se2  # Var = a t / b^3


def test_logarithmic_sampler():
    rng = np.random.default_rng(13)
    draws = _logarithmic_draws(0.5, rng, 100_000)
    assert draws.dtype.kind == "i"
    assert (draws >= 1).all()
    p1 = 0.5 / math.log(2.0)  # P(J=1) = -q / ln(1-q)
    freq = (draws == 1).mean()
    assert abs(freq - p1) <= 3.0 * math.sqrt(p1 * (1 - p1) / draws.size)
    mean_ref = 1.0 / math.log(4.0) * 2.0  # q/((1-q)(-ln(1-q)))
    mean, se = li.mean_stderr(draws.astype(float))
    assert abs(mean - mean_ref) <= 3.0 * se


# ---------------------------------------------------------------------------
# alternative representations
# ---------------------------------------------------------------------------

def test_vg_gamma_difference_at_zero_message():
    # increments distributed as (gamma1 - gamma2)/sqrt(2m): mean 0, var t
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    vals = li.representation_draws(vg, "VG_gamma_difference", 0.0, 1.0, 20_000, seed=15)
    mean, se = li.mean_stderr(vals)
    assert abs(mean) <= 3.0 * se
    est = li.jackknife_cumulants(vals)
    assert abs(est.k2 - 1.0) <= 3.0 * est.se2


def test_representation_names_and_family_checks():
    assert set(li.REPRESENTATIONS) == {
        "VG_subordinated", "VG_scaled_subordinator", "VG_gamma_difference",
        "NB_subordinated", "NB_compound"}
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    nb = li.make_noise_model("NegativeBinomial", (1.0, 0.5))
    with pytest.raises(li.UnsupportedRepresentation):
        li.representation_draws(vg, "NB_compound", 0.0, 1.0, 10, seed=16)
    with pytest.raises(li.UnsupportedRepresentation):
        li.representation_draws(nb, "VG_subordinated", 0.0, 1.0, 10, seed=16)
    with pytest.raises(li.UnsupportedRepresentation):
        li.representation_draws(vg, "VG_sub", 0.0, 1.0, 10, seed=16)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_representation_draws_need_a_positive_finite_time(t):
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    with pytest.raises(li.InvalidParameter, match="t must be"):
        li.representation_draws(vg, "VG_subordinated", 0.0, t, 10, seed=1)


@pytest.mark.parametrize("x, t, shapes", [([0.1, 0.2], 1.0, r"\(2,\) and \(\)"), (0.1, [1.0], r"\(\) and \(1,\)")])
def test_representation_draws_take_a_scalar_message_and_time(x, t, shapes):
    # an array message used to fail in numpy broadcasting, a bare ValueError
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    with pytest.raises(li.InvalidParameter, match=f"scalar x and t, got shapes {shapes}"):
        li.representation_draws(vg, "VG_gamma_difference", x, t, 4, 0)


def test_scaled_subordinator_draws_one_normal_per_draw():
    # each draw gets its own gaussian: with one shared normal every draw at
    # x = 0 would take its sign
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    draws = li.representation_draws(vg, "VG_scaled_subordinator", 0.0, 1.0, 50, seed=5)
    assert set(np.sign(draws)) == {-1.0, 1.0}


def test_representation_draws_deterministic():
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    a = li.representation_draws(vg, "VG_subordinated", 0.5, 1.0, 4096 + 7, seed=17)
    b = li.representation_draws(vg, "VG_subordinated", 0.5, 1.0, 4096 + 7, seed=17)
    np.testing.assert_array_equal(a, b)
    c = li.representation_draws(vg, "VG_scaled_subordinator", 0.5, 1.0,
                                4096 + 7, seed=17)
    assert not np.array_equal(a, c)
