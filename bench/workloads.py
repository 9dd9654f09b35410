"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Each workload calls the package's public entry points (``cli.main`` or the
library) and checks every output it produces.  A check raises ``CheckFailed``;
the worker counts that, an exception or a nonzero exit code as a failed
operation.

Why these four, and which layer each one loads (self time under tracing):

* ``simulate-csv``    ``cli simulate``: CSV formatting and writing in ``cli``
                      dominate; sampling is a few percent, so CSV work shows
                      here and sampler work must not move it.
* ``ensemble-filter`` ``innovations_ensemble`` with 256 atoms: the batched
                      filter in ``innovations`` dominates; many atoms is where
                      a filter-kernel rewrite pays.
* ``path-filter``     ``cli filter`` + ``cli innovations`` on one 10,000-step
                      path: the only workload that runs ``filtering`` (one
                      scalar ``sequential_update`` per step); one path by many
                      steps against ``ensemble-filter``'s many paths by few.
* ``study-scorecard`` the 11 ``cli experiment`` invocations of the scorecard:
                      ``simulate``, ``rng``, ``stats`` and ``experiments``
                      carry the time, with no filter and almost no CSV.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from pathlib import Path

import numpy as np

GOLDEN_FILE = Path(__file__).with_name("golden.json")
# simulate-csv warms up at this program seed and compares its CSV with the
# committed digest, so a change in which variate goes where shows.
GOLDEN_SEED = 20240
# The scorecard has 65 z-rows per pass, so any one study seed has about a 3%
# chance of a 3.5-sigma row without a defect (1 of 40 seeds tried).  Its study
# seeds therefore stay in a small fixed range, like the acceptance tests';
# the benchmark seed picks among them.
STUDY_SEEDS = 4
REL_TOL = 1e-9

# Family parameters and two-atom priors of the acceptance scorecard.
SCORECARD_MODELS = {
    "Brownian": ([], [[-1.0, 1.0], [1.0, 1.0]]),
    "Poisson": ([1.0], [[0.0, 1.0], [math.log(2.0), 1.0]]),
    "Gamma": ([2.0, 1.0], [[0.0, 1.0], [0.5, 1.0]]),
    "VarianceGamma": ([2.0], [[0.0, 1.0], [0.5, 1.0]]),
    "NegativeBinomial": ([1.0, 0.5], [[0.0, 1.0], [0.3, 1.0]]),
    "InverseGaussian": ([1.0, 2.0], [[0.5, 1.0], [1.0, 1.0]]),
    "NormalInverseGaussian": ([2.0, 0.5, 1.0], [[-0.5, 1.0], [0.5, 1.0]]),
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def program_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").randrange(2**31)


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(actual, expected, scale: float, what: str, tol: float = REL_TOL) -> None:
    """|actual - expected| <= tol * max(|expected|, scale), elementwise."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    bound = tol * np.maximum(np.abs(expected), scale)
    err = np.abs(actual - expected)
    _require(np.all(err <= bound), f"{what}: off by up to {float(np.max(err)):.3g}")


def _read_csv(path, columns):
    """Data lines (no '#' comments) and the parsed float matrix of a CLI CSV."""
    with open(path, encoding="utf-8") as fh:
        data = [line for line in fh if not line.startswith("#")]
    _require(data and data[0].rstrip("\n").split(",") == list(columns), f"{path}: header is not {columns}")
    table = np.loadtxt(data[1:], delimiter=",", ndmin=2) if len(data) > 1 else np.empty((0, len(columns)))
    return data, table


def _study_rows(path) -> list:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    _require(rows and rows[0] == ["quantity", "estimate", "reference", "stderr", "z"], f"{path}: bad header")
    return rows[1:]


def _digest(data_lines) -> str:
    return hashlib.sha256("".join(data_lines).encode()).hexdigest()


def _cli(li, argv) -> int:
    """cli.main with its stderr summary kept out of the benchmark's output."""
    with contextlib.redirect_stderr(io.StringIO()):
        return li.cli.main(argv)


def _left_integral(yhat, times):
    """The left-endpoint integral of yhat along the last axis."""
    out = np.zeros_like(yhat)
    out[..., 1:] = np.cumsum(yhat[..., :-1] * np.diff(times), axis=-1)
    return out


def _check_innovations(xi, yhat, integral, m, times, yhat_scale, what):
    _close(integral + m, xi, np.max(np.abs(xi)) + 1.0, f"{what}: xi != int_yhat + M", tol=1e-12)
    _close(integral, _left_integral(yhat, times), yhat_scale * times[-1], f"{what}: int_yhat")


class Workload:
    """One workload at one seed; ``run`` is the timed operation."""

    name = ""
    unit = ""  # what ``work`` counts, as the name of its throughput metric
    cli_argvs = ()  # argv lists the operation hands to cli.main
    probe = ("interpreter",)  # the probe.py kinds that track where the operation spends its time

    def __init__(self, li, seed: int, workdir: Path, tiny: bool = False):
        self.li = li
        self.pseed = program_seed(self.name, seed)
        self.workdir = Path(workdir)
        self.tiny = tiny

    def warmup(self):
        """Run and check once before timing; returns the output."""
        out = self.run()
        self.check(out)
        return out

    def bytes_written(self, out) -> int:
        """Bytes of CSV the operation wrote."""
        return 0

    def csv_rows(self, out) -> int:
        """Study rows the operation's CSV kept (experiments only)."""
        return 0


class SimulateCSV(Workload):
    name = "simulate-csv"
    unit = "csv_rows_per_s"

    def __init__(self, li, seed, workdir, tiny=False):
        super().__init__(li, seed, workdir, tiny)
        self.paths, self.steps = (20, 10) if tiny else (1000, 100)
        self.out_path = self.workdir / "simulate.csv"
        self.work = self.paths * (self.steps + 1)
        self.cli_argvs = [self.argv(self.pseed)]

    def argv(self, pseed):
        return ["simulate", "--seed", str(pseed), "--paths", str(self.paths),
                "--set", "model.family=Gamma", "--set", "model.params=[1.0,1.0]",
                "--set", "prior.atoms=[[0.0,1.0],[0.5,1.0]]",
                "--set", f"grid.steps={self.steps}", "--out", str(self.out_path)]

    def run(self, pseed=None):
        rc = _cli(self.li, self.argv(self.pseed if pseed is None else pseed))
        _require(rc == 0, f"simulate exited {rc}")
        return self.out_path

    def warmup(self):
        out = self.run(GOLDEN_SEED)
        data = self.check(out, GOLDEN_SEED)
        key = f"{self.name}{'-tiny' if self.tiny else ''}"
        golden = json.loads(GOLDEN_FILE.read_text())
        _require(_digest(data) == golden[key], f"{key}: CSV digest differs from {GOLDEN_FILE.name}")
        return out

    def check(self, out, pseed=None):
        li = self.li
        pseed = self.pseed if pseed is None else pseed
        data, table = _read_csv(out, ("path_id", "t", "xi", "x_hidden"))
        n, m = self.paths, self.steps + 1
        _require(table.shape == (n * m, 4), f"simulate: {table.shape} cells, expected {(n * m, 4)}")
        model = li.make_noise_model("Gamma", (1.0, 1.0))
        prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
        grid = li.TimeGrid.regular(1.0, self.steps)
        messages, xi = li.simulate_ensemble(model, prior, grid, n, pseed)
        for col, expected, what in (
            (0, np.repeat(np.arange(n), m), "path_id"),
            (1, np.tile(grid.times, n), "t"),
            (2, xi.ravel(), "xi"),
            (3, np.repeat(messages, m), "x_hidden"),
        ):
            _require(np.array_equal(table[:, col], expected), f"simulate: column {what} differs from simulate_ensemble")
        return data

    def bytes_written(self, out) -> int:
        return os.path.getsize(out)


class _FilterWorkload(Workload):
    """Shared reference for the filter workloads: the one-shot posterior."""

    def _prepare(self, family, params, density, interval, atoms):
        li = self.li
        self.model = li.make_noise_model(family, params)
        self.prior = li.prior_from_density(density, li.Interval(*interval), atoms)
        x = self.prior.positions
        self.psi = np.array([li.fiducial_exponent(self.model, a) for a in x])
        self.dpsi = np.array([li.exponent_derivatives(self.model, a)[0] for a in x])
        self.samples = random.Random(self.pseed)

    def weights(self, xi, t):
        """Posterior weights proportional to pi(x) exp(x xi - psi0(x) t), one row per (xi, t)."""
        log_w = np.log(self.prior.weights) + np.multiply.outer(xi, self.prior.positions) \
            - np.multiply.outer(t, self.psi)
        w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def posterior(self, xi, t):
        """``posterior_update`` at one point, checked against ``weights``."""
        post = self.li.posterior_update(self.prior, self.model, xi, t)
        _close(post.weights, self.weights(xi, t), 1.0, f"posterior_update at xi={xi!r}, t={t!r}")
        return post


class EnsembleFilter(_FilterWorkload):
    name = "ensemble-filter"
    unit = "filter_cells_per_s"
    probe = ("arrays",)

    def __init__(self, li, seed, workdir, tiny=False):
        super().__init__(li, seed, workdir, tiny)
        self.paths, self.steps, atoms = (200, 10, 16) if tiny else (8192, 50, 256)
        self._prepare("Gamma", (1.0, 1.0), lambda x: np.ones_like(x), (-1.0, 0.5), atoms)
        self.grid = li.TimeGrid.regular(1.0, self.steps)
        self.work = self.paths * self.steps * len(self.prior)

    def run(self):
        li = self.li
        messages, xi, yhat, m = li.innovations_ensemble(self.model, self.prior, self.grid, self.paths, self.pseed)
        return messages, xi, yhat, m, li.martingale_test(m[:, -1])

    def check(self, out):
        messages, xi, yhat, m, report = out
        shape = (self.paths, self.steps + 1)
        _require(xi.shape == shape and yhat.shape == shape and m.shape == shape, "ensemble: wrong shapes")
        _require(np.isin(messages, self.prior.positions).all(), "ensemble: message off the prior atoms")
        times = self.grid.times
        scale = float(np.max(np.abs(self.dpsi)))
        # Whole columns: the last one, which no integral below depends on, and three more.
        for j in [self.steps] + [self.samples.randrange(self.steps) for _ in range(3)]:
            expected = self.weights(xi[:, j], np.full(self.paths, times[j])) @ self.dpsi
            _close(yhat[:, j], expected, scale, f"ensemble: yhat[:, {j}]")
        for _ in range(16):
            p, j = self.samples.randrange(self.paths), self.samples.randrange(self.steps + 1)
            post = self.posterior(xi[p, j], times[j])
            _close(yhat[p, j], post.weights @ self.dpsi, scale, f"ensemble: yhat[{p}, {j}]")
        _check_innovations(xi, yhat, xi - m, m, times, scale, "ensemble")
        _require(report.passed, f"ensemble: {report.summary()}")


class PathFilter(_FilterWorkload):
    name = "path-filter"
    unit = "filter_steps_per_s"

    def __init__(self, li, seed, workdir, tiny=False):
        super().__init__(li, seed, workdir, tiny)
        self.steps, atoms = (200, 8) if tiny else (10000, 64)
        t_max = 10.0
        self._prepare("Brownian", (), lambda x: np.exp(-0.5 * x * x), (-3.0, 3.0), atoms)
        self.times = li.TimeGrid.regular(t_max, self.steps).times
        prior = {"density": "gaussian-truncated", "mean": 0.0, "sd": 1.0, "lo": -3.0, "hi": 3.0, "n": atoms}
        common = ["--seed", str(self.pseed), "--set", "model.family=Brownian",
                  "--set", "prior=" + json.dumps(prior),
                  "--set", f"grid.t_max={t_max}", "--set", f"grid.steps={self.steps}"]
        self.filter_out = self.workdir / "filter.csv"
        self.innov_out = self.workdir / "innovations.csv"
        self.cli_argvs = [["filter", *common, "--out", str(self.filter_out)],
                          ["innovations", *common, "--out", str(self.innov_out)]]
        self.work = 2 * self.steps  # both subcommands filter every step

    def run(self):
        for argv in self.cli_argvs:
            rc = _cli(self.li, argv)
            _require(rc == 0, f"{argv[0]} exited {rc}")
        return self.filter_out, self.innov_out

    def check(self, out):
        _, fil = _read_csv(out[0], ("t", "xi", "post_mean", "post_var", "i0_estimate"))
        _, inn = _read_csv(out[1], ("t", "xi", "yhat", "int_yhat", "M"))
        rows = self.steps + 1
        _require(fil.shape == (rows, 5) and inn.shape == (rows, 5), "path: wrong row counts")
        _require(np.array_equal(fil[:, 0], self.times) and np.array_equal(inn[:, 0], self.times), "path: t column")
        _require(np.array_equal(fil[:, 1], inn[:, 1]), "path: filter and innovations observed different paths")
        x = self.prior.positions
        scale = float(np.max(np.abs(x)))
        w = self.weights(fil[:, 1], self.times)
        mean = w @ x
        _close(fil[:, 2], mean, scale, "filter: post_mean")
        _close(fil[:, 3], (w * (x - mean[:, None]) ** 2).sum(axis=1), scale * scale, "filter: post_var")
        _close(inn[:, 2], w @ self.dpsi, scale, "innovations: yhat")
        for _ in range(16):
            j = self.samples.randrange(1, rows)
            post = self.posterior(fil[j, 1], self.times[j])
            _close(fil[j, 2], post.mean, scale, f"filter: post_mean[{j}]")
            i0 = self.li.estimate_message(post, self.model, fil[j, 1], self.times[j]).i0
            _close(fil[j, 4], i0, scale, f"filter: i0_estimate[{j}]")
        _check_innovations(inn[:, 1], inn[:, 2], inn[:, 3], inn[:, 4], self.times, scale, "innovations")
        report = self.li.martingale_test(np.diff(inn[:, 4]))
        _require(report.passed, f"innovations: {report.summary()}")

    def bytes_written(self, out) -> int:
        return sum(os.path.getsize(p) for p in out)


class StudyScorecard(Workload):
    name = "study-scorecard"
    unit = "study_paths_per_s"
    probe = ("interpreter", "arrays")

    def __init__(self, li, seed, workdir, tiny=False):
        super().__init__(li, seed, workdir, tiny)
        self.paths = 2000 if tiny else 250_000
        study_seed = str(seed % STUDY_SEEDS)
        argvs = []
        for family, (params, atoms) in SCORECARD_MODELS.items():
            argvs.append(["convergence", "--set", f"model.family={family}",
                          "--set", f"model.params={json.dumps(params)}",
                          "--set", f"prior.atoms={json.dumps(atoms)}"])
        argvs += [["factorization"], ["esscher"], ["representation"], ["bridge"]]
        self.outs = [self.workdir / f"study{i}.csv" for i in range(len(argvs))]
        self.cli_argvs = [["experiment", argv[0], "--seed", study_seed, "--paths", str(self.paths), *argv[1:],
                           "--out", str(out)] for argv, out in zip(argvs, self.outs)]
        self.work = self.paths * len(self.cli_argvs)

    def run(self):
        return [_cli(self.li, argv) for argv in self.cli_argvs]

    def check(self, out):
        for argv, rc, path in zip(self.cli_argvs, out, self.outs):
            _require(rc == 0, f"experiment {argv[1]} exited {rc}")
            rows = _study_rows(path)
            _require(rows, f"experiment {argv[1]}: no study rows")
            z = np.array([float(r[4]) for r in rows])
            _require(np.all(np.abs(z[np.isfinite(z)]) <= 3.5), f"experiment {argv[1]}: |z| > 3.5")

    def bytes_written(self, out) -> int:
        return sum(os.path.getsize(p) for p in self.outs)

    def csv_rows(self, out) -> int:
        return sum(len(_study_rows(p)) for p in self.outs)


WORKLOADS = {w.name: w for w in (SimulateCSV, EnsembleFilter, PathFilter, StudyScorecard)}
