"""Command-line front end.

Subcommands
-----------
simulate      ensemble of information paths as CSV (path_id,t,xi,x_hidden)
filter        posterior trajectory along one simulated path
innovations   innovations decomposition along one simulated path
experiment    one of the named statistical studies

Runs are configured by a JSON file (``--config``) deep-merged over built-in
defaults, with ``--set key.path=value`` and shortcut flags applied last.
Every CSV starts with comment lines recording the tool version, subcommand,
fully resolved configuration and seed; identical invocations are
byte-identical.  Exit codes: 0 success, 1 usage error, 2 validation or
numerical error, 3 study failure (some |z| above threshold).

Output is written column by column: each column is formatted once, floats
in shortest round-trip form (``repr``), integers by ``str`` and text cells
quoted as ``csv.QUOTE_MINIMAL`` would, and the rows of a block are joined and
written in one call.  ``simulate`` formats the shared time column once and
writes one block per path, so formatting memory is O(steps).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import LevyInfoError, UsageError
from .experiments import (
    bridge_study,
    convergence_study,
    esscher_consistency_study,
    factorization_study,
    representation_equivalence_study,
)
from .filtering import posterior_expectations
from .innovations import innovations_path
from .noise import Interval, inverse_marginal_clamped, make_noise_model
from .prior import prior_from_atoms, prior_from_density
from .rng import stream
from .simulate import TimeGrid, simulate_ensemble, simulate_information_path
from .stats import StudyReport

__all__ = ["main"]

_BASE_CONFIG = {
    "model": {"family": "Brownian", "params": []},
    "prior": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
    "grid": {"t_max": 1.0, "steps": 100},
    "paths": 2000,
    "seed": 0,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _integer(value, name: str) -> int:
    """An integral number: a JSON integer or a float such as 1e3; fractions,
    booleans and strings are usage errors rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise UsageError(f"{name} must be an integer, got {json.dumps(value)}")
    return int(value)


def _number(value, name: str) -> float:
    """A JSON number or a string ``float`` reads, such as ``nan``; not a boolean."""
    if isinstance(value, bool):
        raise UsageError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def _array(value, name: str, item=_number) -> list:
    """A JSON array, each entry read by ``item``; not a string or an object."""
    if not isinstance(value, list):
        raise UsageError(f"{name} must be an array, got {json.dumps(value)}")
    return [item(v, name) for v in value]


def _imaginary(value, name: str) -> list:
    """A JSON array of numbers b, read as the imaginary arguments i*b."""
    return [1j * b for b in _array(value, name)]


# study name -> (study function, reads the prior, default model or None,
# {config key: (keyword, default, reader)}); the options are read in this order
_STUDIES = {
    "convergence": (convergence_study, True, None,
                    {"times": ("times", [1.0, 4.0, 16.0], _array), "epsilon": ("epsilon", 0.5, _number)}),
    "factorization": (factorization_study, True, None,
                      {"alpha_im": ("alpha", [0.3, 0.6, 0.9], _imaginary),
                       "beta_im": ("beta", [0.2, 0.5, 0.8], _imaginary), "t": ("t", 1.0, _number)}),
    "esscher": (esscher_consistency_study, False, None,
                {"lambda": ("lam", 0.25, _number), "t": ("t", 1.0, _number)}),
    "representation": (representation_equivalence_study, False, {"family": "VarianceGamma", "params": [2.0]},
                       {"x": ("x", 0.5, _number), "t": ("t", 1.0, _number)}),
    "bridge": (bridge_study, False, {"family": "Gamma", "params": [1.0, 1.0]},
               {"x": ("x", 0.3, _number), "horizon": ("horizon", 2.0, _number),
                "s": ("s", 0.5, _number), "t": ("t", 1.0, _number)}),
}


def _merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _merge(base.get(key), value) if key in base else value
        return merged
    return override


def _apply_set(config: dict, assignment: str) -> None:
    path, sep, raw = assignment.partition("=")
    if not sep or not path:
        raise UsageError(f"--set needs key.path=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise UsageError(f"--set {path}: {key!r} is not a configuration section")
    node[keys[-1]] = value


def _resolve_config(args) -> dict:
    # deep copies: --set writes into nested sections and must never leak
    # into the module-level defaults across invocations
    config = copy.deepcopy(_BASE_CONFIG)
    default_atoms = config["prior"]["atoms"]
    name = getattr(args, "name", None)
    if name is not None:
        _, _, model, options = copy.deepcopy(_STUDIES[name])
        config["study"] = {key: default for key, (_, default, _) in options.items()} | {"threshold": 3.5}
        if model is not None:
            config["model"] = model
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                from_file = json.load(fh)
        except OSError as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(from_file, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        config = _merge(config, from_file)
    for assignment in args.set or ():
        _apply_set(config, assignment)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.paths is not None:
        config["paths"] = args.paths
    # a study section that is not an object is reported by _run_study
    if getattr(args, "threshold", None) is not None and isinstance(config["study"], dict):
        config["study"]["threshold"] = args.threshold
    prior = config.get("prior")
    if isinstance(prior, dict) and "density" in prior and "atoms" in prior:
        # the merges keep the default atoms object unless an override replaced it
        if prior["atoms"] is not default_atoms:
            raise UsageError("config key 'prior': give 'atoms' or 'density', not both")
        del prior["atoms"]
    # section -> its keys; a prior's keys depend on its recipe
    sections = {"model": {"family", "params", "drift"}, "grid": {"t_max", "steps", "times"},
                "prior": _prior_keys(prior)}
    if name is not None:
        sections["study"] = set(options) | {"threshold"}
    unknown = sorted(set(config) - {"prior", "paths", "seed", *sections})
    unknown += sorted(f"{key}.{inner}" for key, allowed in sections.items()
                      if isinstance(config[key], dict) for inner in set(config[key]) - allowed)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    return config


@contextlib.contextmanager
def _config_key(key: str):
    """Re-raise validation errors with the offending config key named.

    A ``TypeError`` or ``ValueError`` here comes from reading a value of the
    wrong type (``float("abc")``, an atom that is not a pair) and is a usage error.
    """
    try:
        yield
    except (UsageError, TypeError, ValueError) as exc:
        raise UsageError(f"config key '{key}': {exc}") from exc
    except LevyInfoError as exc:
        raise type(exc)(f"config key '{key}': {type(exc).__name__}: {exc}") from exc


def _build_model(config: dict):
    section = config["model"]
    with _config_key("model"):
        if not isinstance(section, dict) or "family" not in section:
            raise UsageError("expected an object with a 'family' key")
        return make_noise_model(section["family"], _array(section.get("params", []), "params"),
                                _number(section.get("drift", 0.0), "drift"))


def _interval(section: dict) -> Interval:
    return Interval(_number(section["lo"], "lo"), _number(section["hi"], "hi"))


def _gaussian_truncated(section: dict):
    mean, sd = _number(section.get("mean", 0.0), "mean"), _number(section.get("sd", 1.0), "sd")
    return lambda x: np.exp(-0.5 * ((x - mean) / sd) ** 2), _interval(section)


def _gamma_shifted(section: dict):
    theta, r = _number(section["theta"], "theta"), _number(section["r"], "r")
    u_max = _number(section.get("u_max", 40.0), "u_max")
    return lambda x: (1.0 - x) ** (r - 1.0) * np.exp(-theta * (1.0 - x)), Interval(1.0 - u_max, 1.0)


# density recipe name -> (builder of (density, Interval) from the prior
# section, the section's keys besides 'density' and 'n')
_DENSITIES = {
    "uniform": (lambda section: (np.ones_like, _interval(section)), {"lo", "hi"}),
    "gaussian-truncated": (_gaussian_truncated, {"mean", "sd", "lo", "hi"}),
    "gamma-shifted": (_gamma_shifted, {"theta", "r", "u_max"}),
}


def _prior_keys(section) -> set:
    """The keys a prior section may hold: 'atoms', or 'density', 'n' and the
    recipe's keys; an unknown recipe is reported by ``_build_prior``."""
    if not isinstance(section, dict) or "atoms" in section:
        return {"atoms"}
    name = section.get("density")
    if not isinstance(name, str) or name not in _DENSITIES:
        return set(section)
    return {"density", "n"} | _DENSITIES[name][1]


def _build_prior(config: dict):
    section = config["prior"]
    with _config_key("prior"):
        if not isinstance(section, dict):
            raise UsageError("expected an object with 'atoms' or 'density'")
        if "atoms" in section:
            return prior_from_atoms([(x, w) for x, w in _array(section["atoms"], "atoms", _array)])
        if "density" in section:
            n = _integer(section.get("n", 64), "n")
            name = section["density"]
            if not isinstance(name, str) or name not in _DENSITIES:
                raise UsageError(f"unknown density recipe {name!r}; expected {', '.join(_DENSITIES)}")
            try:
                return prior_from_density(*_DENSITIES[name][0](section), n)
            except KeyError as exc:
                raise UsageError(f"density recipe is missing key {exc}") from exc
        raise UsageError("expected an object with 'atoms' or 'density'")


def _build_grid(config: dict) -> TimeGrid:
    section = config["grid"]
    with _config_key("grid"):
        if not isinstance(section, dict):
            raise UsageError("expected an object with 't_max'/'steps' or 'times'")
        if "times" in section:
            times = _array(section["times"], "times")
            if not times or times[0] != 0.0:
                times = [0.0] + times
            return TimeGrid(np.asarray(times))
        if "t_max" in section or "steps" in section:
            steps = _integer(section.get("steps", 100), "steps")
            return TimeGrid.regular(_number(section.get("t_max", 1.0), "t_max"), steps)
        raise UsageError("expected an object with 't_max'/'steps' or 'times'")


def _seed(config: dict) -> int:
    with _config_key("seed"):
        return _integer(config["seed"], "seed")


def _paths(config: dict) -> int:
    with _config_key("paths"):
        n = _integer(config["paths"], "paths")
        if n < 1:
            raise UsageError(f"paths must be >= 1, got {n}")
        return n


def _study_value(study: dict, key: str, read):
    with _config_key(f"study.{key}"):
        if key not in study:
            raise UsageError("missing study option")
        return read(study[key], key)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _text(cell: str) -> str:
    """A text cell as ``csv.QUOTE_MINIMAL`` writes it: quoted when it holds a
    comma, a quote or a line break, with every inner quote doubled."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _floats(values) -> list:
    """Each value in shortest round-trip form (``repr`` of a Python float)."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _emit(out_path, subcommand: str, config: dict, header, blocks) -> None:
    """Write the comment lines, the header row and then each block, a tuple of
    equal-length columns of formatted cells, as one ``write`` of its rows."""
    def write(fh):
        fh.write(
            f"# levy-info {__version__}\n"
            f"# subcommand: {subcommand}\n"
            f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}\n"
            f"# seed: {config['seed']}\n"
            + ",".join(map(_text, header)) + "\n"
        )
        for columns in blocks:
            fh.write("".join([",".join(row) + "\n" for row in zip(*columns)]))

    if out_path is None:
        write(sys.stdout)
        return
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"--out {out_path}: {exc.strerror}") from exc
    with fh:
        write(fh)


def _check_out(out_path) -> None:
    """Reject an ``--out`` target that cannot be created, before any work."""
    if out_path is None:
        return
    folder = os.path.dirname(out_path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"--out {out_path}: directory {folder} does not exist")
    if os.path.isdir(out_path):
        raise UsageError(f"--out {out_path}: is a directory")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _prelude(args):
    """The resolved config and the model, prior and grid built from it."""
    config = _resolve_config(args)
    return config, _build_model(config), _build_prior(config), _build_grid(config)


def _one_path(args):
    """The config, the prior and the one path ``filter`` and ``innovations`` read."""
    config, model, prior, grid = _prelude(args)
    return config, prior, simulate_information_path(model, prior, grid, stream(_seed(config), 0))


def _cmd_simulate(args) -> int:
    config, model, prior, grid = _prelude(args)
    messages, xi = simulate_ensemble(model, prior, grid, _paths(config), _seed(config))
    t_cells = _floats(grid.times)
    n = len(t_cells)
    blocks = (
        ([str(pid)] * n, t_cells, _floats(xi[pid]), [repr(message)] * n)
        for pid, message in enumerate(messages.tolist())
    )
    _emit(args.out, "simulate", config, ("path_id", "t", "xi", "x_hidden"), blocks)
    return 0


def _filter_columns(path, prior, with_weights):
    times, values = path.grid.times, path.values
    weights = posterior_expectations(prior, path.model, values, times, np.eye(len(prior)))
    x = prior.positions
    mean = weights @ x
    var = np.einsum("ij,ij->i", weights, (x - mean[:, None]) ** 2)
    i0 = np.full(times.size, math.nan)
    later = times > 0.0
    i0[later] = inverse_marginal_clamped(path.model, values[later] / times[later])[0]
    columns = [times, values, mean, var, i0] + (list(weights.T) if with_weights else [])
    return tuple(map(_floats, columns))


def _cmd_filter(args) -> int:
    config, prior, path = _one_path(args)
    columns = ["t", "xi", "post_mean", "post_var", "i0_estimate"]
    if args.weights:
        columns.extend(f"w_{i}" for i in range(len(prior)))
    block = _filter_columns(path, prior, args.weights)
    _emit(args.out, "filter", config, columns, [block])
    return 0


def _cmd_innovations(args) -> int:
    config, prior, path = _one_path(args)
    dec = innovations_path(path, prior)
    block = tuple(map(_floats, (dec.grid.times, dec.xi, dec.yhat, dec.integral, dec.M)))
    _emit(args.out, "innovations", config, ("t", "xi", "yhat", "int_yhat", "M"), [block])
    return 0


def _run_study(name: str, config: dict) -> StudyReport:
    run, reads_prior, _, options = _STUDIES[name]
    model = _build_model(config)
    study = config["study"]
    if not isinstance(study, dict):
        raise UsageError("config key 'study': expected an object")
    with _config_key("study.threshold"):
        threshold = _number(study.get("threshold", 3.5), "threshold")
    n_paths = _paths(config)
    seed = _seed(config)
    # built for every study, so a malformed prior is reported where it is not read
    prior = _build_prior(config)
    kwargs = {keyword: _study_value(study, key, read) for key, (keyword, _, read) in options.items()}
    return run(model, *([prior] if reads_prior else []), n_paths=n_paths, seed=seed, threshold=threshold, **kwargs)


def _cmd_experiment(args) -> int:
    config = _resolve_config(args)
    report = _run_study(args.name, config)
    numbers = np.array(
        [(r.estimate, r.reference, r.stderr, r.z) for r in report.rows], dtype=float
    ).reshape(-1, 4)
    block = ([_text(r.quantity) for r in report.rows], *map(_floats, numbers.T))
    _emit(args.out, f"experiment {args.name}", config,
          ("quantity", "estimate", "reference", "stderr", "z"), [block])
    print(report.summary(), file=sys.stderr)
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry, e.g. --set model.family=Gamma")
    parser.add_argument("--seed", type=int, help="random seed (overrides config)")
    parser.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    parser.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="levy-info",
        description="Simulation, filtering and verification of Levy information processes.",
    )
    parser.add_argument("--version", action="version", version=f"levy-info {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate an ensemble of paths")
    _add_common(p_sim)

    p_fil = sub.add_parser("filter", help="posterior trajectory along one simulated path")
    _add_common(p_fil)
    p_fil.add_argument("--weights", action="store_true", help="append per-atom weight columns")

    p_inn = sub.add_parser("innovations", help="innovations decomposition of one path")
    _add_common(p_inn)

    p_exp = sub.add_parser("experiment", help="run a named statistical study")
    p_exp.add_argument("name", choices=tuple(_STUDIES))
    _add_common(p_exp)
    p_exp.add_argument("--threshold", type=float, help="|z| pass threshold (default 3.5)")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "simulate": _cmd_simulate,
        "filter": _cmd_filter,
        "innovations": _cmd_innovations,
        "experiment": _cmd_experiment,
    }
    try:
        _check_out(args.out)
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LevyInfoError as exc:
        message = str(exc)
        name = type(exc).__name__
        prefix = "" if name in message else f"{name}: "
        print(f"error: {prefix}{message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
