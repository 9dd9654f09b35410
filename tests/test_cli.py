"""Command-line interface: exit codes, CSV schemas, determinism, config handling."""

import io
import contextlib
import json

import numpy as np
import pytest

import levy_info as li
from levy_info import cli
from levy_info.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def header_lines(output):
    return [line for line in output.splitlines() if line.startswith("# ")]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_help_and_version_exit_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0 and out.startswith("usage")
    code, out, _ = run_cli(["--version"])
    assert code == 0 and "levy-info" in out


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 1


def test_incompatible_prior_exits_two_naming_error_class():
    code, _, err = run_cli([
        "simulate",
        "--set", "model.family=Gamma", "--set", "model.params=[1.0,1.0]",
        "--set", "prior.atoms=[[1.5,1.0]]", "--paths", "1",
    ])
    assert code == 2
    assert "IncompatibleSupport" in err


def test_overflowing_path_in_filter_exits_two(monkeypatch):
    model = li.make_noise_model("Brownian", ())
    grid = li.TimeGrid([0.0, 1.0])
    path = li.InformationPath(grid, np.array([0.0, 1e308]), -2.0, model)
    monkeypatch.setattr(cli, "simulate_information_path", lambda *args: path)
    code, out, err = run_cli(["filter", "--set", "prior.atoms=[[-2.0,1.0],[-3.0,1.0]]",
                              "--set", "grid.times=[0.0,1.0]"])
    assert code == 2
    assert "DegenerateWeights" in err
    assert out == ""


def test_inverse_gaussian_atom_at_closed_endpoint():
    # A = [0, 2): x = 0 is the fiducial law itself, 2 - 1e-12 hugs the open end
    ig = li.make_noise_model("InverseGaussian", (1.0, 2.0))
    grid = li.TimeGrid.regular(1.0, 10)
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    _, _, yhat, M = li.innovations_ensemble(ig, prior, grid, 50, seed=53)
    assert np.isfinite(yhat).all() and np.isfinite(M).all()
    ig_config = ["--set", "model.family=InverseGaussian", "--set", "model.params=[1.0,2.0]",
                 "--set", "grid.steps=10", "--seed", "53"]
    code, _, err = run_cli(["filter", *ig_config, "--set", "prior.atoms=[[0.0,1.0],[0.5,1.0]]"])
    assert code == 0, err
    near = li.prior_from_atoms([(0.5, 1.0), (2.0 - 1e-12, 1.0)])
    with pytest.raises(li.IncompatibleSupport):
        li.innovations_ensemble(ig, near, grid, 50, seed=53)
    code, _, err = run_cli(["filter", *ig_config, "--set", "prior.atoms=[[0.5,1.0],[1.999999999999,1.0]]"])
    assert code == 2 and "IncompatibleSupport" in err


@pytest.mark.parametrize("argv, names", [
    (["simulate", "--set", "bogus=3", "--paths", "1"], ["bogus"]),
    (["simulate", "--set", "noequals"], ["--set"]),
    (["simulate", "--config", "/nonexistent/zz.json"], ["zz.json"]),
    (["simulate", "--set", 'prior={"density":"cauchy","lo":0,"hi":1}'], ["config key 'prior'", "cauchy"]),
    # a misspelt key inside a section, or a section the subcommand does not
    # read, would otherwise run at the defaults
    (["experiment", "esscher", "--set", "study.lamda=0.5"], ["study.lamda"]),
    (["experiment", "bridge", "--set", "study.epsilon=0.5"], ["study.epsilon"]),
    (["simulate", "--set", "grid.stpes=5", "--set", "model.parms=[1]"], ["grid.stpes", "model.parms"]),
    (["simulate", "--set", "study.x=1"], ["study"]),
    (["filter", "--set", "study.x=1"], ["study"]),
    (["innovations", "--set", "study={}"], ["study"]),
    # a prior holds 'atoms', or 'density', 'n' and its recipe's keys, on
    # every subcommand, in studies that do not read the prior too
    (["simulate", "--set", "prior.atom=[[0,1]]"], ["prior.atom"]),
    (["simulate", "--set", 'prior={"density":"uniform","lo":-1,"hi":1,"nn":4}'], ["prior.nn"]),
    (["filter", "--set", "prior.n=8"], ["prior.n"]),
    (["innovations", "--set", 'prior={"density":"gaussian-truncated","lo":-1,"hi":1,"theta":2}'], ["prior.theta"]),
    (["experiment", "convergence", "--set", 'prior={"density":"gamma-shifted","theta":2,"r":3,"lo":0}'],
     ["prior.lo"]),
    (["experiment", "esscher", "--set", "prior.weights=[1]"], ["prior.weights"]),
    (["experiment", "bridge", "--set", 'prior={"density":"uniform","lo":0,"hi":1,"sd":1}'], ["prior.sd"]),
])
def test_config_errors_exit_one_naming_key(argv, names):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert all(name in err for name in names), err


@pytest.mark.parametrize("argv, key", [
    (["experiment", "factorization", "--set", "study.alpha_im=0.3"], "study.alpha_im"),
    (["experiment", "convergence", "--set", "study.times=4"], "study.times"),
    (["experiment", "esscher", "--set", "study.t=abc"], "study.t"),
    (["experiment", "esscher", "--set", "study.threshold=abc"], "study.threshold"),
    (["simulate", "--set", "paths=abc"], "paths"),
    (["simulate", "--set", "seed=abc"], "seed"),
    (["simulate", "--set", "grid.steps=abc"], "grid"),
    (["simulate", "--set", "prior.atoms=5"], "prior"),
    (["experiment", "esscher", "--set", "prior.atoms=5"], "prior"),  # a study that does not read the prior
    (["simulate", "--set", "model.params=abc"], "model"),
    # a boolean where a number is read, and a string or an object where an
    # array is read, are usage errors rather than 1, 0 or iterated
    (["experiment", "esscher", "--set", "study.t=true"], "study.t"),
    (["experiment", "esscher", "--set", "study.threshold=false"], "study.threshold"),
    (["simulate", "--set", "model.family=Poisson", "--set", "model.params=[true]"], "model"),
    (["simulate", "--set", "model.drift=false"], "model"),
    (["simulate", "--set", "grid.t_max=true"], "grid"),
    (["simulate", "--set", 'prior={"density":"uniform","lo":true,"hi":1}'], "prior"),
    (["experiment", "convergence", "--set", 'study.times="48"'], "study.times"),
    (["experiment", "factorization", "--set", 'study.beta_im="12"'], "study.beta_im"),
    (["simulate", "--set", 'prior.atoms={"12":0,"34":0}'], "prior"),
    (["simulate", "--set", 'prior.atoms=["12","34"]'], "prior"),
    (["simulate", "--set", 'grid.times={"0.5":1}'], "grid"),
    (["simulate", "--set", 'model.params="12"'], "model"),
    # --threshold with a study section that is not an object
    (["experiment", "esscher", "--set", "study=5", "--threshold", "2"], "study"),
])
def test_config_value_of_wrong_type_exits_one_naming_key(argv, key):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: config key '{key}': ")


@pytest.mark.parametrize("assignment, code", [
    ('study.t="1.0"', 0), ('study.lambda="0.25"', 0), ("study.t=nan", 2), ("model.drift=inf", 2),
])
def test_numbers_as_strings_are_read(assignment, code):
    # --set falls back to a string, so nan and inf arrive as strings: the
    # number reader takes every string float() reads
    result, out, err = run_cli(["experiment", "esscher", "--set", assignment])
    assert result == code, err
    if code == 0:
        assert out.splitlines()[4:] == run_cli(["experiment", "esscher"])[1].splitlines()[4:]


def test_validation_errors_name_key_and_class():
    code, _, err = run_cli(["simulate", "--set", "prior.atoms=[[0.0,-1.0]]"])
    assert code == 2
    assert "config key 'prior'" in err and "NonPositiveWeight" in err


def test_failed_study_exits_three():
    code, out, err = run_cli(["experiment", "esscher", "--paths", "2000",
                              "--seed", "3", "--threshold", "1e-9"])
    assert code == 3
    assert "passed=false" in err
    assert out.splitlines()[4] == "quantity,estimate,reference,stderr,z"


@pytest.mark.parametrize("extra", [["--threshold", "nan"], ["--set", "study.threshold=-1"]])
def test_threshold_not_positive_exits_two(extra):
    code, out, err = run_cli(["experiment", "esscher", "--paths", "2000", "--seed", "3", *extra])
    assert code == 2
    assert "InvalidParameter" in err and "threshold" in err
    assert out == ""


@pytest.mark.parametrize("model", [
    ["--set", "model.drift=0.5"],
    ["--set", "model.family=NegativeBinomial", "--set", "model.params=[1.0,0.5]", "--set", "model.drift=0.25"],
], ids=["drifted-vg", "drifted-nb"])
def test_representation_study_of_a_drifted_model_passes(model):
    code, _, err = run_cli(["experiment", "representation", "--paths", "20000", "--seed", "3", *model])
    assert code == 0, err


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------

def test_simulate_csv_schema_and_header():
    code, out, _ = run_cli(["simulate", "--paths", "2",
                            "--set", "grid.steps=3", "--seed", "9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# levy-info ")
    assert lines[1] == "# subcommand: simulate"
    assert lines[2].startswith("# config: ")
    assert lines[3] == "# seed: 9"
    assert lines[4] == "path_id,t,xi,x_hidden"
    assert len(lines) == 5 + 2 * 4  # two paths, four grid points each
    config = json.loads(lines[2][len("# config: "):])
    assert config["seed"] == 9 and config["paths"] == 2
    assert config["grid"]["steps"] == 3


def test_filter_csv_schema_with_weights():
    code, out, _ = run_cli(["filter", "--set", "grid.steps=2", "--seed", "2"])
    assert code == 0
    assert out.splitlines()[4] == "t,xi,post_mean,post_var,i0_estimate"
    code, out, _ = run_cli(["filter", "--weights",
                            "--set", "grid.steps=2", "--seed", "2"])
    assert code == 0
    assert out.splitlines()[4] == "t,xi,post_mean,post_var,i0_estimate,w_0,w_1"


def test_innovations_csv_schema():
    code, out, _ = run_cli(["innovations", "--set", "grid.steps=2", "--seed", "4"])
    assert code == 0
    assert out.splitlines()[4] == "t,xi,yhat,int_yhat,M"


def test_experiment_csv_schema_and_summary_line():
    code, out, err = run_cli(["experiment", "convergence",
                              "--seed", "42", "--paths", "1200"])
    assert code == 0
    assert out.splitlines()[1] == "# subcommand: experiment convergence"
    assert out.splitlines()[4] == "quantity,estimate,reference,stderr,z"
    assert err.startswith("study=convergence passed=true rows=6")


def test_out_flag_writes_file(tmp_path):
    (tmp_path / "runs").mkdir()
    target = tmp_path / "runs" / "out.csv"
    code, out, _ = run_cli(["simulate", "--paths", "1", "--seed", "5",
                            "--set", "grid.steps=2", "--out", str(target)])
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.splitlines()[4] == "path_id,t,xi,x_hidden"


def test_out_into_missing_directory_fails_before_sampling(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampled before checking --out")

    monkeypatch.setattr(cli, "simulate_ensemble", never)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["simulate", "--paths", "1", "--out", str(target)])
    assert code == 1 and out == ""
    assert str(target) in err
    assert not (tmp_path / "missing").exists()


def test_out_onto_directory_is_usage_error(tmp_path):
    code, out, err = run_cli(["simulate", "--paths", "1", "--out", str(tmp_path)])
    assert code == 1 and out == "" and str(tmp_path) in err
    with pytest.raises(li.UsageError, match=str(tmp_path)):
        cli._emit(str(tmp_path), "simulate", {"seed": 0}, ("a",), [])


def test_factorization_repeated_grid_value_exits_two():
    code, out, err = run_cli(["experiment", "factorization", "--paths", "1000",
                              "--set", "study.beta_im=[0.2,0.5,0.2]"])
    assert code == 2 and out == ""
    assert "InvalidParameter" in err and "beta" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_seeded_invocations_are_byte_identical():
    argv = ["experiment", "convergence", "--seed", "42", "--paths", "1200"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_output_independent_of_worker_count(monkeypatch):
    argv = ["simulate", "--paths", "6", "--seed", "11", "--set", "grid.steps=4"]
    monkeypatch.setenv("LEVY_INFO_THREADS", "1")
    _, serial, _ = run_cli(argv)
    monkeypatch.setenv("LEVY_INFO_THREADS", "4")
    _, threaded, _ = run_cli(argv)
    assert serial == threaded


def test_set_does_not_leak_between_invocations():
    run_cli(["simulate", "--set", "model.family=Gamma",
             "--set", "model.params=[1.0,1.0]",
             "--set", "prior.atoms=[[0.5,1.0]]", "--paths", "1"])
    code, out, _ = run_cli(["simulate", "--paths", "1", "--seed", "0",
                            "--set", "grid.steps=2"])
    assert code == 0
    config = json.loads(out.splitlines()[2][len("# config: "):])
    assert config["model"] == {"family": "Brownian", "params": []}


def test_one_parser_serves_a_run_of_invocations():
    argvs = [
        ["simulate", "--paths", "2", "--set", "grid.steps=3"],
        ["simulate", "--set", "grid.steps"],
        ["filter", "--set", "grid.steps=5", "--weights"],
        ["experiment", "nosuch"],
        ["experiment", "esscher", "--paths", "2000", "--seed", "1"],
        ["--version"],
    ]
    first = []
    for argv in argvs:
        cli._parser.cache_clear()
        first.append(run_cli(argv))
    assert [code for code, _, _ in first] == [0, 1, 0, 1, 0, 0]
    cli._parser.cache_clear()
    assert [run_cli(argv) for argv in argvs] == first
    assert cli._parser() is cli._parser()


# ---------------------------------------------------------------------------
# configuration surface
# ---------------------------------------------------------------------------

def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"family": "Poisson", "params": [1.0]},
        "prior": {"atoms": [[0.0, 1.0], [0.6931471805599453, 1.0]]},
        "grid": {"t_max": 2.0, "steps": 4},
        "seed": 7,
    }))
    code, out, _ = run_cli(["simulate", "--config", str(cfg),
                            "--paths", "3", "--seed", "8"])
    assert code == 0
    config = json.loads(out.splitlines()[2][len("# config: "):])
    assert config["model"]["family"] == "Poisson"
    assert config["seed"] == 8          # flag beats file
    assert config["paths"] == 3
    assert config["grid"] == {"t_max": 2.0, "steps": 4}
    times = {line.split(",")[1] for line in out.splitlines()[5:]}
    assert times == {"0.0", "0.5", "1.0", "1.5", "2.0"}


def test_explicit_grid_times_gain_leading_zero():
    code, out, _ = run_cli(["simulate", "--set", "grid.times=[0.5,1.0]",
                            "--paths", "1", "--seed", "3"])
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[5:]] == \
        ["0.0", "0.5", "1.0"]


def test_density_recipes_build_valid_priors():
    code, out, _ = run_cli([
        "filter", "--seed", "1", "--set", "grid.steps=2",
        "--set", 'prior={"density":"uniform","lo":-1,"hi":1,"n":8}'])
    assert code == 0
    first = out.splitlines()[5].split(",")
    assert abs(float(first[2])) < 1e-12      # symmetric prior mean at t=0

    code, out, _ = run_cli([
        "filter", "--seed", "1", "--set", "grid.steps=2",
        "--set", 'prior={"density":"gaussian-truncated","lo":-2,"hi":2,"sd":0.7,"n":16}'])
    assert code == 0

    code, out, _ = run_cli([
        "filter", "--seed", "1", "--set", "grid.steps=2",
        "--set", "model.family=Gamma", "--set", "model.params=[1.0,1.0]",
        "--set", 'prior={"density":"gamma-shifted","theta":2.0,"r":3.0,"n":64}'])
    assert code == 0
    first = out.splitlines()[5].split(",")
    assert float(first[2]) == pytest.approx(-0.5, abs=1e-9)  # 1 - r/theta


UNIFORM = ["--set", "prior.density=uniform", "--set", "prior.lo=-3", "--set", "prior.hi=3"]


def test_density_set_by_user_replaces_default_atoms(tmp_path):
    argv = ["simulate", "--paths", "40", "--set", "grid.steps=1", "--seed", "2"]
    code, out, _ = run_cli([*argv, *UNIFORM])
    assert code == 0
    config = json.loads(out.splitlines()[2][len("# config: "):])
    assert config["prior"] == {"density": "uniform", "lo": -3, "hi": 3}
    hidden = {float(line.split(",")[3]) for line in out.splitlines()[5:]}
    assert len(hidden) > 2 and all(-3.0 < x < 3.0 for x in hidden)
    # the same recipe as one object, and from a config file
    _, whole, _ = run_cli([*argv, "--set", 'prior={"density":"uniform","lo":-3,"hi":3}'])
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"prior": {"density": "uniform", "lo": -3, "hi": 3}}))
    _, from_file, _ = run_cli([*argv, "--config", str(path)])
    assert out == whole == from_file


@pytest.mark.parametrize("extra", [
    ["--set", "prior.atoms=[[0.0,1.0]]"],
    ["--set", "prior.atoms=[[-1.0,0.5],[1.0,0.5]]"],  # equal to the default, still set by the user
])
def test_atoms_and_density_both_set_is_usage_error(extra):
    code, out, err = run_cli(["simulate", "--paths", "2", *UNIFORM, *extra])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("error: config key 'prior': ")


@pytest.mark.parametrize("command", [["simulate", "--paths", "2"], ["filter"], ["experiment", "esscher"]])
def test_negative_seed_exits_two_naming_seed(command):
    code, out, err = run_cli([*command, "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: InvalidParameter: ") and "seed" in err


def test_experiment_study_options_via_set():
    code, out, err = run_cli([
        "experiment", "esscher", "--paths", "4000", "--seed", "21",
        "--set", "model.family=Gamma", "--set", "model.params=[1.0,1.0]",
        "--set", "study.lambda=0.5", "--set", "study.t=1.0"])
    assert code == 0
    config = json.loads(out.splitlines()[2][len("# config: "):])
    assert config["study"]["lambda"] == 0.5
    rows = [line.split(",") for line in out.splitlines()[5:]]
    mean = next(r for r in rows if r[0] == "mean")
    assert abs(float(mean[1]) - 2.0) <= 4.0 * float(mean[3])


@pytest.mark.parametrize("assignment, key", [
    ("paths=2.5", "paths"), ("paths=true", "paths"), ("seed=1.5", "seed"),
    ("grid.steps=2.5", "steps"), ('prior={"density":"uniform","lo":-1,"hi":1,"n":7.5}', "n"),
])
def test_fractional_counts_are_usage_errors(assignment, key):
    code, out, err = run_cli(["simulate", "--set", "grid.steps=2", "--set", assignment])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: config key '") and f"{key} must be an integer" in err


def test_integral_json_number_counts_paths():
    code, out, err = run_cli(["simulate", "--set", "grid.steps=1", "--set", "paths=1e1"])
    assert code == 0, err
    assert len(out.splitlines()) == 5 + 10 * 2


# the resolved config of each study at its defaults, as `experiment <name>` writes it
STUDY_CONFIG_LINES = {
    "convergence": '{"grid":{"steps":100,"t_max":1.0},"model":{"family":"Brownian","params":[]},"paths":2000,'
                   '"prior":{"atoms":[[-1.0,0.5],[1.0,0.5]]},"seed":0,'
                   '"study":{"epsilon":0.5,"threshold":3.5,"times":[1.0,4.0,16.0]}}',
    "factorization": '{"grid":{"steps":100,"t_max":1.0},"model":{"family":"Brownian","params":[]},"paths":2000,'
                     '"prior":{"atoms":[[-1.0,0.5],[1.0,0.5]]},"seed":0,'
                     '"study":{"alpha_im":[0.3,0.6,0.9],"beta_im":[0.2,0.5,0.8],"t":1.0,"threshold":3.5}}',
    "esscher": '{"grid":{"steps":100,"t_max":1.0},"model":{"family":"Brownian","params":[]},"paths":2000,'
               '"prior":{"atoms":[[-1.0,0.5],[1.0,0.5]]},"seed":0,'
               '"study":{"lambda":0.25,"t":1.0,"threshold":3.5}}',
    "representation": '{"grid":{"steps":100,"t_max":1.0},"model":{"family":"VarianceGamma","params":[2.0]},'
                      '"paths":2000,"prior":{"atoms":[[-1.0,0.5],[1.0,0.5]]},"seed":0,'
                      '"study":{"t":1.0,"threshold":3.5,"x":0.5}}',
    "bridge": '{"grid":{"steps":100,"t_max":1.0},"model":{"family":"Gamma","params":[1.0,1.0]},"paths":2000,'
              '"prior":{"atoms":[[-1.0,0.5],[1.0,0.5]]},"seed":0,'
              '"study":{"horizon":2.0,"s":0.5,"t":1.0,"threshold":3.5,"x":0.3}}',
}


@pytest.mark.parametrize("name", list(STUDY_CONFIG_LINES))
def test_study_defaults_in_the_config_line(name):
    # the golden digests skip comment lines, so this pins each study's
    # option keys, defaults and default model
    code, out, err = run_cli(["experiment", name])
    assert code == 0, err
    assert out.splitlines()[2] == "# config: " + STUDY_CONFIG_LINES[name]


@pytest.mark.parametrize("name, first", [
    ("convergence", "times"), ("factorization", "alpha_im"), ("esscher", "lambda"),
    ("representation", "x"), ("bridge", "x"),
])
def test_empty_study_section_names_the_first_option(name, first):
    code, out, err = run_cli(["experiment", name, "--set", "study={}"])
    assert code == 1
    assert out == ""
    assert err == f"error: config key 'study.{first}': missing study option\n"
