"""Golden SHA-256 digests of the CLI data lines.

Each digest covers every line that does not start with ``#`` (the CSV header
row and the data rows), so it pins which variate goes where and how every
number is printed.  A digest is recorded once, before the code it pins
changes.  A change that alters one changes the output and must say so; a
re-recorded case carries a comment saying why.  Every case runs at
``LEVY_INFO_THREADS`` 1 and 2, and the sizes span more than one sampler
chunk or filter block so that threading is exercised.
"""

import contextlib
import hashlib
import io

import pytest

from levy_info.cli import main

GAMMA = ["--set", "model.family=Gamma", "--set", "model.params=[1.0,1.0]",
         "--set", "prior.atoms=[[0.0,1.0],[0.5,1.0]]"]

CASES = {
    "simulate-gamma": (
        ["simulate", *GAMMA, "--paths", "4100", "--set", "grid.steps=3", "--seed", "3"],
        "0b92bc050221289cec328e1c6a0712a472d1ba6d6ab42d66cee94fb8576ae807",
    ),
    "simulate-brownian": (
        ["simulate", "--paths", "7", "--set", "grid.steps=9", "--seed", "4"],
        "1b367eb3bb018f83276eda8b5f9ab07f02cfb43403a390f1ef24ebdc9b8c6561",
    ),
    # the two samplers no other digest covers, and drifted Brownian and Gamma
    # runs that pin where each family adds its drift: inside the Brownian
    # mean (delta + x) dt, after the draw for the others
    "simulate-negative-binomial": (
        ["simulate", "--set", "model.family=NegativeBinomial", "--set", "model.params=[1.0,0.5]",
         "--set", "prior.atoms=[[-0.5,1.0],[0.3,1.0]]", "--paths", "4100", "--set", "grid.steps=3",
         "--seed", "13"],
        "0f37b6c5b8b34941bb78dbfbab3418fc74325977819e2108f5beebedf99f7c56",
    ),
    "simulate-normal-inverse-gaussian": (
        ["simulate", "--set", "model.family=NormalInverseGaussian", "--set", "model.params=[2.0,0.5,1.0]",
         "--set", "prior.atoms=[[-1.0,1.0],[0.7,1.0]]", "--paths", "4100", "--set", "grid.steps=3",
         "--seed", "14"],
        "8d15ea5f29ef3b7fd2b04535b19433fde66d60527c32fd791c1cf4394c9c2b3c",
    ),
    "simulate-brownian-drift": (
        ["simulate", "--set", "model.drift=0.3", "--set", "prior.atoms=[[-0.7,1.0],[1.3,1.0]]",
         "--paths", "4100", "--set", "grid.steps=3", "--seed", "15"],
        "1030fcf27988bcfa19ca7f9f9eafcb8ad16543318cfd09ea00744992c11ef35a",
    ),
    "simulate-gamma-drift": (
        ["simulate", "--set", "model.family=Gamma", "--set", "model.params=[1.0,1.0]", "--set", "model.drift=0.3",
         "--set", "prior.atoms=[[-0.5,1.0],[0.4,1.0]]", "--paths", "4100", "--set", "grid.steps=3",
         "--seed", "16"],
        "18400ea5bfbe5e058c82b9af69acd2fb26b880dd8a9b2a751654ffc0db0e3d35",
    ),
    # the three density digests were re-recorded when prior_from_density took
    # its Gauss-Legendre rule from numpy's leggauss instead of scipy's
    # roots_legendre: nodes and weights moved in the last bits, and with them
    # every filtered column, by at most 1.5e-14 of the column's scale
    "filter-weights": (
        ["filter", "--weights", "--set", "grid.steps=700", "--seed", "2",
         "--set", 'prior={"density":"uniform","lo":-1,"hi":1,"n":8}'],
        "51963464c735c9f259291ed2228fe0d993e1499731f95ab635dc65d9ef4722b1",
    ),
    # the other two density recipes: the bench's path-filter prior, and the
    # shifted-gamma message of the gamma channel
    "filter-gaussian-truncated": (
        ["filter", "--set", "grid.steps=700", "--seed", "17",
         "--set", 'prior={"density":"gaussian-truncated","mean":0.0,"sd":1.0,"lo":-3,"hi":3,"n":64}'],
        "5bb06730c145846e9c35323715b8e5d98583d7066a6c85b0a4e8bc7d087e0511",
    ),
    "filter-gamma-shifted": (
        ["filter", "--set", "model.family=Gamma", "--set", "model.params=[1.0,1.0]",
         "--set", "grid.steps=700", "--seed", "18",
         "--set", 'prior={"density":"gamma-shifted","theta":2.0,"r":3.0,"u_max":40.0,"n":64}'],
        "1725818c7d88a54844a51e8f2c8d56bc2abd350ae31cf5199d0dd15b35899e6d",
    ),
    "innovations": (
        ["innovations", *GAMMA, "--set", "grid.steps=600", "--seed", "5"],
        "921996bc3221be7bf6f893dc20865c01af90a3c048afef4f5b03dd84b6347fb0",
    ),
    "experiment-convergence": (
        ["experiment", "convergence", "--paths", "5000", "--seed", "42"],
        "e96b85dc5f66d02cb105b6e0cd232b8f5462f928436752cda8665c9bb8e144e2",
    ),
    # the exceedance thresholds at a rate of 0, clamped to I0 = -inf, and at
    # the closed InverseGaussian end x - eps = 0, clamped to I0 = 0
    "experiment-convergence-poisson": (
        ["experiment", "convergence", "--set", "model.family=Poisson", "--set", "model.params=[1.0]",
         "--set", "prior.atoms=[[0.0,0.5],[0.6931471805599453,0.5]]", "--set", "study.times=[0.25,1,4]",
         "--paths", "5000", "--seed", "11"],
        "6804667baad14dd06654641ce77696138261ef77da4c4768d1a8ecbd20478ab2",
    ),
    "experiment-convergence-inverse-gaussian": (
        ["experiment", "convergence", "--set", "model.family=InverseGaussian", "--set", "model.params=[1.0,2.0]",
         "--set", "prior.atoms=[[0.5,0.5],[1.0,0.5]]", "--set", "study.times=[0.25,1,4]",
         "--paths", "5000", "--seed", "12"],
        "5f3e12e84d5ff61bb0e5a27737f3eef332a30abbec13ab04aa2700fda99408e4",
    ),
    # re-recorded when the pair samples became exp(alpha xi) * exp(beta x)
    # instead of exp(alpha xi + beta x): the cf_* rows moved in the last bits
    "experiment-factorization": (
        ["experiment", "factorization", "--paths", "5000", "--seed", "7"],
        "aa6cab2e42c2c89a06c76a36728deafa9800611b9e5d1d689459c04c6cd22da9",
    ),
    # re-recorded when the weighted variance took the divisor n - 1 of the
    # direct one (only the variance row's reference, stderr and z moved), and
    # again when both sides came to be drawn by simulate_ensemble at tag 1,
    # keyed by (seed, tag, chunk, interval), in place of one stream (seed, 1)
    "experiment-esscher": (
        ["experiment", "esscher", "--paths", "5000", "--seed", "8"],
        "d0a8864beb650835bb6ec21f04dd9f2ac44af78dea81d3cbf9b8baf0d97348eb",
    ),
    # pins the cumulant kernels' product-form cubes through its k3[...] rows
    "experiment-representation": (
        ["experiment", "representation", "--paths", "20000", "--seed", "3"],
        "0e84cb74627f0648374d747b337a54e08a44c54277678045fd25dc2aedac7fdf",
    ),
    # re-recorded when the bridge came to be drawn by one simulate_ensemble
    # at tag 2 on the bridge clock, in place of the streams (seed, 1) and
    # (seed, 2), one per interval
    "experiment-bridge": (
        ["experiment", "bridge", "--paths", "5000", "--seed", "6"],
        "bda8a6f013b86d5267c0c4180844bbbb56660740714996bbf3f9027e4fc16e54",
    ),
}


def data_digest(text):
    data = [line for line in text.splitlines(keepends=True) if not line.startswith("#")]
    return hashlib.sha256("".join(data).encode()).hexdigest()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_data_lines_match_golden_digest(name, threads, monkeypatch):
    argv, digest = CASES[name]
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert data_digest(out) == digest


def test_out_file_matches_stdout(tmp_path):
    argv, digest = CASES["simulate-gamma"]
    target = tmp_path / "paths.csv"
    code, out, _ = run_cli([*argv, "--out", str(target)])
    assert code == 0 and out == ""
    with open(target, "r", encoding="utf-8", newline="") as fh:
        assert data_digest(fh.read()) == digest
