"""Package-level boundaries: what importing loads, the environment, and
source rules the study modules keep."""

import ast
import contextlib
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import levy_info as li
from levy_info.cli import main
from levy_info.noise import _Family
from levy_info.rng import _RunStreams, worker_count
from conftest import FAMILY_PARAMS


@pytest.mark.parametrize("module", ["levy_info"] + [
    f"levy_info.{info.name}" for info in pkgutil.iter_modules(li.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(mod, name)] == []


DENSITY_RECIPES = (
    '{"density":"uniform","lo":-1,"hi":1,"n":8}',
    '{"density":"gaussian-truncated","mean":0,"sd":1,"lo":-3,"hi":3,"n":8}',
    '{"density":"gamma-shifted","theta":2,"r":3,"u_max":40,"n":8}',
)

# Every subcommand with every density recipe, and the characteristics of every
# family, then the scipy modules loaded: the package needs numpy alone.
SCIPY_PROBE = """
import contextlib, io, json, sys
import numpy as np
import levy_info as li
from levy_info.cli import main
from levy_info.noise import _FAMILIES
families, recipes = json.loads(sys.argv[1]), sys.argv[2:]
for command in (["simulate", "--paths", "3"], ["filter"], ["innovations"],
                ["experiment", "convergence", "--paths", "1000"]):
    for prior in recipes:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*command, "--set", "grid.steps=5", "--set", "prior=" + prior])
        assert code == 0, (command, prior)
for family, params in families.items():
    model = li.make_noise_model(family, params)
    for triplet in (li.characteristic_triplet(model), li.characteristic_triplet(li.esscher_transform(model, 0.1))):
        if _FAMILIES[model.family].density is not None:
            assert np.isfinite(triplet.levy_measure.density(np.array([-0.5, 0.5]))).all()
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


def test_import_leaves_scipy_unloaded():
    src = str(Path(li.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(FAMILY_PARAMS), *DENSITY_RECIPES],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_leaves_the_cli_and_its_formatter_unloaded():
    # the formatter's tables are built at first use, and nothing on the
    # import path of the package loads the command line
    src = str(Path(li.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, levy_info; "
             "print(sorted(m for m in ('levy_info.cli', 'levy_info._shortest') if m in sys.modules)); "
             "import levy_info.cli, levy_info._shortest as s; print(s._tables.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "0"]


def scipy_imports(source):
    """Lines of every ``import scipy...`` or ``from scipy... import``, in
    function bodies too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        if "scipy" in roots:
            found.append(node.lineno)
    return found


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy is a test extra
    assert {name: lines for name, source in package_sources().items() if (lines := scipy_imports(source))} == {}


def test_scipy_lint_sees_local_and_aliased_imports():
    source = ("import numpy as np, scipy.special as sp\n"
              "def f(z):\n"
              "    from scipy import special\n"
              "    return special.k1e(z)\n"
              "from .scipy_free import x\n"
              "from scipyx import y\n")
    assert scipy_imports(source) == [1, 3]


@pytest.mark.parametrize("raw, workers", [(None, 1), ("", 1), ("  ", 1), ("1", 1), (" 2 ", 2)])
def test_worker_count_reads_environment(raw, workers, monkeypatch):
    if raw is None:
        monkeypatch.delenv("LEVY_INFO_THREADS", raising=False)
    else:
        monkeypatch.setenv("LEVY_INFO_THREADS", raw)
    assert worker_count() == workers


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
def test_invalid_thread_count_raises(raw, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", raw)
    with pytest.raises(li.InvalidParameter, match="LEVY_INFO_THREADS"):
        worker_count()


@pytest.mark.parametrize("raw", ["abc", "0", "-2"])
def test_invalid_thread_count_exits_two(raw, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--paths", "2", "--set", "grid.steps=2"])
    assert code == 2
    assert "InvalidParameter" in err.getvalue() and "LEVY_INFO_THREADS" in err.getvalue()
    assert out.getvalue() == ""


@pytest.mark.parametrize("module", ["stats", "experiments"])
def test_study_modules_raise_to_no_power_but_two(module):
    # numpy's power leaves its SIMD path on signed input (about 50x slower
    # than x*x*x), so the study kernels write every other power as products
    path = Path(li.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if not (isinstance(exponent, ast.Constant) and exponent.value == 2):
                bad.append(f"{module}.py:{node.lineno}")
    assert bad == []


def names_used(source, names):
    """Sorted ``line: name`` of every import, call or other use of one of
    ``names``, bare, as an attribute or as a part of a module's dotted name."""
    used = []
    for node in ast.walk(ast.parse(source)):
        parts = (node.name.split(".") if isinstance(node, ast.alias)
                 else (node.module or "").split(".") if isinstance(node, ast.ImportFrom)
                 else [node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute) else [])
        used += [(node.lineno, name) for name in parts if name in names]
    return [f"{line}: {name}" for line, name in sorted(used)]


def experiments_source():
    return Path(li.__file__).with_name("experiments.py").read_text(encoding="utf-8")


def test_experiments_invert_no_path():
    # the studies count exceedances by comparing rates with psi0' at per-atom
    # thresholds; inverting psi0' on every path is the per-path work they avoid
    assert names_used(experiments_source(), {"inverse_marginal_clamped", "inverse_closed_form"}) == []


def test_studies_draw_only_through_the_chunk_keyed_samplers():
    # every study samples through simulate._fold_runs or representation_draws,
    # keyed by (seed, tag, chunk, interval); a stream or increment_draws of
    # its own in experiments.py is a second keying of the studies' draws, and
    # the whole (paths x grid) matrix of simulate_ensemble a second reader
    assert names_used(experiments_source(), {"stream", "increment_draws", "simulate_ensemble"}) == []


def test_cli_broadcasts_shared_cells_rather_than_copying_them():
    # a path id, time or message shared by many CSV rows is one cell that
    # cli._rows broadcasts into each row; a repeated or tiled copy is the
    # per-row storage the row matrix avoids
    source = Path(li.__file__).with_name("cli.py").read_text(encoding="utf-8")
    assert names_used(source, {"repeat", "tile"}) == []


def uses_outside_rng(names):
    """``names_used`` of each package module but ``rng.py`` that uses one of
    ``names``, after checking that ``rng.py`` does."""
    package = Path(li.__file__).parent
    used = {path.name: names_used(path.read_text(encoding="utf-8"), names) for path in sorted(package.glob("*.py"))}
    assert used.pop("rng.py") != []
    return {name: lines for name, lines in used.items() if lines}


def test_only_rng_builds_random_generators():
    # rng.stream_keys keys every stream and rng.keyed_stream or rng.stream
    # draws it; a SeedSequence, Philox or Generator elsewhere is a second scheme
    assert uses_outside_rng({"SeedSequence", "Philox", "Generator"}) == {}


def test_only_rng_starts_threads():
    # rng.map_ordered hands out work in item order, which keeps results and
    # errors independent of the worker count; a pool elsewhere is a second
    # scheduler, and per-thread state elsewhere ties results to the workers
    assert uses_outside_rng({"ThreadPoolExecutor", "Thread", "concurrent", "threading"}) == {}


def test_only_simulate_draws_keyed_streams():
    # rng.ensemble_streams lays out every ensemble's (seed, tag, chunk,
    # interval) streams; simulate._fold_runs is the one loop that samples
    # them, and representation_draws the one other keyed draw.  A key table,
    # a run or a block size anywhere else would be a second layout, and a
    # study drawing streams itself a second sampling loop
    assert uses_outside_rng({"_RunStreams", "stream_keys", "keyed_stream", "_BLOCK"}) == {}
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(li.__file__).parent.glob("*.py")}
    assert [name for name, src in sorted(sources.items()) if names_used(src, {"ensemble_streams"})] == ["simulate.py"]
    from_rng = [alias.name for node in ast.walk(ast.parse(sources["simulate.py"]))
                if isinstance(node, ast.ImportFrom) and node.module == "rng" for alias in node.names]
    assert sorted(from_rng) == ["ensemble_streams", "map_ordered"]


def generator_calls(source):
    """Sorted ``line: method`` of every call of a method of a name ``rng``."""
    calls = [(node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "rng"]
    return [f"{line}: {method}" for line, method in sorted(calls)]


def test_samplers_call_only_what_a_run_of_chunks_forwards():
    # an ensemble hands its samplers (their ``rng`` argument) a _RunStreams
    # when a run has two chunks or more; a method the facade lacks would fail
    # only there, and a method no sampler calls is dead weight in it
    package = Path(li.__file__).parent
    called = {line.split(": ")[1] for name in ("noise.py", "simulate.py")
              for line in generator_calls((package / name).read_text(encoding="utf-8"))}
    forwarded = {name for name, value in vars(_RunStreams).items() if callable(value) and not name.startswith("_")}
    assert called == forwarded == {"poisson", "random", "standard_gamma", "standard_normal"}


def test_generator_call_lint_sees_only_calls_on_rng():
    source = ("def f(x, rng, gen):\n"
              "    return rng.gamma(x, 1.0) + gen.random() + rng.lo\n"
              "g = lambda rng: rng.poisson(rng.random(3))\n")
    assert generator_calls(source) == ["2: gamma", "3: poisson", "3: random"]


def test_name_lint_sees_imports_calls_and_attributes():
    source = ("from .rng import stream\n"
              "from . import simulate as sim\n"
              "def f(seed):\n"
              "    return sim.increment_draws(M, 0.0, 1.0, stream(seed, 1), 3)\n"
              "draw = sim.increment_draws\n"
              "import concurrent.futures\n"
              "from concurrent.futures import wait\n")
    assert names_used(source, {"stream", "increment_draws", "concurrent"}) == [
        "1: stream", "4: increment_draws", "4: stream", "5: increment_draws", "6: concurrent", "7: concurrent"]


def family_comparisons(source):
    """Lines where ``fam``, ``family`` or ``<obj>.family`` is compared with a
    family constant, a canonical family name or a tuple of them, outside the
    allowed functions."""
    allowed = set()
    constants = {"BROWNIAN", "POISSON", "GAMMA", "VG", "NB", "IG", "NIG"}

    def is_family(node):
        return (isinstance(node, ast.Name) and node.id in {"fam", "family"}) or (
            isinstance(node, ast.Attribute) and node.attr == "family")

    def is_constant(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(map(is_constant, node.elts))
        return (isinstance(node, ast.Name) and node.id in constants) or (
            isinstance(node, ast.Constant) and node.value in li.FAMILIES)

    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Compare) and inside not in allowed:
            sides = [node.left, *node.comparators]
            if any(map(is_family, sides)) and any(map(is_constant, sides)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("module", ["noise", "simulate", "characteristics", "experiments"])
def test_families_are_defined_by_their_records(module):
    # each family is one record in noise._FAMILIES; a per-family if/elif
    # chain in these modules is a second definition
    path = Path(li.__file__).with_name(f"{module}.py")
    assert family_comparisons(path.read_text(encoding="utf-8")) == []


def test_family_lint_sees_a_chain():
    chain = ("def f(model):\n"
             "    fam = model.family\n"
             "    if fam == GAMMA:\n        return 1\n"
             "    if fam in (POISSON, NB):\n        return 2\n"
             "    if model.family != 'Brownian':\n        return 3\n"
             "def _rep_increments(model):\n"
             "    return model.family == VG\n")
    assert family_comparisons(chain) == [3, 5, 7, 10]


def constant_comparisons(source, names):
    """Lines where one of ``names``, or a tuple of them, is one side of a
    comparison."""
    def is_name(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(map(is_name, node.elts))
        return isinstance(node, ast.Constant) and node.value in names

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare) and any(map(is_name, [node.left, *node.comparators])))


def test_studies_and_density_recipes_are_defined_by_their_records():
    # each study is one entry of cli._STUDIES and each density recipe one of
    # cli._DENSITIES; a name compared in cli.py is a second definition
    from levy_info import cli

    names = set(cli._STUDIES) | set(cli._DENSITIES)
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert constant_comparisons(source, names) == []
    strings = [node.value for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Constant) and node.value in names]
    assert sorted(strings) == sorted(names)


def test_study_name_lint_sees_a_chain():
    chain = ("def run(name):\n"
             "    if name == 'bridge':\n        return 1\n"
             "    if name in ('esscher', 'representation'):\n        return 2\n"
             "    if 'uniform' != name:\n        return 3\n"
             "    return name == 'poisson'\n")
    assert constant_comparisons(chain, {"bridge", "esscher", "representation", "uniform"}) == [2, 4, 6]


def raised_names(source):
    """(line, name) of every ``raise Name(...)`` or ``raise Name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.append((node.lineno, exc.id))
    return found


def package_sources():
    """{file name: source} of every module of the package."""
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(li.__file__).parent.glob("*.py"))}


def raise_sites(name, sources):
    """``file:line`` of every ``raise name`` in a {file name: source} mapping."""
    return [f"{file}:{line}" for file, source in sources.items()
            for line, raised in raised_names(source) if raised == name]


def test_each_admissibility_check_is_written_once():
    # "is x in A" is noise._check_domain, "is xi on the support" is
    # noise.check_observation and "are the atoms admissible" is
    # prior.check_compatibility; a raise elsewhere is a second copy of a rule
    sources = package_sources()
    for name in ("OutOfDomain", "OffSupport"):
        sites = raise_sites(name, sources)
        assert len(sites) == 1 and sites[0].startswith("noise.py:"), sites
    assert {site.partition(":")[0] for site in raise_sites("IncompatibleSupport", sources)} == {"prior.py"}


def test_raise_lint_sees_both_forms():
    source = "def f():\n    raise OutOfDomain('x')\ndef g():\n    raise IncompatibleSupport\n"
    assert raised_names(source) == [(2, "OutOfDomain"), (4, "IncompatibleSupport")]


def test_raise_lint_counts_every_admissibility_site():
    sources = {"noise.py": "def f():\n    raise OutOfDomain('a')\ndef g():\n    raise OffSupport\n",
               "simulate.py": "def h(x):\n    if x:\n        raise OutOfDomain\n    raise OffSupport('b')\n"}
    assert raise_sites("OutOfDomain", sources) == ["noise.py:2", "simulate.py:3"]
    assert raise_sites("OffSupport", sources) == ["noise.py:4", "simulate.py:4"]


def test_degenerate_weights_is_raised_at_one_site():
    # the filter kernel filtering._log_weights is the one place that forms
    # posterior log-weights and finds them degenerate
    sites = raise_sites("DegenerateWeights", package_sources())
    assert len(sites) == 1 and sites[0].startswith("filtering.py:"), sites


def call_sites(name, source):
    """Lines of every call of ``name``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_the_batched_filter_has_one_block_loop():
    # filtering._each_block is the one loop over blocks of observations;
    # the posterior moments and expectations differ only in what each block
    # writes, and a second map_ordered would be a second copy of the kernel's loop
    assert len(call_sites("map_ordered", package_sources()["filtering.py"])) == 1


def test_call_lint_sees_bare_and_attribute_calls():
    source = "from .rng import map_ordered\nmap_ordered(f, r)\nrng.map_ordered(g, r)\nh = map_ordered\n"
    assert call_sites("map_ordered", source) == [2, 3]


def tag_comparisons(source):
    """Lines where a ``<obj>.tag`` is compared with a string or a collection of them."""
    def is_text(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(map(is_text, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(side, ast.Attribute) and side.attr == "tag" for side in sides) and any(
                    map(is_text, sides)):
                found.append(node.lineno)
    return sorted(found)


def test_characteristics_reads_measures_from_the_records():
    # what a Levy measure tag means is a field of its family record; a
    # string comparison on the tag is a per-family branch
    path = Path(li.__file__).with_name("characteristics.py")
    assert tag_comparisons(path.read_text(encoding="utf-8")) == []


def test_tag_lint_sees_every_form():
    source = ("def f(measure, m):\n"
              "    if measure.tag == 'nb':\n        return 1\n"
              "    if 'atoms' != m.tag:\n        return 2\n"
              "    if measure.tag in ('gamma', 'vg'):\n        return 3\n"
              "    return measure.tag in _DENSITIES\n")
    assert tag_comparisons(source) == [2, 4, 6]


def test_raise_lint_counts_every_degenerate_weights_site():
    source = "def f():\n    raise DegenerateWeights('a')\ndef g():\n    raise DegenerateWeights\n"
    assert [name for _, name in raised_names(source)] == ["DegenerateWeights"] * 2


def field_readers(source, fields):
    """{field: names of the functions that read ``<record>.field``}; None
    stands for a read outside any ``def``."""
    readers = {name: set() for name in fields}

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Attribute) and node.attr in readers:
            readers[node.attr].add(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), None)
    return readers


def test_each_exponent_quantity_is_one_function():
    # psi0 and the inverse of psi0' are each read from the family record by
    # one function, behind its check, and the three derivatives by
    # exponent_derivatives and by marginal_range, which takes psi0' at an end
    # of A; an unchecked twin of a checked function, or a stored copy of a
    # quantity derived from the record, is a second definition
    sources = package_sources()
    twins = [f"{file}:{node.lineno}: {node.name}" for file, source in sources.items()
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_unchecked")]
    assert twins == []
    readers = field_readers(sources["noise.py"], ("psi", "inverse", "derivatives"))
    assert readers.pop("derivatives") == {"exponent_derivatives", "marginal_range"}
    assert all(len(names) == 1 for names in readers.values()), readers
    assert [file for file, source in sources.items() if "range_lo" in source] == []
    # one record field returns all three derivatives
    fields = {f.name for f in dataclasses.fields(_Family)}
    assert "derivatives" in fields and not fields & {"dpsi", "d2psi", "d3psi"}


def test_field_reader_lint_sees_every_reader():
    source = ("def f(rec):\n    return rec.psi(1)\n"
              "def g(rec):\n    return rec.psi\n"
              "h = lambda rec: rec.inverse\n")
    assert field_readers(source, ("psi", "inverse")) == {"psi": {"f", "g"}, "inverse": {None}}


# public names that no module of the package and no demo loads, and why each stays
UNCALLED = {
    "characteristic_triplet": "the paper's per-family Levy-Khintchine data; its one reader is the independent "
                              "psi0 reference tests/levy_khintchine.py, which re-assembles every psi0 from it",
    "gamma_linear_filter": "the closed-form Gamma filter checked against the quadrature filter (C03); "
                           "it goes when a linear filter for every family replaces it",
}

# public members (dataclass fields and properties) that no module of the
# package and no demo reads, and why each stays
UNREAD = {
    "MessageEstimate.posterior_mean": "goes with estimate_message, whose one outside reader, the "
                                      "benchmark's path-filter check, reads only i0",
    "MessageEstimate.clamped": "goes with estimate_message, as posterior_mean",
    "LevyMeasure.atoms": "the atoms of an atomic Levy measure, read by the independent psi0 "
                         "reference tests/levy_khintchine.py",
    "CharacteristicTriplet.levy_measure": "read by tests/levy_khintchine.py, as LevyMeasure.atoms",
}


def names_loaded(source, kinds=(ast.Name, ast.Attribute)):
    """Every name that a node of ``kinds``, ``Name`` or ``Attribute``, loads;
    a definition, an import, an attribute store or a string in ``__all__`` is
    not a load."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)}


def caller_sources():
    """The source of every module of the package and every demo."""
    demos = Path(__file__).resolve().parents[1] / "demos"
    return [*package_sources().values(), *(path.read_text(encoding="utf-8") for path in sorted(demos.glob("*.py")))]


def test_every_public_name_has_a_caller():
    # a public name that nothing in the package or the demos loads is a
    # wrapper or a leftover; an error class that nothing raises is one too
    loaded = set().union(*map(names_loaded, caller_sources()))
    assert sorted(set(li.__all__) - loaded - set(UNCALLED)) == []
    # an allowlisted name that gains a caller leaves the list
    assert sorted(set(UNCALLED) & loaded) == [] and set(UNCALLED) <= set(li.__all__)


def public_members():
    """``Class.member`` for every dataclass field and property that a public
    class declares itself (an inherited one is its base's)."""
    classes = [obj for obj in map(li.__dict__.get, li.__all__) if isinstance(obj, type)]
    return {f"{cls.__name__}.{name}" for cls in classes
            for name in [*(vars(cls).get("__annotations__", {}) if dataclasses.is_dataclass(cls) else ()),
                         *(name for name, value in vars(cls).items() if isinstance(value, property))]}


def test_every_public_member_is_read():
    # a field or property that nothing in the package or the demos reads as an
    # attribute is a leftover; the lint matches by member name, not by class
    read = set().union(*(names_loaded(source, ast.Attribute) for source in caller_sources()))
    unread = {member for member in public_members() if member.split(".")[1] not in read}
    assert sorted(unread - set(UNREAD)) == []
    # an allowlisted member that gains a reader, or goes, leaves the list
    assert sorted(set(UNREAD) - unread) == []


def test_public_name_lint_sees_loads_but_not_definitions_or_imports():
    source = ("from .errors import OutOfRange, OffSupport\n"
              "__all__ = ['OutOfRange', 'OffSupport', 'check', 'Spare']\n"
              "class Spare(Exception):\n    pass\n"
              "def check(x, li):\n    if x < 0:\n        raise OffSupport(x)\n    return li.stream(x)\n")
    loaded = names_loaded(source)
    assert loaded & {"OutOfRange", "OffSupport", "check", "Spare", "stream"} == {"OffSupport", "stream"}
    # an attribute store is not a load; the object stored on is
    source = "def keep(self, atoms):\n    self.atoms = tuple(atoms)\n    self.count += 1\n    return self.n\n"
    assert names_loaded(source) & {"self", "atoms", "tuple", "count", "n"} == {"self", "atoms", "tuple", "n"}
    assert names_loaded(source, ast.Attribute) == {"n"}
