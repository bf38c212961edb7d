"""Scenario files, artifact export, and the command-line interface."""
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from fjpower import (
    CONVERGED,
    DIVERGED,
    NONFINITE,
    ConfigParseError,
    ConfigValidationError,
    MAX_ITER,
    Trajectory,
    load_scenario,
    one_step_invariance_test,
    run_reports,
    run_scenario,
    solve_equilibrium,
    star_equilibrium_closed_form,
    star_invariant_box,
    validate_arrays,
    write_trajectory_csv,
)
from fjpower import analysis, cli, network, scenario
from fjpower.cli import _build_parser, main
from fjpower.scenario import MODES, ScenarioResult, _csv_steps

from conftest import SCENARIO_DIR, random_network
from test_fj_core import ANCHORED_POWER_EQ, TRIAD_POWER

ALL_SCENARIOS = sorted(SCENARIO_DIR.rglob("*.yaml"))


def _write(tmp_path, text, name="case.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _batch(capsys, directory, out, code=1) -> str:
    """What ``fjpower batch DIRECTORY --out OUT`` prints, once it has exited with ``code``."""
    assert main(["batch", str(directory), "--out", str(out)]) == code
    return capsys.readouterr().out


MINIMAL = """\
name: case
network:
  C:
    - [0.0, 1.0]
    - [1.0, 0.0]
  a: [0.5, 0.5]
mode: perception_ra
initial:
  p0: [0.5, 0.5]
"""
ROWS = "\n    - [0.0, 1.0]\n    - [1.0, 0.0]"
# a 10 kB file whose C nests 5000 flow sequences
DEEP = MINIMAL.replace(ROWS, " " + "[" * 5000 + "]" * 5000)
# a 0.5 MB file whose C nests 1000 block sequences by indentation alone,
# each "-" one column right of the last, which the nesting guard counts as it
# counts brackets
DEEP_INDENTED = MINIMAL.replace(ROWS, "".join(f"\n{' ' * (4 + k)}-" for k in range(1000)) + " 0")


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
def test_every_bundled_scenario_loads(path):
    scn = load_scenario(path)
    assert scn.name == path.stem
    assert scn.mode in MODES
    if scn.mode != "social_power":
        assert scn.starts


# each loader a file may be parsed with, by test id: the one the package
# chose, and PyYAML's pure-Python SafeLoader; a child process gets its __name__
LOADERS = {"chosen": scenario.YAML_LOADER, "SafeLoader": yaml.SafeLoader}


@pytest.fixture(params=list(LOADERS.values()), ids=list(LOADERS))
def loader(request, monkeypatch):
    """Each loader of LOADERS, patched in as scenario.YAML_LOADER."""
    monkeypatch.setattr(scenario, "YAML_LOADER", request.param)
    return request.param


def test_the_loader_is_libyaml_when_pyyaml_has_it():
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario.YAML_LOADER is want


def _vec(values) -> str:
    return "[" + ", ".join(repr(float(x)) for x in values) + "]"


def _generated_text(rng, name, mode, n, density=1.0) -> str:
    """A scenario written as the benchmark generates them: flow-style rows of
    full-precision floats and every output kind."""
    net = random_network(rng, n, density=density)
    lines = [f"name: {name}", "network:", "  C:"]
    lines += [f"    - {_vec(row)}" for row in net.C]
    lines.append(f"  a: {_vec(net.a)}")
    if mode in scenario.GAMMA_MODES:
        lines.append(f"gamma: {_vec(rng.uniform(0.0, 0.5, size=n))}")
    lines.append(f"mode: {mode}")
    if mode != "social_power":
        lines += ["initial:", f"  p0: {_vec(rng.dirichlet(np.ones(n)))}"]
    lines += ["outputs:", "  - trajectory_csv", "  - equilibrium_report",
              "  - condition_report: [incoming_influence_cap, democracy, uniform_gain_cap]",
              "  - invariant_test: {samples: 1000, box: nonneg}"]
    return "\n".join(lines) + "\n"


def _fingerprint(scn):
    """A loaded scenario's settings, with its arrays as raw bytes."""
    arrays = (scn.net.C, scn.net.a, scn.gamma) + scn.starts
    return (scn.name, scn.mode, scn.tol, scn.max_iter, scn.seed, scn.outputs,
            [None if x is None else x.tobytes() for x in arrays])


def test_both_loaders_read_every_scenario_alike(tmp_path, monkeypatch):
    # CI runners have libyaml, so this and the next test are where the
    # pure-Python fallback runs
    rng = np.random.default_rng(3)
    generated = [_write(tmp_path, _generated_text(rng, f"gen_{mode}_{n}", mode, n),
                        name=f"gen_{mode}_{n}.yaml")
                 for mode, n in (("social_power", 2), ("perception_no_ra", 14),
                                 ("fj_opinions", 22), ("distributed_ra", 60))]
    for path in ALL_SCENARIOS + generated:
        loaded = []
        for loader in LOADERS.values():
            monkeypatch.setattr(scenario, "YAML_LOADER", loader)
            loaded.append(load_scenario(path))
        assert _fingerprint(loaded[0]) == _fingerprint(loaded[1]), path
    assert loaded[0].net.n == 60


BASE_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

# plain scalars of every implicit type, quoted and tagged ones, an alias and
# float keys; most texts repeat, as 0.0 does in the rows of C
TRICKY = """\
plain: [0.0, -0.0, .inf, -.inf, .nan, .NaN, 1_000.5, 1:30.5, 0x1F, 017, 0o17, 1e3, 1.0e3,
        '0.0', "0.5", !!float "2", !!str 0.5, yes, no, null, ~, 5e-324, +1.5, .5]
again: [0.0, -0.0, .inf, .nan, 1e3, 1.0e3, '0.0', 0.5, !!float "2", yes, ~, 017]
anchored: &x 0.25
aliases: [*x, *x, 0.25]
float_keys: {0.5: a, .inf: b, 1.5: c, 1_000.5: d, 1e3: e}
nested: {rows: [[0.0, 0.5], [0.5, 0.0]], 0.5: [-0.0, -0.0]}
empty:
"""


def _same(x, y) -> bool:
    """Whether two loaded documents match in type, key order and float bits."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return len(x) == len(y) and all(
            _same(kx, ky) and _same(vx, vy) for (kx, vx), (ky, vy) in zip(x.items(), y.items()))
    if isinstance(x, list):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, float):
        return math.copysign(1.0, x) == math.copysign(1.0, y) and (
            x == y or math.isnan(x) and math.isnan(y))
    return x == y


@pytest.mark.parametrize("base", BASE_LOADERS, ids=lambda loader: loader.__name__)
def test_the_scenario_loader_reads_what_pyyaml_reads(base):
    """Resolving and converting each distinct scalar once per document
    changes no value, type, float bit or key order."""
    loader = scenario._scenario_loader(base)
    sparse = _generated_text(np.random.default_rng(5), "sparse", "perception_no_ra", 40,
                             density=0.1)
    assert sparse.count(" 0.0,") > 1000
    texts = [path.read_text() for path in ALL_SCENARIOS] + [sparse, TRICKY]
    def mutable():
        return {name: len(value) for klass in loader.__mro__
                for name, value in vars(klass).items() if isinstance(value, (dict, list))}

    before = mutable()
    for text in texts:
        assert _same(yaml.load(text, Loader=loader), yaml.load(text, Loader=base))
    assert mutable() == before  # the memos live on each loader, not on its class
    doc = yaml.load(TRICKY, Loader=loader)
    # YAML 1.1: 1:30.5 is base 60, 017 octal; 1e3 (no dot) and 0o17 stay strings
    assert doc["plain"][6:12] == [1000.5, 90.5, 31, 15, "0o17", "1e3"]
    assert doc["aliases"][0] is doc["aliases"][1] == doc["anchored"] == 0.25
    assert str(doc["again"][:4]) == "[0.0, -0.0, inf, nan]" and doc["empty"] is None

    def error(text, cls):
        try:
            yaml.load(text, Loader=cls)
        except Exception as exc:  # whatever PyYAML raises, type and text are compared
            return type(exc), str(exc)

    assert error("x: !!float [0.5]", loader) == error("x: !!float [0.5]", base) is not None
    # what SafeConstructor raises outside YAMLError becomes one naming the tag and place
    for text, slip in (("x: !!float abc", ValueError), ("x: !!float ''", IndexError)):
        assert error(text, base)[0] is slip
        kind, message = error(text, loader)
        assert kind is yaml.constructor.ConstructorError
        assert message.startswith(
            f"cannot build tag:yaml.org,2002:float on line 1, column 4: {slip.__name__}: ")
    for text, where in (("a: 1\nb: 2\na: 3\n", "'a' on line 3, first given on line 1"),
                        ("{0.5: a, 1: b, 0.5: c}", "0.5 on line 1, first given on line 1")):
        with pytest.raises(yaml.constructor.ConstructorError,
                           match=re.escape(f"repeated key {where}")):
            yaml.load(text, Loader=loader)


# Each level of these takes one C call in libyaml's composer, which kills the
# process (SIGSEGV) at 30 000 levels on an 8 MB stack, so they load in a child.
LOAD_IN_CHILD = """\
import sys, yaml
from fjpower import load_scenario, scenario
scenario.YAML_LOADER = getattr(yaml, sys.argv[1])
for path in sys.argv[2:]:
    try:
        load_scenario(path)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


def _deeper_files(tmp_path, levels=50_000) -> list[Path]:
    (tmp_path / "scn").mkdir()
    texts = {"compact": "\n    " + "- " * levels + "0",
             "flow": " " + "[" * levels + "0" + "]" * levels}
    return [_write(tmp_path / "scn", MINIMAL.replace("case", shape).replace(ROWS, rows),
                   name=f"{shape}.yaml") for shape, rows in texts.items()]


def _child(*args, timeout=None, **env) -> subprocess.CompletedProcess:
    src = str(Path(scenario.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path, **env})


def test_nesting_past_the_limit_is_a_parse_error_under_both_loaders(tmp_path, loader):
    """Flow nesting and compact block nesting 50 000 levels deep."""
    paths = _deeper_files(tmp_path)
    child = _child("-c", LOAD_IN_CHILD, loader.__name__, *map(str, paths))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        f"ConfigParseError: {path}: collections nest deeper than 100 levels" for path in paths]


def test_cli_refuses_nesting_past_the_limit_and_batch_goes_on(tmp_path):
    paths = _deeper_files(tmp_path)
    _write(tmp_path / "scn", MINIMAL.replace("case", "ok"), name="ok.yaml")
    for path in paths:
        child = _child("-m", "fjpower.cli", "run", str(path), "--out", str(tmp_path / "out"))
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == f"error: {path}: collections nest deeper than 100 levels\n"
    child = _child("-m", "fjpower.cli", "batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out"))
    lines = child.stdout.splitlines()
    assert child.returncode == 1, child.stderr
    assert [line.split(":")[0] for line in lines] == ["compact", "flow", "ok"]
    assert all("ConfigParseError" in line and "nest deeper" in line for line in lines[:2])
    assert lines[2].startswith("ok: converged")


def _chained(lines: int) -> str:
    """MINIMAL with C nested ``99 * lines`` block sequences deep by lines of 99
    compact indicators, each line but the last ending in ``-`` and the next
    indented past it, so no line holds more than MAX_NESTING indicators."""
    rows = [" " * (4 + 198 * k) + "- " * 98 + ("- 0" if k == lines - 1 else "-")
            for k in range(lines)]
    return MINIMAL.replace(ROWS, "\n" + "\n".join(rows))


def test_long_lines_of_spaces_or_a_comment_do_not_nest(tmp_path, loader):
    """A file with as many indicators as row ``chained_297`` of UNRUNNABLE
    (297 levels on 3 lines) whose long lines hold only spaces, or a comment,
    loads."""
    starts = "  p0:\n" + "    - [0.5, 0.5]\n" * 150 + " " * 300 + "\n" + " " * 300 + "# note\n"
    scn = load_scenario(_write(tmp_path, MINIMAL.replace("  p0: [0.5, 0.5]\n", starts)))
    assert len(scn.starts) == 150


def test_indicators_chained_deep_enough_to_crash_are_refused_in_a_child(tmp_path):
    """About 31 700 levels on 320 lines (10 MB), which killed libyaml's composer."""
    path = _write(tmp_path, _chained(320), name="chained.yaml")
    for loader in LOADERS.values():
        child = _child("-c", LOAD_IN_CHILD, loader.__name__, str(path))
        assert (child.returncode, child.stdout) == (
            0, f"ConfigParseError: {path}: collections nest deeper than 100 levels\n"), child.stderr
    child = _child("-m", "fjpower.cli", "run", str(path), "--out", str(tmp_path / "out"))
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == f"error: {path}: collections nest deeper than 100 levels\n"


def _nested(levels: int, shape: str) -> str:
    """A document whose scalar ``0`` sits inside ``levels`` collections, the
    top-level mapping included, nested by flow brackets, by compact ``- ``
    indicators on one line or by indentation alone."""
    inner = levels - 1
    return "x:" + {"flow": " " + "[" * inner + "0" + "]" * inner,
                   "compact": "\n  " + "- " * inner + "0",
                   "indented": "".join(f"\n{' ' * (2 + k)}-" for k in range(inner)) + " 0"}[shape]


def test_nesting_is_counted_as_pyyaml_composes_it(tmp_path, loader):
    """Brackets and indicators in a comment do not count, and nesting by
    indentation does: 100 collections around a scalar load, 101 do not (rows
    ``C_nested_100`` and ``C_nested_101`` of UNRUNNABLE put the bound in C)."""
    bundled = SCENARIO_DIR / "three_node_ra.yaml"
    for comment in ("[" * 150, "- " * 120):
        path = _write(tmp_path, bundled.read_text() + f"# {comment}\n", name=bundled.name)
        assert _fingerprint(load_scenario(path)) == _fingerprint(load_scenario(bundled))
    value = 0
    for _ in range(99):
        value = [value]
    for shape in ("flow", "compact", "indented"):
        assert yaml.load(_nested(100, shape), Loader=scenario._scenario_loader(loader)) == {
            "x": value}
        with pytest.raises(yaml.composer.ComposerError,
                           match="^collections nest deeper than 100 levels$"):
            yaml.load(_nested(101, shape), Loader=scenario._scenario_loader(loader))


def _c_nested(levels: int) -> str:
    """MINIMAL with C's first entry inside ``levels`` collections, the
    top-level mapping and network included."""
    return MINIMAL.replace(ROWS, " " + "[" * (levels - 2) + "0" + "]" * (levels - 2))


def _merge_file(k: int, m: int) -> str:
    """MINIMAL with a mapping of ``k`` keys, anchored, and a mapping whose
    merge key holds ``m`` aliases to it: PyYAML splices in m * k pairs."""
    keys = ", ".join(f"k{i}: 0" for i in range(k))
    return MINIMAL + f"x: &a {{{keys}}}\ny: {{<<: [{', '.join(['*a'] * m)}]}}\n"


def _built(monkeypatch) -> list:
    """The names of PyYAML's construct_document and flatten_mapping calls
    from here on, in call order."""
    calls = []
    for owner, name in ((yaml.constructor.BaseConstructor, "construct_document"),
                        (yaml.constructor.SafeConstructor, "flatten_mapping")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, node, method=method, name=name:
                            calls.append(name) or method(self, node))
    return calls


def test_merge_keys_that_splice_past_the_file_size_are_refused_at_once(
        tmp_path, monkeypatch, loader):
    """k = m = 2000 (27 kB) would splice 4 * 10**6 pairs, which took 5.5 s
    under libyaml.  Its composed nodes hold 8 * 10**6 scalars once the
    aliases are expanded, so it gets the alias bound's message as soon as it
    is composed (the pure-Python composer alone takes about 0.2 s), before
    PyYAML constructs or flattens anything.  The bound is exact, and merges
    under it load like their written-out forms."""
    text = _merge_file(2000, 2000)
    path = _write(tmp_path, text)
    message = f"{path}: aliases expand to more than {len(text)} scalars, one per character"
    calls = _built(monkeypatch)
    compose_s, refuse_s = [], []
    for _ in range(3):
        start = time.perf_counter()
        yaml.compose(text, Loader=loader)
        compose_s.append(time.perf_counter() - start)
        with pytest.raises(ConfigParseError, match=re.escape(message)):
            load_scenario(path)
        refuse_s.append(time.perf_counter() - start - compose_s[-1])
    assert calls == []
    assert min(refuse_s) < min(compose_s) + 0.1, (refuse_s, compose_s)
    # written out, a merge file holds MINIMAL's scalars, x, its k keys and k
    # values, y, its `<<` key and m copies of x's pairs: k = 20 passes at m = 6,
    # not 7 (row merge_past_bound of UNRUNNABLE)
    base = _written_out(yaml.load(MINIMAL, Loader=loader)) + 3
    under, over = _merge_file(20, 6), _merge_file(20, 7)
    for m, text in ((6, under), (7, over)):
        scalars = base + 2 * 20 * (1 + m)
        root = yaml.compose(text, Loader=loader)
        assert not scenario._expands_past(root, scalars)
        assert scenario._expands_past(root, scalars - 1)
        assert (scalars <= len(text)) == (m == 6)
    with pytest.raises(ConfigValidationError, match="case: unknown key 'x'"):  # built, then checked
        load_scenario(_write(tmp_path, under, name="under.yaml"))
    assert calls[0] == "construct_document" and "flatten_mapping" in calls
    doc = yaml.load(under, Loader=scenario._scenario_loader(loader))
    assert doc["y"] == doc["x"] == {f"k{i}": 0 for i in range(20)}
    merged = MINIMAL + ("outputs:\n  - invariant_test: &t {samples: 10, box: nonneg}\n"
                        "  - invariant_test: {<<: *t, box: two_sided}\n")
    written = merged.replace(" &t", "").replace("<<: *t", "samples: 10")
    scn = load_scenario(_write(tmp_path, merged, name="merged.yaml"))
    assert [(out.samples, out.box) for out in scn.outputs] == [(10, "nonneg"), (10, "two_sided")]
    assert _fingerprint(scn) == _fingerprint(load_scenario(_write(tmp_path, written)))


def test_keys_a_merge_key_brings_in_may_be_overridden(loader):
    """YAML says the mapping's own keys win; the ``*_repeated`` rows of
    UNRUNNABLE are keys repeated in one mapping, which the loader refuses."""
    merged = yaml.load("base: &b {x: 1, y: 2}\nuse: {<<: *b, y: 3}\n",
                       Loader=scenario._scenario_loader(loader))
    assert merged == {"base": {"x": 1, "y": 2}, "use": {"x": 1, "y": 3}}


def _alias_levels(levels: int, name="bomb") -> str:
    """A scenario whose C holds ``levels`` lists, each of ten aliases to the
    one before: 10**levels scalars once expanded, from a file of a few
    hundred bytes."""
    rows = ["    - &l1 [" + ", ".join(["0.5"] * 10) + "]"]
    rows += [f"    - &l{k} [" + ", ".join([f"*l{k - 1}"] * 10) + "]"
             for k in range(2, levels + 1)]
    return MINIMAL.replace("case", name).replace(ROWS, "\n" + "\n".join(rows))


def test_aliases_that_expand_past_the_file_size_are_refused_at_once(
        tmp_path, monkeypatch, loader):
    """Seven levels, 10**7 scalars, would cost numpy about half a second and
    185 MB to expand before its shape error; a list that holds itself
    expands without end.  Both are refused on the composed nodes, before
    PyYAML constructs anything."""
    path = _write(tmp_path, _alias_levels(7))
    message = f"{path}: aliases expand to more than {len(path.read_text())} scalars"
    asked = []  # the arrays asked of numpy: none, as the walk refuses the file first
    asarray = scenario.np.asarray
    monkeypatch.setattr(scenario.np, "asarray",
                        lambda *args, **kwargs: asked.append(1) or asarray(*args, **kwargs))
    calls = _built(monkeypatch)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(ConfigParseError, match=re.escape(message)):
            load_scenario(path)
        times.append(time.perf_counter() - start)
    assert not asked
    assert min(times) < 0.1, times  # a few ms; the expansion it spares takes 0.5 s
    looped = _write(tmp_path, MINIMAL.replace(ROWS, " &c [*c, [1.0, 0.0]]"), name="looped.yaml")
    with pytest.raises(ConfigParseError, match=re.escape(
            f"looped.yaml: aliases expand to more than {len(looped.read_text())} scalars, "
            "one per character of the file")):
        load_scenario(looped)
    assert calls == []
    load_scenario(_write(tmp_path, MINIMAL, name="valid.yaml"))
    assert asked and calls[0] == "construct_document" and "flatten_mapping" in calls
    # 2000 aliases to one 2000-item list: the walk counts the list once, not
    # once an alias (which took 0.4 s), so the refusal follows the compose
    items = ", ".join(["0.5"] * 2000)
    text = f"x: &a [{items}]\ny: [{', '.join(['*a'] * 2000)}]\n"
    shared = _write(tmp_path, text, name="shared.yaml")
    walk_s = []
    for _ in range(3):
        start = time.perf_counter()
        yaml.compose(text, Loader=loader)
        compose_s = time.perf_counter() - start
        with pytest.raises(ConfigParseError, match="shared.yaml: aliases expand to more than"):
            load_scenario(shared)
        walk_s.append(time.perf_counter() - start - 2 * compose_s)
    assert min(walk_s) < 0.1, walk_s


def test_aliases_expanding_to_a_billion_scalars_are_refused_in_a_capped_child(tmp_path):
    """Nine levels: each level multiplies time and memory by about ten, so
    expanding them would ask numpy for tens of GB; the child's address space
    is capped at 1 GB (an rlimit on that one process)."""
    path = _write(tmp_path, _alias_levels(9))
    assert len(path.read_text()) < 700
    capped = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n") + LOAD_IN_CHILD
    for loader in LOADERS.values():
        child = _child("-c", capped, loader.__name__, str(path), OPENBLAS_NUM_THREADS="1")
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith(f"ConfigParseError: {path}: aliases expand to more than")


def _anchored_p0(text: str, rows: int = 3) -> str:
    """``text`` with its one ``p0`` vector given once, anchored, then reused."""
    vector = re.search(r"  p0: (\[.*\])\n", text).group(1)
    reused = "  p0:\n    - &p0 " + vector + "\n" + "    - *p0\n" * (rows - 1)
    return text.replace(f"  p0: {vector}\n", reused)


def test_files_the_alias_bound_must_pass(tmp_path, loader):
    """Every bundled file and a generated one hold fewer scalars than
    characters, so the bound cannot refuse them even when the walk runs; a
    generated file that reuses an anchored start loads as if written out."""
    generated = _generated_text(np.random.default_rng(9), "gen", "distributed_no_ra", 60)
    for text in [path.read_text() for path in ALL_SCENARIOS] + [generated]:
        assert not scenario._expands_past(yaml.compose(text, Loader=loader), len(text))
    anchored = _anchored_p0(generated)
    assert anchored.count("*p0") == 2
    scn = load_scenario(_write(tmp_path, anchored, name="gen.yaml"))
    plain = load_scenario(_write(tmp_path, generated, name="plain.yaml"))
    assert len(scn.starts) == 3 and all(
        start.tobytes() == plain.starts[0].tobytes() for start in scn.starts)
    assert _fingerprint(replace(scn, starts=plain.starts)) == _fingerprint(plain)
    # the walk's count on the composed nodes is the written-out document's, to the scalar
    for text in (anchored, _alias_levels(3), "[[], {}, &e [], *e, [*e]]"):
        root = yaml.compose(text, Loader=loader)
        total = _written_out(yaml.load(text, Loader=loader))
        assert not scenario._expands_past(root, total)
        assert scenario._expands_past(root, total - 1)


def _written_out(x) -> int:
    """The scalars of ``x`` counted as if every alias were written out, an
    empty list or mapping as one."""
    if isinstance(x, dict):
        x = [*x, *x.values()]
    if not isinstance(x, list):
        return 1
    return sum(map(_written_out, x)) or 1


# scalar positions in the bundled files: after a key, a list dash, a bracket or a comma
SCALAR = re.compile(r"(?:(?<=: )|(?<=- )|(?<=\[)|(?<=, ))[^\s,\[\]{}#:]+")
TAGS = ("float", "int", "bool", "timestamp", "binary", "map", "set")


def _splice(rng, value: str, k: int, anchors: list) -> str:
    """A tag, an empty scalar, an anchor or an alias in place of ``value``."""
    kind = int(rng.integers(4))
    if kind == 0:  # a tag on the value or on an empty scalar
        return f"!!{TAGS[int(rng.integers(len(TAGS)))]} " + (value if rng.random() < 0.5 else "''")
    if kind == 1:
        return ("''", "")[int(rng.integers(2))]
    if kind == 2 or not anchors:
        anchors.append(f"s{k}")
        return f"&s{k} {value}"
    return "*" + (anchors[int(rng.integers(len(anchors)))] if rng.random() < 0.9 else "nowhere")


def _mutants(rng, count: int = 100) -> list[str]:
    """``count`` texts from the bundled files, each with one to three scalars
    replaced by a tag, an empty scalar, an anchor or an alias (to an earlier
    anchor, which may be a flow list, or to none)."""
    texts = [path.read_text() for path in ALL_SCENARIOS]
    mutants = []
    for m in range(count):
        text, anchors = texts[m % len(texts)], []
        if rng.random() < 0.3:  # anchor the first flow list, for an alias to expand
            text, anchors = text.replace(": [", ": &L [", 1), ["L"]
        spots = [match.span() for match in SCALAR.finditer(text)]
        picked = sorted(rng.choice(len(spots), size=int(rng.integers(1, 4)), replace=False))
        pieces, last = [], 0
        for k, index in enumerate(picked):
            start, end = spots[index]
            pieces += [text[last:start], _splice(rng, text[start:end], k, anchors)]
            last = end
        mutants.append("".join(pieces) + text[last:])
    return mutants


LOAD_ALL_IN_CHILD = """\
import sys, yaml
from fjpower import FJPowerError, load_scenario, scenario
ends = {}
for loader in sys.argv[1].split(","):
    scenario.YAML_LOADER = getattr(yaml, loader)
    for path in sys.argv[2:]:
        try:
            load_scenario(path)
            end = "Scenario"
        except FJPowerError as exc:
            end = type(exc).__name__
        ends[end] = ends.get(end, 0) + 1
print(sorted(ends.items()))
"""


def test_mutated_bundled_files_end_in_a_scenario_or_a_config_error(tmp_path):
    """A seeded fuzz of 100 texts, each loaded under both loaders in one
    child: anything else, a traceback, a signal or a run past 60 s, fails."""
    paths = [_write(tmp_path, text, name=f"m{k:03d}.yaml")
             for k, text in enumerate(_mutants(np.random.default_rng(32)))]
    names = ",".join(loader.__name__ for loader in LOADERS.values())
    child = _child("-c", LOAD_ALL_IN_CHILD, names, *map(str, paths), timeout=60)
    assert child.returncode == 0, child.stderr
    ends = dict(eval(child.stdout))
    assert sum(ends.values()) == len(LOADERS) * len(paths)
    assert set(ends) <= {"Scenario", "ConfigParseError", "ConfigValidationError"}
    assert min(ends.get(end, 0) for end in ("Scenario", "ConfigParseError",
                                            "ConfigValidationError")) >= 10, ends


def test_network_is_validated_once_per_load(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return validate_arrays(*args, **kwargs)

    monkeypatch.setattr(network, "validate_arrays", counting)
    monkeypatch.setattr(scenario, "validate_arrays", counting, raising=False)
    load_scenario(_write(tmp_path, MINIMAL))
    assert len(calls) == 1
    off = MINIMAL.replace("[0.0, 1.0]", "[0.0, 0.99]")
    with pytest.raises(ConfigValidationError) as err:
        load_scenario(_write(tmp_path, off))
    report = validate_arrays([[0.0, 0.99], [1.0, 0.0]], [0.5, 0.5])
    assert str(err.value) == f"case: invalid network: {report}"
    assert "row_stochastic: row 1 of C sums to" in str(report)


# each number list of the grammar: the text of MINIMAL it replaces, the new
# text with the list's second entry as {}, the label a refusal names and the
# 1-based place of that entry
NUMBER_LISTS = {
    "C": ("[0.0, 1.0]", "[0.0, {}]", "network.C", "(1, 2)"),
    "a": ("a: [0.5, 0.5]", "a: [0.5, {}]", "network.a", "2"),
    "gamma": ("mode: perception_ra", "gamma: [0.5, {}]\nmode: perception_no_ra", "gamma", "2"),
    "p0": ("p0: [0.5, 0.5]", "p0: [0.5, {}]", "initial.p0[0]", "2"),
    "p0_rows": ("p0: [0.5, 0.5]", "p0:\n    - [0.5, 0.5]\n    - [0.5, {}]", "initial.p0[1]", "2"),
    "mu": ("p0: [0.5, 0.5]", "uniform_in_box: {{mu: [0.0, {}], nu: [1.0, 1.0]}}",
           "uniform_in_box.mu", "2"),
    "nu": ("p0: [0.5, 0.5]", "uniform_in_box: {{mu: [0.0, 0.0], nu: [1.0, {}]}}",
           "uniform_in_box.nu", "2"),
}
TOO_BIG = "whole numbers too large for a float"
HUGE = "1" + "0" * 400  # 10**400
BIG = "1" + "0" * 17 + "..." + "0" * 19  # 10**400 as reprlib abbreviates it
# the least whole number float() overflows on, 2**1024 - 2**970 (a tie rounds
# to even, 2**1024); one less rounds to the largest float
FLOAT_EDGE = 2 ** 1024 - 2 ** 970
# what YAML builds where a number belongs: its text, and the kind and the
# entry a refusal names
NON_NUMBERS = {
    "null": ("null", "nulls", "None"),
    "string": ("abc", "strings", "'abc'"),
    "date": ("2024-01-01", "dates", "2024-01-01"),
    "list": ("[0.5]", "lists", "[0.5]"),
    "big": (HUGE, TOO_BIG, BIG),
}

RA = (SCENARIO_DIR / "three_node_ra.yaml").read_text()
STAR = (SCENARIO_DIR / "star_partial" / "star_partial_a.yaml").read_text()
ALIAS_BOMB = _alias_levels(7, name="alias_bomb")
MERGE_BOMB = _merge_file(2000, 2000).replace("name: case", "name: merge_bomb")
# Python caps int <-> str conversion at 4300 digits (3.11, and 3.10.7 on), so
# PyYAML cannot build a longer literal; without the cap it is just too big
CAPPED = hasattr(sys, "get_int_max_str_digits")
# what PyYAML's SafeConstructor raises for each tagged empty scalar
TAGGED_EMPTY = {"float": "IndexError: string index out of range",
                "int": "IndexError: string index out of range", "bool": "KeyError: ''",
                "timestamp": "AttributeError: 'NoneType' object has no attribute 'groupdict'"}


# Each file fjpower refuses to run, by id: the file, text or the bytes of
# one that is no UTF-8, written as <id>.yaml in the working directory with
# `name: case` made `name: <id>`; the exception that refuses it; and that
# exception's text, a re.fullmatch pattern only where PyYAML, Python or numpy
# words it.  `run`, `report` and `batch` each print it on one line.
UNRUNNABLE = {
    # what PyYAML cannot read, parse or build
    "not_utf8": (b"name: not_utf8\n\xff\xfe: 1\n", ConfigParseError,
                 "cannot read not_utf8.yaml: 'utf-8' codec can't decode byte 0xff in position "
                 "15: invalid start byte"),
    "unclosed_name": ("name: [unclosed\n", ConfigParseError, re.compile(
        r"unclosed_name\.yaml: while parsing a flow sequence; line 1, column 7; (did not find "
        r"expected ',' or '\]'|expected ',' or '\]', but got '<stream end>'); line 2, column 1")),
    **{case: (text, ConfigParseError, re.compile(
        rf"{case}\.yaml: while parsing a flow node; (did not find expected node content|"
        rf"expected the node content, but found '<stream end>'); line {where}"))
       for case, text, where in (("unclosed_mode", "mode: [", "(2, column 1|1, column 8)"),
                                 ("unclosed_mode_newline", "mode: [\n", "2, column 1"))},
    "top_level_list": ("- 1\n- 2\n", ConfigParseError,
                       "top_level_list.yaml: top level must be a mapping"),
    "max_iter_5000_digits": (MINIMAL + "max_iter: 1" + "0" * 5000 + "\n", *(
        (ConfigParseError, re.compile(
            r"max_iter_5000_digits\.yaml: cannot build tag:yaml.org,2002:int on line 10, "
            r"column 11: ValueError: Exceeds the limit \(4300 digits\) for integer string "
            r"conversion.*")) if CAPPED else
        (ConfigValidationError, "max_iter_5000_digits: max_iter must be positive, a whole "
                                "number; got 1" + "0" * 5000))),
    **{f"tagged_{tag}": (MINIMAL + f'tol: !!{tag} ""\n', ConfigParseError,
                         f"tagged_{tag}.yaml: cannot build tag:yaml.org,2002:{tag} "
                         f"on line 10, column 6: {slip}") for tag, slip in TAGGED_EMPTY.items()},
    "tagged_float_ra": (RA.replace("name: three_node_ra", "name: case") + 'tol: !!float ""\n',
                        ConfigParseError, "tagged_float_ra.yaml: cannot build "
                        "tag:yaml.org,2002:float on line 21, column 6: IndexError: string index "
                        "out of range"),
    **{f"{tag}_{kind}": (MINIMAL + f"tol: !!{tag} {value}\n", ConfigParseError,
                         f"{tag}_{kind}.yaml: expected a mapping node, but found {kind}; "
                         "line 10, column 6")
       for tag in ("map", "set") for value, kind in (("abc", "scalar"), ("[a, b]", "sequence"))},
    # PyYAML gives a control character's offset; the loader counts its line and column
    **{case: (head + RA + "x: \x01\n", ConfigParseError, re.compile(
        rf"{case}\.yaml: unacceptable character #x0001: (control|special) characters are not "
        rf"allowed; line {line}, column 4"))
       for case, head, line in (("control_char", "", 21),
                                ("control_char_after_utf8", "# é ✓\n", 22))},
    # both loaders keep a repeated key's last value without a word; the stray
    # mode used to fail as "social_power ... takes no initial block"
    **{f"{key}_repeated": (text, ConfigParseError,
                           f"{key}_repeated.yaml: repeated key '{key}' on line {where}")
       for key, text, where in (
           ("mode", MINIMAL + "mode: social_power\n", "10, first given on line 7"),
           ("tol", MINIMAL + "tol: 1.0e-6\ntol: 1.0e-3\n", "11, first given on line 10"),
           ("a", MINIMAL.replace("  a: [0.5, 0.5]\n", "  a: [0.5, 0.5]\n  a: [0.4, 0.6]\n"),
            "7, first given on line 6"),
           ("samples", MINIMAL + "outputs:\n  - invariant_test: {samples: 10, samples: 20}\n",
            "11, first given on line 11"))},
    # what the loader bounds
    **{case: (text, ConfigParseError, f"{case}.yaml: collections nest deeper than 100 levels")
       for case, text in (("deep_flow", DEEP), ("deep_indented", DEEP_INDENTED),
                          ("chained_297", _chained(3)), ("C_nested_101", _c_nested(101)))},
    **{case: (text, ConfigParseError, f"{case}.yaml: aliases expand to more than {len(text)} "
              "scalars, one per character of the file")
       for case, text in (("alias_bomb", ALIAS_BOMB), ("merge_bomb", MERGE_BOMB),
                          ("merge_past_bound",
                           _merge_file(20, 7).replace("case", "merge_past_bound")))},
    # what the grammar refuses
    **{f"{key}_{value}": (MINIMAL.replace(old, new.format(text)), ConfigValidationError,
                          f"{key}_{value}: {label} must hold numbers, not {kind}; "
                          f"entry {place} is {entry}")
       for key, (old, new, label, place) in NUMBER_LISTS.items()
       for value, (text, kind, entry) in NON_NUMBERS.items()},
    **{f"C_{row}_row": (MINIMAL.replace("[1.0, 0.0]", text), ConfigValidationError,
                        f"C_{row}_row: network.C must hold rows of 2 numbers; entry 2 is {entry}")
       for row, text, entry in (("null", "null", "None"), ("short", "[1.0]", "[1.0]"))},
    # 100 levels, the most the loader reads: the list in C's first row is no number
    "C_nested_100": (_c_nested(100), ConfigValidationError, "C_nested_100: network.C must hold "
                     "numbers, not lists; entry (1, 1) is [[[[[[[...]]]]]]]"),
    "subnormal_a": (MINIMAL.replace("a: [0.5, 0.5]", "a: [1.0e-320, 0.5]")
                    + "outputs:\n  - invariant_test: {box: two_sided, samples: 10}\n",
                    ConfigValidationError, "subnormal_a: invalid network: susceptibility_range: "
                    "a[1] = 1e-320 is subnormal: a positive a_i must be at least "
                    "2.2250738585072014e-308"),
    # one piece of MINIMAL replaced: a key the grammar does not know, or a
    # boolean where a number belongs, fails loudly rather than leaving a
    # default or reading as 1.0 or 0.0
    **{case: (MINIMAL.replace(old, new), ConfigValidationError, f"{case}: {message}")
       for case, old, new, message in (
           ("C_row_off", "[0.0, 1.0]", "[0.0, 0.99]",
            "invalid network: row_stochastic: row 1 of C sums to 0.99, not 1 within 1e-12"),
           ("C_missing", "  C:" + ROWS + "\n", "", "network section must define C and a"),
           ("C_boolean", "[0.0, 1.0]", "[0.0, true]",
            "network.C must hold numbers, not booleans; entry (1, 2) is True"),
           ("a_boolean", "a: [0.5, 0.5]", "a: [no, 0.5]",
            "network.a must hold numbers, not booleans; entry 1 is False"),
           ("a_zero", "a: [0.5, 0.5]", "a: [0.0, 0.0]", "invalid network: not_all_fully_stubborn: "
            "a is the zero vector; at least one a_i > 0 required"),
           ("network_key_unknown", "  a: [0.5, 0.5]", "  a: [0.5, 0.5]\n  b: [0.5, 0.5]",
            "network unknown key 'b'; expected one of ('C', 'a')"),
           ("key_unknown", "mode:", "max_iters: 5\nmode:", "unknown key 'max_iters'; expected one "
            "of ('name', 'network', 'gamma', 'mode', 'initial', 'tol', 'max_iter', 'seed', "
            "'outputs')"),
           ("mode_unknown", "perception_ra", "telepathy", "unknown mode 'telepathy'; expected one "
            "of ('social_power', 'perception_no_ra', 'perception_ra', 'perception_ra_single', "
            "'power_evolution', 'power_evolution_single', 'pagerank_ra', 'fj_opinions', "
            "'distributed_no_ra', 'distributed_ra')"),
           ("gamma_missing", "perception_ra", "perception_no_ra",
            "mode perception_no_ra needs a gamma vector"),
           ("gamma_extra", "perception_ra", "perception_ra\ngamma: [0.1, 0.2]",
            "mode perception_ra takes no gamma"),
           ("gamma_boolean", "perception_ra", "perception_no_ra\ngamma: [0.5, off]",
            "gamma must hold numbers, not booleans; entry 2 is False"),
           ("gamma_above_one", "perception_ra", "perception_no_ra\ngamma: [0.5, 1.5]",
            "gamma entries must lie in [0, 1]; entry 2 is 1.5"),
           ("gamma_negative", "perception_ra", "perception_no_ra\ngamma: [-0.25, 2.0]",
            "gamma entries must lie in [0, 1]; entry 1 is -0.25"),
           ("gamma_nan", "perception_ra", "perception_no_ra\ngamma: [0.5, .nan]",
            "gamma must be finite; entry 2 is nan"),
           ("social_power_initial", "perception_ra", "social_power\ngamma: [0.1, 0.2]",
            "social_power is a direct solve and takes no initial block"),
           ("initial_missing", "initial:\n  p0: [0.5, 0.5]\n", "", "initial must be a mapping with "
            "exactly one of p0 | uniform_in_box | simplex_random"),
           ("initial_unknown", "p0:", "warm_start:", "unknown initial spec 'warm_start'; expected "
            "one of ('p0', 'uniform_in_box', 'simplex_random')"),
           ("p0_boolean", "p0: [0.5, 0.5]", "p0: [yes, no]",
            "initial.p0[0] must hold numbers, not booleans; entry 1 is True"),
           ("p0_inf", "p0: [0.5, 0.5]", "p0: [.inf, 0.5]",
            "initial.p0[0] must be finite; entry 1 is inf"),
           ("p0_short", "p0: [0.5, 0.5]", "p0: [0.5]",
            "initial.p0[0] must have length 2, got shape (1,)"),
           ("p0_empty", "p0: [0.5, 0.5]", "p0: []",
            "initial.p0 must be a vector or non-empty list of vectors"),
           ("p0_float_edge", "p0: [0.5, 0.5]", f"p0: [0.5, {FLOAT_EDGE}]",
            "initial.p0[0] must hold numbers, not whole numbers too large for a float; "
            "entry 2 is 179769313486231580...2880177904174497792"),
       )},
    # one sampler in place of p0; 10^13 starts of 2 floats are 146 TiB, past a
    # 47-bit address space, so the allocation fails whatever the host's
    # overcommit policy, and 10^19 is past numpy's largest array, where the
    # draw raises ValueError, not MemoryError
    **{case: (MINIMAL.replace("p0: [0.5, 0.5]", initial), ConfigValidationError,
              f"{case}: {message}")
       for case, initial, message in (
           ("sampler_key_unknown", "simplex_random: {sead: 3}",
            "simplex_random unknown key 'sead'; expected one of ('count', 'seed')"),
           ("simplex_options_list", "simplex_random: [3]",
            "simplex_random options must be a mapping"),
           ("simplex_count_zero", "simplex_random: {count: 0}",
            "simplex_random count must be positive, a whole number; got 0"),
           ("simplex_count_negative", "simplex_random: {count: -1}",
            "simplex_random count must be positive, a whole number; got -1"),
           ("simplex_count_fraction", "simplex_random: {count: 1.5}",
            "simplex_random count must be positive, a whole number; got 1.5"),
           ("simplex_seed_negative", "simplex_random: {seed: -2}",
            "simplex_random seed must be non-negative, a whole number; got -2"),
           ("simplex_count_1e13", "simplex_random: {count: 10000000000000}",
            "simplex_random count 10000000000000 needs more memory than is available"),
           ("simplex_count_1e19", "simplex_random: {count: 10000000000000000000}",
            "simplex_random count 10000000000000000000 needs more memory than is available"),
           ("box_inverted", "uniform_in_box: {mu: [0.5, 0.0], nu: [0.25, 1.0]}",
            "uniform_in_box lower bound exceeds upper at coordinate 1"),
           ("nu_boolean", "uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, on]}",
            "uniform_in_box.nu must hold numbers, not booleans; entry 2 is True"),
           ("box_too_wide", "uniform_in_box: {mu: [-1.0e308, 0.0], nu: [1.0e308, 1.0]}",
            "uniform_in_box cannot sample a box whose width exceeds the float range"),
           ("box_count_zero", "uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, 1.0], count: 0}",
            "uniform_in_box count must be positive, a whole number; got 0"),
           ("box_count_1e13", "uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, 1.0], "
            "count: 10000000000000}",
            "uniform_in_box count 10000000000000 needs more memory than is available"),
           ("box_count_1e19", "uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, 1.0], "
            "count: 10000000000000000000}",
            "uniform_in_box count 10000000000000000000 needs more memory than is available"))},
    # a setting appended to MINIMAL
    **{case: (MINIMAL + text, ConfigValidationError, f"{case}: {message}")
       for case, text, message in (
           ("tol_abc", "tol: abc\n", "tol must be positive, a finite number; got 'abc'"),
           ("tol_zero", "tol: 0\n", "tol must be positive, a finite number; got 0"),
           ("tol_nan", "tol: .nan\n", "tol must be positive, a finite number; got nan"),
           ("tol_inf", "tol: .inf\n", "tol must be positive, a finite number; got inf"),
           ("tol_true", "tol: true\n", "tol must be positive, a finite number; got True"),
           ("max_iter_zero", "max_iter: 0\n", "max_iter must be positive, a whole number; got 0"),
           ("max_iter_fraction", "max_iter: 2.5\n",
            "max_iter must be positive, a whole number; got 2.5"),
           ("max_iter_negative", "max_iter: -3\n",
            "max_iter must be positive, a whole number; got -3"),
           ("seed_negative", "seed: -1\n", "seed must be non-negative, a whole number; got -1"),
           ("seed_text", "seed: x\n", "seed must be non-negative, a whole number; got 'x'"),
           ("max_iter_400_digits", f"max_iter: {HUGE}\n",
            f"max_iter must be positive, a whole number; got {HUGE}"),
           ("seed_400_digits", f"seed: {HUGE}\n",
            f"seed must be non-negative, a whole number; got {HUGE}"))},
    # an output list appended to MINIMAL; a repeat would write both sections to
    # the report file but keep only the last in ScenarioResult.reports and on
    # `fjpower report`'s stdout
    **{case: (MINIMAL + "outputs:\n" + text, ConfigValidationError, f"{case}: {message}")
       for case, text, message in (
           ("outputs_mapping", "  trajectory_csv: null\n", "outputs must be a list"),
           ("output_unknown", "  - crystal_ball\n", "unknown output kind 'crystal_ball'; expected "
            "one of ('trajectory_csv', 'equilibrium_report', 'condition_report', "
            "'invariant_test')"),
           ("output_two_keys", "  - {trajectory_csv: null, equilibrium_report: null}\n",
            "each output is a string or a single-key mapping, got "
            "{'trajectory_csv': None, 'equilibrium_report': None}"),
           ("csv_options", "  - trajectory_csv: {pretty: true}\n",
            "output trajectory_csv takes no options"),
           ("condition_report_string", "  - condition_report: incoming_influence_cap\n",
            "condition_report needs a list of condition ids"),
           ("condition_report_empty", "  - condition_report: []\n",
            "condition_report needs a list of condition ids"),
           ("condition_unknown", "  - condition_report: [flattery]\n", "unknown condition id "
            "'flattery'; expected one of ('incoming_influence_cap', 'incoming_volatility_cap', "
            "'star_center_load', 'homogeneous_susceptibility_cap', 'democracy', "
            "'uniform_gain_cap')"),
           ("invariant_test_list", "  - invariant_test: [1]\n",
            "invariant_test options must be a mapping"),
           ("invariant_test_key_unknown", "  - invariant_test: {sample: 10}\n",
            "invariant_test unknown key 'sample'; expected one of ('samples', 'box', 'seed')"),
           ("box_unknown", "  - invariant_test: {box: moon}\n",
            "unknown box 'moon'; expected one of ['nonneg', 'star', 'star_loose', 'two_sided']"),
           ("box_list", "  - invariant_test: {box: [two_sided]}\n",
            "unknown box ['two_sided']; expected one of ['nonneg', 'star', 'star_loose', "
            "'two_sided']"),
           ("samples_zero", "  - invariant_test: {samples: 0}\n",
            "invariant_test samples must be positive, a whole number; got 0"),
           ("samples_400_digits", f"  - invariant_test: {{samples: {HUGE}}}\n",
            f"invariant_test samples must be positive, a whole number; got {HUGE}"),
           ("csv_twice", "  - trajectory_csv\n  - trajectory_csv\n",
            "output trajectory_csv is requested twice"),
           ("equilibrium_twice", "  - equilibrium_report\n  - {equilibrium_report: null}\n",
            "output equilibrium_report is requested twice"),
           ("condition_twice_in_one", "  - condition_report: [democracy, democracy]\n",
            "condition 'democracy' is requested twice"),
           ("condition_twice", "  - condition_report: [democracy]\n"
            "  - condition_report: [incoming_influence_cap, democracy]\n",
            "condition 'democracy' is requested twice"),
           ("invariant_test_twice", "  - invariant_test: {samples: 10}\n"
            "  - invariant_test: {seed: 3}\n",
            "invariant_test on the 'two_sided' box is requested twice"))},
    # a name that is no plain filename fragment, which the message cannot begin with
    **{f"name_{case}": (MINIMAL.replace("case", name), ConfigValidationError,
                        f"scenario name {shown} must be a plain filename fragment")
       for case, name, shown in (("slash", "a/b", "'a/b'"), ("nul", '"a\\0b"', "'a\\x00b'"),
                                 ("empty", "", "None"), ("yes", "yes", "True"),
                                 ("list", "[a, b]", "['a', 'b']"),
                                 ("mapping", "{k: 1}", "{'k': 1}"),
                                 ("date", "2024-01-01", "datetime.date(2024, 1, 1)"))},
    # what no run can draw, past the address space and past numpy's largest
    # array, from a box that does not certify, so the test has to draw
    **{f"draw_1e{digits}": (STAR.replace("name: star_partial_a", "name: case").replace(
        "condition_report: [star_center_load]", f"invariant_test: {{samples: {10 ** digits}}}"),
        ConfigValidationError, re.compile(rf"draw_1e{digits}: invariant_test cannot draw "
                                          rf"{10 ** digits} samples from the two_sided box: .+"))
       for digits in (13, 19)},
}


def _write_row(directory: Path, case: str) -> None:
    """Row ``case`` of UNRUNNABLE, written as ``directory/<case>.yaml``."""
    text = UNRUNNABLE[case][0]
    (directory / f"{case}.yaml").write_bytes(
        text if isinstance(text, bytes) else text.replace("name: case", f"name: {case}").encode())


def _pattern(message) -> str:
    """A row's message as a regular expression: a string matches only itself."""
    return message.pattern if isinstance(message, re.Pattern) else re.escape(message)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", UNRUNNABLE)
def test_run_and_report_refuse_an_unrunnable_file_in_one_line(
        tmp_path, monkeypatch, capsys, loader, case):
    """Each exits 1, writes nothing, prints nothing to stdout and prints the
    refusal as one error line: a number list names its first entry that is no
    number, never a NaN the file did not hold."""
    _write_row(tmp_path, case)
    monkeypatch.chdir(tmp_path)
    text, _, message = UNRUNNABLE[case]
    message = _pattern(message)
    assert "nan" not in message or ".nan" in str(text)
    for command in ("run", "report"):
        assert main([command, f"{case}.yaml", "--out", "out"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(f"error: {message}\n", err), err
        assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_cli_batch_prints_one_line_per_unrunnable_file_in_file_order(
        tmp_path, monkeypatch, capsys, loader):
    """Every row, between a valid file sorted first and one sorted last, and
    a file whose load raises what no loader names (``run`` on it would end in
    the traceback): one summary line each, in file order, and every file but
    that one writes what ``run`` writes for it alone."""
    d = tmp_path / "scn"
    d.mkdir()
    for case in UNRUNNABLE:
        _write_row(d, case)
    (d / "0_first.yaml").write_text((SCENARIO_DIR / "three_node_no_ra.yaml").read_text())
    (d / "~last.yaml").write_text(RA)
    monkeypatch.chdir(d)
    alone = {}  # each file's summary line from `run`
    for path in sorted(d.iterdir()):
        assert main(["run", path.name, "--out", "../alone"]) == (path.stem in UNRUNNABLE), path
        alone[path.stem] = capsys.readouterr().out.partition("\n")[0]
    (d / "index_error.yaml").write_text(MINIMAL)
    load = cli.load_scenario

    def raising(path, **overrides):
        if Path(path).stem == "index_error":
            raise IndexError("string index out of range")
        return load(path, **overrides)

    monkeypatch.setattr(cli, "load_scenario", raising)
    lines = _batch(capsys, ".", tmp_path / "out").splitlines()
    rows = {**UNRUNNABLE, "index_error": (MINIMAL, IndexError, "string index out of range")}
    stems = sorted(path.stem for path in d.iterdir())
    assert len(lines) == len(stems) and stems[0] == "0_first" and stems[-1] == "~last"
    for stem, line in zip(stems, lines):
        if stem in rows:
            _, kind, message = rows[stem]
            head = f"{stem}: error after 0 iteration(s) error: {kind.__name__}: "
            assert re.fullmatch(re.escape(head) + _pattern(message), line), line
        else:
            assert line == alone[stem] and " converged " in line, line
    written = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert written == {p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}
    assert {"three_node_no_ra_traj1.csv", "three_node_ra_report.txt"} <= set(written)


def test_generated_starts(tmp_path):
    boxed = MINIMAL.replace(
        "  p0: [0.5, 0.5]",
        "  uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, 1.0], count: 4, seed: 7}",
    )
    scn = load_scenario(_write(tmp_path, boxed))
    assert len(scn.starts) == 4
    assert all(np.all((s >= 0.0) & (s <= 1.0)) for s in scn.starts)
    again = load_scenario(_write(tmp_path, boxed, name="again.yaml"))
    assert all(np.array_equal(a, b) for a, b in zip(scn.starts, again.starts))

    simplex = MINIMAL.replace(
        "  p0: [0.5, 0.5]", "  simplex_random: {count: 3, seed: 1}"
    )
    scn2 = load_scenario(_write(tmp_path, simplex))
    assert len(scn2.starts) == 3
    for s in scn2.starts:
        assert s.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(s >= 0.0)


def test_multiple_p0_vectors(tmp_path):
    multi = MINIMAL.replace(
        "  p0: [0.5, 0.5]", "  p0:\n    - [0.5, 0.5]\n    - [0.9, 0.1]"
    )
    scn = load_scenario(_write(tmp_path, multi))
    assert len(scn.starts) == 2
    assert np.array_equal(scn.starts[1], [0.9, 0.1])


def test_distinct_output_requests_load(tmp_path):
    """Two trials on two boxes and two condition reports on two ids are no
    repeat (the ``*_twice`` rows of UNRUNNABLE are)."""
    distinct = ("outputs:\n  - invariant_test: {samples: 10}\n"
                "  - invariant_test: {box: nonneg, samples: 10}\n"
                "  - condition_report: [democracy]\n"
                "  - condition_report: [incoming_influence_cap]\n")
    assert len(load_scenario(_write(tmp_path, MINIMAL + distinct)).outputs) == 4


def test_the_whole_number_below_the_float_edge_loads_as_the_largest_float(tmp_path):
    """Row ``p0_float_edge`` of UNRUNNABLE is the least one refused."""
    text = MINIMAL.replace("p0: [0.5, 0.5]", f"p0: [0.5, {FLOAT_EDGE - 1}]")
    assert load_scenario(_write(tmp_path, text)).starts[0][1] == sys.float_info.max


def test_names_yaml_reads_as_a_string_or_a_number_load_as_written(tmp_path):
    """The ``name_*`` rows of UNRUNNABLE are the names refused."""
    for good, name in (("name: 'yes'", "yes"), ("name: 12", "12"), ("name: 1.5", "1.5")):
        assert load_scenario(_write(tmp_path, MINIMAL.replace("name: case", good))).name == name


def test_numeric_strings_are_read_as_numbers(tmp_path):
    # YAML 1.1 reads 1e-6 (no decimal point) as a string, in a setting or a number list
    text = MINIMAL.replace("a: [0.5, 0.5]", "a: [5e-1, '0.5']").replace(
        "p0: [0.5, 0.5]", "p0: [1e-3, 0.999]")
    scn = load_scenario(_write(tmp_path, text + "tol: 1e-6\nmax_iter: '50'\n"))
    assert scn.tol == 1e-6 and scn.max_iter == 50
    assert scn.net.a.tolist() == [0.5, 0.5] and scn.starts[0].tolist() == [1e-3, 0.999]


def test_overrides_are_validated_like_file_settings(tmp_path):
    path = _write(tmp_path, MINIMAL)
    for given, message in [
        ({"tol": float("nan")}, "case: override tol must be positive"),
        ({"tol": 0.0}, "case: override tol must be positive"),
        ({"max_iter": 0}, "case: override max_iter must be positive"),
        ({"seed": -1}, "case: override seed must be non-negative"),
        ({"seed": 10 ** 400}, "case: override seed must be non-negative, a whole number"),
        ({"max_iter": 10 ** 400}, "case: override max_iter must be positive, a whole number"),
    ]:
        with pytest.raises(ConfigValidationError, match=message):
            load_scenario(path, **given)


def test_overrides_replace_only_what_was_given(tmp_path):
    path = _write(tmp_path, MINIMAL)
    scn = load_scenario(path)
    bumped = load_scenario(path, tol=1e-6, seed=9)
    assert bumped.tol == 1e-6 and bumped.seed == 9
    assert bumped.max_iter == scn.max_iter
    assert scn.tol == 1e-12  # a load without overrides keeps the file's


def test_seed_override_reaches_sampled_starts_unless_the_sampler_has_one(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("  p0: [0.5, 0.5]", "  simplex_random: {count: 2}"))
    one, two = load_scenario(path, seed=1), load_scenario(path, seed=2)
    assert not np.array_equal(one.starts[0], two.starts[0])
    assert all(np.array_equal(a, b) for a, b in zip(one.starts, load_scenario(path, seed=1).starts))
    own = _write(tmp_path, MINIMAL.replace("  p0: [0.5, 0.5]", "  simplex_random: {seed: 5}"),
                 name="own.yaml")
    assert np.array_equal(load_scenario(own, seed=1).starts[0], load_scenario(own).starts[0])


def test_invariant_trial_draws_with_the_scenario_seed_unless_it_has_its_own(tmp_path):
    # no box of this network certifies, so each trial draws and its exit count shows its seed
    text = (SCENARIO_DIR / "star_partial" / "star_partial_a.yaml").read_text().replace(
        "condition_report: [star_center_load]", "invariant_test: {box: star_loose, samples: 200}")
    plain = _write(tmp_path, text + "seed: 4\n", name="plain.yaml")
    own = _write(tmp_path, text.replace("samples: 200}", "samples: 200, seed: 9}") + "seed: 4\n",
                 name="own.yaml")
    net = load_scenario(plain).net

    def drawn(path, **override):
        result = run_reports(load_scenario(path, **override), out_dir=tmp_path / "out")
        return result.reports["invariance_star_loose"].exit_count

    expected = {seed: one_step_invariance_test(
        net, star_invariant_box(net, loose=True), 200, seed=seed).exit_count for seed in (4, 9, 11)}
    assert len(set(expected.values())) == 3
    assert drawn(plain) == expected[4]
    assert drawn(plain, seed=11) == expected[11]
    assert drawn(own) == drawn(own, seed=11) == expected[9]


@pytest.mark.parametrize("n", [2, 3, 5, 60])
def test_simplex_starts_are_the_bits_of_one_draw_per_start(n):
    # the sampler draws all starts in one call, which must give the bits of one
    # dirichlet call per start on every numpy the package supports
    for count in (1, 3, 50):
        doc = {"initial": {"simplex_random": {"count": count, "seed": 3}}}
        starts = scenario._parse_starts(doc, n, "perception_ra", 0, "case")
        rng = np.random.default_rng(3)
        assert np.array(starts).tobytes() == np.array(
            [rng.dirichlet(np.ones(n)) for _ in range(count)]).tobytes()


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_recorded_steps_thin_out_beyond_the_threshold():
    assert _csv_steps(5) == [0, 1, 2, 3, 4, 5]
    assert _csv_steps(10_000) == list(range(10_001))
    long = _csv_steps(10_015)
    assert long[:10_001] == list(range(10_001))
    assert long[10_001:] == [10_010, 10_015]


def test_csv_round_trips_full_precision(tmp_path):
    rng = np.random.default_rng(0)
    path_data = rng.uniform(-1, 1, size=(6, 3))
    traj = Trajectory(path=path_data, status=CONVERGED)
    out = write_trajectory_csv(tmp_path / "t.csv", traj)
    lines = out.read_text().splitlines()
    assert lines[0] == "step,p_1,p_2,p_3"
    assert len(lines) == 7
    for s, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == s
        assert np.array_equal(np.array([float(c) for c in cells[1:]]), path_data[s])


def test_csv_rows_are_the_bytes_of_each_value_formatted_alone(tmp_path):
    """Each cell is ``f"{v:.17e}"`` of its value, at the float range's edges too."""
    edges = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308]
    path_data = np.array([edges, edges[::-1], [0.0, 1.0, -1.0, 0.5, -5e-324, 0.1]])
    traj = Trajectory(path=path_data, status=NONFINITE)
    want = ["step," + ",".join(f"p_{i}" for i in range(1, 7))]
    want += [f"{s}," + ",".join(f"{v:.17e}" for v in row) for s, row in enumerate(path_data)]
    assert write_trajectory_csv(tmp_path / "t.csv", traj).read_bytes() == (
        "\n".join(want) + "\n").encode()
    assert "-0.00000000000000000e+00,4.94065645841246544e-324" in want[1]


def test_long_trajectory_csv_keeps_the_final_row(tmp_path):
    steps = 10_037
    path_data = np.linspace(0.0, 1.0, steps + 1)[:, None]
    traj = Trajectory(path=path_data, status=MAX_ITER)
    lines = write_trajectory_csv(tmp_path / "t.csv", traj).read_text().splitlines()
    assert lines[-1].startswith("10037,")
    assert len(lines) == 1 + len(_csv_steps(steps))


def test_repeated_runs_emit_identical_bytes(tmp_path):
    """In one process, and in a fresh process each time: a batch that
    converges and one with a diverging file print and write the same bytes."""
    scn = load_scenario(SCENARIO_DIR / "three_node_ra.yaml")
    run_scenario(scn, out_dir=tmp_path / "one")
    run_scenario(scn, out_dir=tmp_path / "two")
    first = (tmp_path / "one" / "three_node_ra_traj1.csv").read_bytes()
    second = (tmp_path / "two" / "three_node_ra_traj1.csv").read_bytes()
    assert first == second
    for d, code in ((SCENARIO_DIR, 0), (SCENARIO_DIR / "star_partial", 2)):
        runs = []
        for out in (tmp_path / d.name / "one", tmp_path / d.name / "two"):
            child = _child("-m", "fjpower.cli", "batch", str(d), "--out", str(out))
            assert child.returncode == code, child.stderr
            runs.append((child.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) >= 4, sorted(runs[0][1])


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------

def test_direct_power_solve_scenario(tmp_path):
    scn = load_scenario(SCENARIO_DIR / "three_node_power_direct.yaml")
    result = run_scenario(scn, out_dir=tmp_path)
    assert result.status == CONVERGED
    assert result.iterations == 0
    assert np.max(np.abs(result.final - TRIAD_POWER)) < 1e-13


def test_opinion_scenario_reaches_the_blend(tmp_path):
    scn = load_scenario(SCENARIO_DIR / "two_node_opinions.yaml")
    result = run_scenario(scn, out_dir=tmp_path)
    assert result.status == CONVERGED
    assert np.max(np.abs(result.final - [2 / 3, 1 / 3])) < 1e-10


def test_per_step_power_scenario_lands_on_the_equilibrium(tmp_path):
    scn = load_scenario(SCENARIO_DIR / "three_node_power_single.yaml")
    result = run_scenario(scn, out_dir=tmp_path)
    assert result.status == CONVERGED
    assert np.max(np.abs(result.final - ANCHORED_POWER_EQ)) < 1e-8
    assert result.trajectories[0].timescale == "step"


def test_artifact_names_and_env_default(tmp_path, monkeypatch):
    scn = load_scenario(SCENARIO_DIR / "three_node_no_ra.yaml")
    result = run_scenario(scn, out_dir=tmp_path)
    names = sorted(p.rsplit("/", 1)[-1] for p in result.artifacts)
    assert names == [f"three_node_no_ra_traj{k}.csv" for k in (1, 2, 3)]

    monkeypatch.setenv("FJPOWER_OUT", str(tmp_path / "from_env"))
    run_scenario(scn)
    assert (tmp_path / "from_env" / "three_node_no_ra_traj1.csv").exists()


def test_outputs_are_written_in_request_order(tmp_path):
    """Every report is built, in request order, before any file is written;
    the CSV paths come before the report's, and a report that fails leaves
    nothing written, whatever was requested before it."""
    text = MINIMAL + "outputs:\n  - condition_report: [incoming_influence_cap]\n  - trajectory_csv\n"
    result = run_scenario(load_scenario(_write(tmp_path, text)), out_dir=tmp_path / "out")
    assert result.artifacts == (str(tmp_path / "out" / "case_traj1.csv"),
                                str(tmp_path / "out" / "case_report.txt"))
    # no box of this network certifies, so the trial has to draw its samples
    star = (SCENARIO_DIR / "star_partial" / "star_partial_a.yaml").read_text()
    star = star[:star.index("outputs:")] + "outputs:\n"
    csv, draw = "  - trajectory_csv\n", "  - invariant_test: {samples: 10000000000000}\n"
    for k, outputs in enumerate((csv + draw, draw + csv)):
        out = tmp_path / f"out{k}"
        with pytest.raises(ConfigValidationError, match="cannot draw"):
            run_scenario(load_scenario(_write(tmp_path, star + outputs)), out_dir=out)
        assert not out.exists()


def test_report_only_entry_point(tmp_path):
    scn = load_scenario(SCENARIO_DIR / "three_node_ra.yaml")
    result = run_reports(scn, out_dir=tmp_path)
    assert result.status == "report_ok"
    assert result.exit_code == 0
    assert result.reports["incoming_influence_cap"].holds
    assert result.reports["invariance_two_sided"].ok
    assert (tmp_path / "three_node_ra_report.txt").exists()

    bare = load_scenario(SCENARIO_DIR / "two_node_opinions.yaml")
    with pytest.raises(ConfigValidationError, match="no report outputs"):
        run_reports(bare, out_dir=tmp_path)


def test_condition_reports_use_the_timescale_of_the_mode(tmp_path):
    text = (SCENARIO_DIR / "three_node_ra_single.yaml").read_text()
    text += "  - condition_report: [uniform_gain_cap]\n"
    single = load_scenario(_write(tmp_path, text))
    twin = load_scenario(_write(tmp_path, text.replace("perception_ra_single", "perception_ra"),
                                name="twin.yaml"))
    step = run_reports(single, out_dir=tmp_path / "single").reports["uniform_gain_cap"]
    issue = run_reports(twin, out_dir=tmp_path / "twin").reports["uniform_gain_cap"]
    assert str(step.detail[0]).startswith("  max_susceptibility[step]: lhs 0.6 vs rhs 0.5 ")
    assert issue.detail[0].label == "max_susceptibility[issue]"
    assert issue.detail[0].rhs == pytest.approx(3.0 / 7.0)
    assert "max_susceptibility[step]" in (
        tmp_path / "single" / "three_node_ra_single_report.txt").read_text()


def test_nonfinite_run_outranks_divergence_and_exits_one(tmp_path):
    scn = load_scenario(_write(tmp_path, MINIMAL))
    # the loader refuses non-finite starts, so the NaN start is put in directly
    scn = replace(scn, starts=(np.array([2e9, 0.0]), np.array([np.nan, 0.5]), np.full(2, 0.5)))
    result = run_scenario(scn, out_dir=tmp_path)
    assert [t.status for t in result.trajectories] == [DIVERGED, NONFINITE, CONVERGED]
    assert [t.iterations for t in result.trajectories[:2]] == [0, 0]
    assert result.status == NONFINITE and result.exit_code == 1


def test_exit_code_convention():
    codes = {
        "converged": 0, "diverged": 2, "max_iter": 1, "error": 1, "report_ok": 0,
    }
    for status, code in codes.items():
        result = ScenarioResult(name="x", mode="m", status=status, iterations=0, final=None)
        assert result.exit_code == code
    weird = ScenarioResult(name="x", mode="m", status="unheard_of", iterations=0, final=None)
    assert weird.exit_code == 1


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_run_converges(tmp_path, capsys):
    code = main(["run", str(SCENARIO_DIR / "three_node_no_ra.yaml"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "three_node_no_ra: converged" in out
    assert "final:" in out
    assert "wrote" in out


def test_cli_run_budget_exhaustion_maps_to_one(tmp_path, capsys):
    code = main([
        "run", str(SCENARIO_DIR / "three_node_no_ra.yaml"),
        "--out", str(tmp_path), "--max-iter", "2",
    ])
    assert code == 1
    assert "max_iter" in capsys.readouterr().out


def test_cli_run_tol_override_shortens_the_run(tmp_path, capsys):
    main(["run", str(SCENARIO_DIR / "three_node_ra.yaml"), "--out", str(tmp_path)])
    tight = capsys.readouterr().out
    main([
        "run", str(SCENARIO_DIR / "three_node_ra.yaml"),
        "--out", str(tmp_path), "--tol", "1e-3",
    ])
    loose = capsys.readouterr().out

    def iterations(text):
        return int(text.split("after ")[1].split(" iteration")[0])

    assert iterations(loose) < iterations(tight)


def test_cli_run_reports_condition_verdicts(tmp_path, capsys):
    code = main(["run", str(SCENARIO_DIR / "three_node_ra.yaml"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition incoming_influence_cap: holds" in out
    assert "condition incoming_volatility_cap: holds" in out


def test_cli_batch_aggregates_divergence(tmp_path, capsys):
    out = _batch(capsys, SCENARIO_DIR / "star_partial", tmp_path, code=2)
    assert out.count("star_partial_") == 4
    assert "star_partial_c: diverged" in out


def test_cli_batch_looks_up_the_loader_and_runner_by_module_attribute(
        tmp_path, capsys, monkeypatch):
    """Each file of a batch, and a ``run``'s one, goes through
    ``cli.load_scenario`` and ``scenario.run_scenario`` as looked up at call
    time, so a wrapper patched onto either sees it."""
    seen: dict[str, list] = {"load": [], "run": []}

    def counting(key, fn, name):
        def wrapper(*args, **kwargs):
            seen[key].append(name(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "load_scenario",
                        counting("load", cli.load_scenario, lambda path: Path(path).stem))
    monkeypatch.setattr(scenario, "run_scenario",
                        counting("run", scenario.run_scenario, lambda scn: scn.name))
    main(["batch", str(SCENARIO_DIR / "star_partial"), "--out", str(tmp_path)])
    main(["run", str(SCENARIO_DIR / "three_node_ra.yaml"), "--out", str(tmp_path)])
    capsys.readouterr()
    stems = [f"star_partial_{x}" for x in "abcd"] + ["three_node_ra"]
    assert seen == {"load": stems, "run": stems}


def test_cli_batch_of_the_bundled_scenarios_exits_zero(tmp_path, capsys):
    """Every top-level bundled scenario succeeds, and each equilibrium section
    is the search's report under the file's own settings, its uniqueness
    clause the proof: both networks certify."""
    _batch(capsys, SCENARIO_DIR, tmp_path, code=0)
    for name in ("star_full_center", "three_node_power"):
        scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        eq = solve_equilibrium(scn.net, seed=scn.seed, tol=scn.tol, max_iter=scn.max_iter)
        cert = analysis.certify_uniqueness(scn.net)
        assert cert.certified, name
        proof = re.escape(f"proved unique (rho {cert.rho[-1]:.4g} < 1 on box X_{cert.steps}); "
                          "||p - p*||_w <= ") + r"\d\.\d{3}e-\d\d"
        text = (tmp_path / f"{name}_report.txt").read_text()
        section = text.partition("== equilibrium ==\n")[2].split("\n== ", 1)[0]
        evidence = re.escape("21/21 starts agree (uniqueness evidence)")
        assert re.fullmatch(re.escape(f"{eq}\n").replace(evidence, proof), section), name
        if name == "star_full_center":
            closed = star_equilibrium_closed_form(scn.net)
            assert np.max(np.abs(eq.p_star - closed)) < 1e-9


@pytest.mark.parametrize("which", ["criterion5_net97", "two_nodes"])
def test_an_uncertified_network_reports_the_multistart_evidence(tmp_path, which):
    """Where the box steps give up (a few steps in, far below their cap), the
    equilibrium section is the 21-start search's, byte for byte."""
    if which == "two_nodes":  # the shape of the generated gen_pagerank_ra_n02
        net = network.InfluenceNetwork(C=np.array([[0.0, 1.0], [1.0, 0.0]]), a=np.full(2, 0.7))
    else:
        rng = np.random.default_rng(5)
        for _ in range(98):
            net = random_network(rng, int(rng.integers(2, 9)))
    cert = analysis.certify_uniqueness(net)
    assert not cert.certified and cert.steps <= 4
    path = tmp_path / f"{which}.yaml"
    path.write_text(yaml.safe_dump({
        "name": which, "network": {"C": net.C.tolist(), "a": net.a.tolist()},
        "mode": "power_evolution", "initial": {"p0": np.full(net.n, 1.0 / net.n).tolist()},
        "outputs": ["equilibrium_report"]}))
    scn = load_scenario(path)
    assert scn.net.C.tobytes() == net.C.tobytes() and scn.net.a.tobytes() == net.a.tobytes()
    run_reports(scn, out_dir=tmp_path)
    eq = solve_equilibrium(net, seed=0)
    assert "21/21 starts agree (uniqueness evidence)" in str(eq)
    assert (tmp_path / f"{which}_report.txt").read_text() == f"== equilibrium ==\n{eq}\n"


def test_cli_rejects_oversized_integer_overrides(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    for flag in ("--seed", "--max-iter"):
        assert main(["run", str(path), "--out", str(tmp_path), flag, "1" + "0" * 400]) == 1
        assert "must be" in capsys.readouterr().err


def test_cli_batch_rejects_a_name_an_earlier_file_took(tmp_path, capsys):
    """Two files named alike would write the same output files, the later over
    the earlier; the later one is an error instead, and the batch exits 1."""
    (tmp_path / "scn").mkdir()
    outputs = "outputs: [trajectory_csv]\n"
    (tmp_path / "scn" / "a.yaml").write_text(MINIMAL.replace("case", "same") + outputs)
    (tmp_path / "scn" / "b.yaml").write_text(
        MINIMAL.replace("case", "same").replace("p0: [0.5, 0.5]", "p0: [0.9, 0.1]") + outputs)
    (tmp_path / "scn" / "c.yaml").write_text(MINIMAL.replace("case", "c"))
    lines = _batch(capsys, tmp_path / "scn", tmp_path / "out").splitlines()
    assert lines[0].startswith("same: converged")
    assert lines[1] == ("same: error after 0 iteration(s) error: ConfigValidationError: "
                        "b.yaml repeats the name 'same' of a.yaml")
    assert lines[2].startswith("c: converged")
    assert main(["run", str(tmp_path / "scn" / "a.yaml"), "--out", str(tmp_path / "alone")]) == 0
    csv = "same_traj1.csv"
    assert (tmp_path / "out" / csv).read_bytes() == (tmp_path / "alone" / csv).read_bytes()


def test_cli_seed_reaches_sampled_starts(tmp_path, capsys):
    # the opinion limit is linear in the start, so distinct starts give distinct finals
    text = MINIMAL.replace("mode: perception_ra", "gamma: [0.3, 0.3]\nmode: fj_opinions")
    path = _write(tmp_path, text.replace("  p0: [0.5, 0.5]", "  simplex_random: {}"))

    def final(seed):
        assert main(["run", str(path), "--out", str(tmp_path), "--seed", seed]) == 0
        return next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("final:"))

    assert final("1") != final("2")
    assert final("1") == final("1")


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "0"], ["--max-iter", "0"], ["--seed", "-1"],
])
def test_cli_rejects_bad_overrides_without_running(tmp_path, capsys, flags):
    code = main(["run", str(SCENARIO_DIR / "three_node_ra.yaml"), "--out", str(tmp_path), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: three_node_ra: override ")
    assert not any(tmp_path.iterdir())


def test_cli_batch_rejects_bad_directories(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "nope")]) == 1
    assert "not a directory" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch", str(empty)]) == 1
    assert "no scenario files" in capsys.readouterr().err


def test_cli_report(tmp_path, capsys):
    code = main(["report", str(SCENARIO_DIR / "three_node_ra.yaml"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "== incoming_influence_cap ==" in out
    assert "== invariance_two_sided ==" in out
    assert "HOLDS" in out
    assert (tmp_path / "three_node_ra_report.txt").exists()


def test_cli_report_needs_report_outputs(tmp_path, capsys):
    code = main(["report", str(SCENARIO_DIR / "two_node_opinions.yaml"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "no report outputs" in capsys.readouterr().err


def test_cli_out_naming_a_file_is_one_error_line_per_scenario(tmp_path, capsys):
    """``--out`` names an existing file: `run` and `report` exit 1 with the
    OSError on one line, `batch` prints it once per file, and nothing is written."""
    taken = tmp_path / "taken"
    taken.write_text("x\n")
    error = f"[Errno 17] File exists: '{taken}'"
    for command in ("run", "report"):
        assert main([command, str(SCENARIO_DIR / "three_node_ra.yaml"), "--out", str(taken)]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
    assert _batch(capsys, SCENARIO_DIR / "star_partial", taken).splitlines() == [
        f"star_partial_{x}: error after 0 iteration(s) error: FileExistsError: {error}"
        for x in "abcd"]
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "x\n"


def test_cli_oracle_prints_the_direct_solve(capsys):
    code = main(["oracle", str(SCENARIO_DIR / "three_node_no_ra.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    values = [float(line.split("=")[1]) for line in out.splitlines() if line.startswith("p_")]
    assert np.max(np.abs(np.array(values) - TRIAD_POWER)) < 1e-15
    assert "sum = " in out


def test_cli_oracle_requires_fixed_self_weights(capsys):
    code = main(["oracle", str(SCENARIO_DIR / "three_node_ra.yaml")])
    assert code == 1
    assert "gamma" in capsys.readouterr().err


def test_cli_missing_config_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    message = f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"
    with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
        load_scenario(missing)
    assert main(["run", str(missing)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


SUBCOMMANDS = (  # name, positional argument, help text
    ("run", "config", "run one scenario file"),
    ("batch", "directory", "run every scenario in a directory"),
    ("report", "config", "emit only report artifacts"),
    ("oracle", "config", "print the power vector from the direct linear solve"),
)


@pytest.mark.parametrize("command, positional", [row[:2] for row in SUBCOMMANDS])
def test_every_subcommand_parses_its_argument_and_the_shared_flags(command, positional):
    args = _build_parser().parse_args([command, "in.yaml", "--tol", "1e-9", "--max-iter", "7",
                                       "--seed", "3", "--out", "out"])
    assert args.command == command
    assert getattr(args, positional) == Path("in.yaml")
    assert (args.tol, args.max_iter, args.seed, args.out) == (1e-9, 7, 3, Path("out"))
    args = _build_parser().parse_args([command, "in.yaml"])
    assert (args.tol, args.max_iter, args.seed, args.out) == (None, None, None, None)


def test_help_lists_the_four_subcommands(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: fjpower [-h] {run,batch,report,oracle} ...\n")
    for command, _, text in SUBCOMMANDS:
        assert re.search(rf"^    {command} +{re.escape(text)}$", out, re.M), command


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "in.yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'simulate'" in capsys.readouterr().err
