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
DEEP = MINIMAL.replace("case", "deep").replace(ROWS, " " + "[" * 5000 + "]" * 5000)
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


def test_malformed_yaml_is_a_parse_error(tmp_path):
    bad = _write(tmp_path, "name: [unclosed\n")
    with pytest.raises(ConfigParseError):
        load_scenario(bad)
    with pytest.raises(ConfigParseError, match="cannot read"):
        load_scenario(tmp_path / "missing.yaml")
    not_mapping = _write(tmp_path, "- 1\n- 2\n")
    with pytest.raises(ConfigParseError, match="mapping"):
        load_scenario(not_mapping)


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
        for loader in (scenario.YAML_LOADER, yaml.SafeLoader):
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


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_unreadable_files_are_parse_errors_under_both_loaders(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    with pytest.raises(ConfigParseError):
        load_scenario(_write(tmp_path, "name: [unclosed\n"))
    with pytest.raises(ConfigParseError, match="mapping"):
        load_scenario(_write(tmp_path, "- 1\n- 2\n"))
    # a literal past Python's 4300-digit int <-> str cap (see the test above)
    giant = _write(tmp_path, MINIMAL + "max_iter: 1" + "0" * 5000 + "\n")
    capped = hasattr(sys, "get_int_max_str_digits")
    with pytest.raises(ConfigParseError if capped else ConfigValidationError):
        load_scenario(giant)
    latin = tmp_path / "latin.yaml"
    latin.write_bytes(b"name: x\n\xff\xfe: 1\n")
    with pytest.raises(ConfigParseError, match="cannot read .*utf-8"):
        load_scenario(latin)
    # past MAX_NESTING, so refused as either loader composes it
    deep = _write(tmp_path, DEEP, name="deep.yaml")
    with pytest.raises(ConfigParseError, match="deep.yaml: collections nest deeper than 100"):
        load_scenario(deep)


# Each level of these takes one C call in libyaml's composer, which kills the
# process (SIGSEGV) at 30 000 levels on an 8 MB stack, so they load in a child.
LOAD_IN_CHILD = """\
import sys, yaml
from fjpower import load_scenario, scenario
if sys.argv[1] == "SafeLoader":
    scenario.YAML_LOADER = yaml.SafeLoader
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


@pytest.mark.parametrize("loader", ["chosen", "SafeLoader"])
def test_nesting_past_the_limit_is_a_parse_error_under_both_loaders(tmp_path, loader):
    """Flow nesting and compact block nesting 50 000 levels deep."""
    paths = _deeper_files(tmp_path)
    child = _child("-c", LOAD_IN_CHILD, loader, *map(str, paths))
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


def _chained_file(tmp_path, lines: int, name="chained.yaml") -> Path:
    """C nested ``99 * lines`` block sequences deep by lines of 99 compact
    indicators, each line but the last ending in ``-`` and the next indented
    past it, so no line holds more than MAX_NESTING indicators."""
    rows = [" " * (4 + 198 * k) + "- " * 98 + ("- 0" if k == lines - 1 else "-")
            for k in range(lines)]
    return _write(tmp_path, MINIMAL.replace(ROWS, "\n" + "\n".join(rows)), name=name)


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_indicators_chained_across_lines_are_a_parse_error(tmp_path, monkeypatch, loader):
    """297 levels on 3 lines, each line's run of indicators under 100.  A
    file with as many indicators whose long lines hold only spaces, or a
    comment, still loads."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    with pytest.raises(ConfigParseError,
                       match="chained.yaml: collections nest deeper than 100 levels"):
        load_scenario(_chained_file(tmp_path, 3))
    starts = "  p0:\n" + "    - [0.5, 0.5]\n" * 150 + " " * 300 + "\n" + " " * 300 + "# note\n"
    scn = load_scenario(_write(tmp_path, MINIMAL.replace("  p0: [0.5, 0.5]\n", starts)))
    assert len(scn.starts) == 150


def test_indicators_chained_deep_enough_to_crash_are_refused_in_a_child(tmp_path):
    """About 31 700 levels on 320 lines (10 MB), which killed libyaml's composer."""
    path = _chained_file(tmp_path, 320)
    for loader in ("chosen", "SafeLoader"):
        child = _child("-c", LOAD_IN_CHILD, loader, str(path))
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


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_nesting_is_counted_as_pyyaml_composes_it(tmp_path, monkeypatch, loader):
    """Brackets and indicators in a comment do not count, and nesting by
    indentation does: 100 collections around a scalar load, 101 do not."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
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
    # C sits inside the top-level mapping and network: at 100 levels numpy
    # refuses its 98 dimensions, at 101 the loader refuses the file
    def c_nested(levels):
        rows = " " + "[" * (levels - 2) + "0" + "]" * (levels - 2)
        return _write(tmp_path, MINIMAL.replace(ROWS, rows), name=f"l{levels}.yaml")

    with pytest.raises(ConfigValidationError, match="case: network arrays are not numeric"):
        load_scenario(c_nested(100))
    for path in (c_nested(101), _write(tmp_path, DEEP_INDENTED, name="indented.yaml")):
        with pytest.raises(ConfigParseError) as err:
            load_scenario(path)
        assert str(err.value) == f"{path}: collections nest deeper than 100 levels"


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


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_merge_keys_that_splice_past_the_file_size_are_refused_at_once(
        tmp_path, monkeypatch, loader):
    """k = m = 2000 (27 kB) would splice 4 * 10**6 pairs, which took 5.5 s
    under libyaml.  Its composed nodes hold 8 * 10**6 scalars once the
    aliases are expanded, so it gets the alias bound's message as soon as it
    is composed (the pure-Python composer alone takes about 0.2 s), before
    PyYAML constructs or flattens anything.  The bound is exact, and merges
    under it load like their written-out forms."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
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
    # values, y, its `<<` key and m copies of x's pairs: k = 20 passes at m = 6, not 7
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
    with pytest.raises(ConfigParseError, match=re.escape(
            f"over.yaml: aliases expand to more than {len(over)} scalars")):
        load_scenario(_write(tmp_path, over, name="over.yaml"))
    doc = yaml.load(under, Loader=scenario._scenario_loader(loader))
    assert doc["y"] == doc["x"] == {f"k{i}": 0 for i in range(20)}
    merged = MINIMAL + ("outputs:\n  - invariant_test: &t {samples: 10, box: nonneg}\n"
                        "  - invariant_test: {<<: *t, box: two_sided}\n")
    written = merged.replace(" &t", "").replace("<<: *t", "samples: 10")
    scn = load_scenario(_write(tmp_path, merged, name="merged.yaml"))
    assert [(out.samples, out.box) for out in scn.outputs] == [(10, "nonneg"), (10, "two_sided")]
    assert _fingerprint(scn) == _fingerprint(load_scenario(_write(tmp_path, written)))


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_a_yaml_syntax_error_is_one_line_naming_its_place(tmp_path, capsys, monkeypatch, loader):
    """PyYAML's message, mark lines and quoted source included, becomes one
    line, so a batch prints one summary line for the file and run one error."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    d = tmp_path / "scn"
    d.mkdir()
    (d / "broken.yaml").write_text("mode: [")
    (d / "good.yaml").write_text(MINIMAL)
    start = f"{d / 'broken.yaml'}: while parsing a flow node; "
    assert main(["batch", str(d), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("case: converged")
    assert lines[0].startswith(f"broken: error after 0 iteration(s) error: ConfigParseError: {start}")
    assert re.search(r"; line [12], column \d+$", lines[0]), lines[0]
    assert main(["run", str(d / "broken.yaml"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {start}") and err.count("\n") == 1, err


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_a_control_character_is_a_parse_error_naming_its_line_and_column(
        tmp_path, monkeypatch, loader):
    """PyYAML gives only the character's offset (in bytes under libyaml), so
    the loader counts the line and column, as PyYAML's other errors name
    them; a line of non-ASCII text before it counts as one line."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    text = (SCENARIO_DIR / "three_node_ra.yaml").read_text() + "x: \x01\n"
    assert text.count("\n") == 21
    for head, line in (("", 21), ("# é ✓\n", 22)):
        path = _write(tmp_path, head + text)
        with pytest.raises(ConfigParseError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: unacceptable character #x0001: ")
        assert str(err.value).endswith(f" are not allowed; line {line}, column 4")


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_a_repeated_key_is_a_parse_error_naming_it(tmp_path, monkeypatch, loader):
    """Both loaders keep a repeated key's last value without a word; the
    scenario loader names the key and both its lines, at every level."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    cases = [
        # the stray mode used to fail as "social_power ... takes no initial block"
        (MINIMAL + "mode: social_power\n", "'mode' on line 10, first given on line 7"),
        (MINIMAL + "tol: 1.0e-6\ntol: 1.0e-3\n", "'tol' on line 11, first given on line 10"),
        (MINIMAL.replace("  a: [0.5, 0.5]\n", "  a: [0.5, 0.5]\n  a: [0.4, 0.6]\n"),
         "'a' on line 7, first given on line 6"),
        (MINIMAL + "outputs:\n  - invariant_test: {samples: 10, samples: 20}\n",
         "'samples' on line 11, first given on line 11"),
    ]
    for text, where in cases:
        with pytest.raises(ConfigParseError, match=re.escape(f"case.yaml: repeated key {where}")):
            load_scenario(_write(tmp_path, text))
    # keys a merge key brings in may be overridden: YAML says the mapping's own win
    merged = yaml.load("base: &b {x: 1, y: 2}\nuse: {<<: *b, y: 3}\n",
                       Loader=scenario._scenario_loader(loader))
    assert merged == {"base": {"x": 1, "y": 2}, "use": {"x": 1, "y": 3}}


# what PyYAML's SafeConstructor raises for each tagged empty scalar
TAGGED_EMPTY = {"float": IndexError, "int": IndexError, "bool": KeyError,
                "timestamp": AttributeError}


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_a_tagged_scalar_pyyaml_cannot_build_is_a_parse_error(tmp_path, monkeypatch, loader):
    """Each tagged empty scalar names its tag; a mapping tag on a scalar or a
    list, built after construct_object returns, gets PyYAML's own message."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    for tag, slip in TAGGED_EMPTY.items():
        path = _write(tmp_path, MINIMAL + f'tol: !!{tag} ""\n', name=f"{tag}.yaml")
        with pytest.raises(ConfigParseError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: cannot build tag:yaml.org,2002:{tag} "
                                         f"on line 10, column 6: {slip.__name__}: ")
    for tag, value, kind in [(tag, value, kind) for tag in ("map", "set")
                             for value, kind in (("abc", "scalar"), ("[a, b]", "sequence"))]:
        path = _write(tmp_path, MINIMAL + f"tol: !!{tag} {value}\n", name=f"{tag}.yaml")
        with pytest.raises(ConfigParseError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: expected a mapping node, but found {kind}")
        assert main(["run", str(path)]) == 1


def _alias_levels(levels: int, name="bomb") -> str:
    """A scenario whose C holds ``levels`` lists, each of ten aliases to the
    one before: 10**levels scalars once expanded, from a file of a few
    hundred bytes."""
    rows = ["    - &l1 [" + ", ".join(["0.5"] * 10) + "]"]
    rows += [f"    - &l{k} [" + ", ".join([f"*l{k - 1}"] * 10) + "]"
             for k in range(2, levels + 1)]
    return MINIMAL.replace("case", name).replace(ROWS, "\n" + "\n".join(rows))


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_aliases_that_expand_past_the_file_size_are_refused_at_once(
        tmp_path, monkeypatch, loader):
    """Seven levels, 10**7 scalars, would cost numpy about half a second and
    185 MB to expand before its shape error; a list that holds itself
    expands without end.  Both are refused on the composed nodes, before
    PyYAML constructs anything."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
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
    for loader in ("chosen", "SafeLoader"):
        child = _child("-c", capped, loader, str(path), OPENBLAS_NUM_THREADS="1")
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith(f"ConfigParseError: {path}: aliases expand to more than")


def _anchored_p0(text: str, rows: int = 3) -> str:
    """``text`` with its one ``p0`` vector given once, anchored, then reused."""
    vector = re.search(r"  p0: (\[.*\])\n", text).group(1)
    reused = "  p0:\n    - &p0 " + vector + "\n" + "    - *p0\n" * (rows - 1)
    return text.replace(f"  p0: {vector}\n", reused)


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_files_the_alias_bound_must_pass(tmp_path, monkeypatch, loader):
    """Every bundled file and a generated one hold fewer scalars than
    characters, so the bound cannot refuse them even when the walk runs; a
    generated file that reuses an anchored start loads as if written out."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
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


@pytest.mark.parametrize("loader", [scenario.YAML_LOADER, yaml.SafeLoader],
                         ids=["chosen", "SafeLoader"])
def test_cli_batch_goes_on_past_every_hostile_file(tmp_path, capsys, monkeypatch, loader):
    """Valid files on both sides of a tagged empty scalar, an alias bomb and a
    load that raises something no loader names: one summary line per file in
    file order, and the valid files write what they write alone."""
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    d = tmp_path / "scn"
    d.mkdir()
    ra = (SCENARIO_DIR / "three_node_ra.yaml").read_text()
    (d / "a.yaml").write_text((SCENARIO_DIR / "three_node_no_ra.yaml").read_text())
    (d / "b.yaml").write_text(ra.replace("three_node_ra", "b") + 'tol: !!float ""\n')
    (d / "c.yaml").write_text(_alias_levels(7, name="c"))
    (d / "d.yaml").write_text(MINIMAL.replace("case", "d"))
    (d / "e.yaml").write_text(ra)
    load = cli.load_scenario

    def raising(path, **overrides):
        if Path(path).stem == "d":
            raise IndexError("string index out of range")
        return load(path, **overrides)

    monkeypatch.setattr(cli, "load_scenario", raising)
    assert main(["batch", str(d), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["three_node_no_ra", "b", "c", "d",
                                                      "three_node_ra"]
    assert lines[0].startswith("three_node_no_ra: converged")
    assert lines[1].startswith("b: error after 0 iteration(s) error: ConfigParseError: "
                               f"{d / 'b.yaml'}: cannot build tag:yaml.org,2002:float on line 21")
    assert lines[2].startswith("c: error after 0 iteration(s) error: ConfigParseError: "
                               f"{d / 'c.yaml'}: aliases expand to more than")
    assert lines[3] == "d: error after 0 iteration(s) error: IndexError: string index out of range"
    assert lines[4].startswith("three_node_ra: converged")
    for stem in "ae":
        assert main(["run", str(d / f"{stem}.yaml"), "--out", str(tmp_path / "alone")]) == 0
    capsys.readouterr()
    written = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert written == {p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}
    assert {"three_node_no_ra_traj1.csv", "three_node_ra_report.txt"} <= set(written)


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
for loader in (scenario.YAML_LOADER, yaml.SafeLoader):
    scenario.YAML_LOADER = loader
    for path in sys.argv[1:]:
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
    child = _child("-c", LOAD_ALL_IN_CHILD, *map(str, paths), timeout=60)
    assert child.returncode == 0, child.stderr
    ends = dict(eval(child.stdout))
    assert sum(ends.values()) == 2 * len(paths)
    assert set(ends) <= {"Scenario", "ConfigParseError", "ConfigValidationError"}
    assert min(ends.get(end, 0) for end in ("Scenario", "ConfigParseError",
                                            "ConfigValidationError")) >= 10, ends


def test_network_invariants_are_named_in_the_error(tmp_path):
    off = MINIMAL.replace("[0.0, 1.0]", "[0.0, 0.99]")
    with pytest.raises(ConfigValidationError, match="row_stochastic") as err:
        load_scenario(_write(tmp_path, off))
    assert "row 1" in str(err.value)
    zeros = MINIMAL.replace("a: [0.5, 0.5]", "a: [0.0, 0.0]")
    with pytest.raises(ConfigValidationError, match="not_all_fully_stubborn"):
        load_scenario(_write(tmp_path, zeros))
    no_c = MINIMAL.replace("  C:\n    - [0.0, 1.0]\n    - [1.0, 0.0]\n", "")
    with pytest.raises(ConfigValidationError, match="case: network section must define C and a"):
        load_scenario(_write(tmp_path, no_c))


@pytest.mark.filterwarnings("error")
def test_subnormal_susceptibility_is_one_config_error(tmp_path, capsys):
    """``a: [1.0e-320, 0.5]`` would overflow the two-sided box's bound
    (1 + a)/(4a); validation rejects it before any numpy warning."""
    tiny = MINIMAL.replace("case", "tiny").replace("a: [0.5, 0.5]", "a: [1.0e-320, 0.5]")
    tiny += "outputs:\n  - invariant_test: {box: two_sided, samples: 10}\n"
    message = "tiny: invalid network: susceptibility_range: a[1] = 1e-320 is subnormal"
    with pytest.raises(ConfigValidationError, match=re.escape(message)):
        load_scenario(_write(tmp_path, tiny))
    (tmp_path / "scn").mkdir()
    path = tmp_path / "scn" / "tiny.yaml"
    path.write_text(tiny)
    (tmp_path / "scn" / "z.yaml").write_text(MINIMAL.replace("case", "z"))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(
        f"tiny: error after 0 iteration(s) error: ConfigValidationError: {message}")
    assert lines[1].startswith("z: converged")


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


@pytest.mark.parametrize("old, new, message", [
    ("mode:", "max_iters: 5\nmode:", "case: unknown key 'max_iters'; expected one of"),
    ("  a: [0.5, 0.5]", "  a: [0.5, 0.5]\n  b: [0.5, 0.5]", "case: network unknown key 'b'"),
    ("  p0: [0.5, 0.5]", "  simplex_random: {sead: 3}", "case: simplex_random unknown key 'sead'"),
    ("  p0: [0.5, 0.5]", "  p0: [0.5, 0.5]\noutputs:\n  - invariant_test: {sample: 10}",
     "case: invariant_test unknown key 'sample'"),
    ("  p0: [0.5, 0.5]", "  p0: [0.5, 0.5]\noutputs:\n  - condition_report: incoming_influence_cap",
     "case: condition_report needs a list of condition ids"),
], ids=["top_level", "network", "sampler", "invariant_test", "condition_report_string"])
def test_misspelt_keys_fail_loudly(tmp_path, old, new, message):
    with pytest.raises(ConfigValidationError, match=message):
        load_scenario(_write(tmp_path, MINIMAL.replace(old, new)))


def test_mode_and_gamma_pairing(tmp_path):
    unknown = MINIMAL.replace("mode: perception_ra", "mode: telepathy")
    with pytest.raises(ConfigValidationError, match="unknown mode"):
        load_scenario(_write(tmp_path, unknown))
    needs = MINIMAL.replace("mode: perception_ra", "mode: perception_no_ra")
    with pytest.raises(ConfigValidationError, match="needs a gamma"):
        load_scenario(_write(tmp_path, needs))
    extra = MINIMAL.replace("mode: perception_ra", "mode: perception_ra\ngamma: [0.1, 0.2]")
    with pytest.raises(ConfigValidationError, match="takes no gamma"):
        load_scenario(_write(tmp_path, extra))
    out_of_range = needs.replace("initial:", "gamma: [0.5, 1.5]\ninitial:")
    with pytest.raises(ConfigValidationError, match=r"\[0, 1\]"):
        load_scenario(_write(tmp_path, out_of_range))


def test_non_finite_gamma_is_rejected(tmp_path):
    nan_gamma = MINIMAL.replace("mode: perception_ra", "mode: perception_no_ra\ngamma: [0.5, .nan]")
    with pytest.raises(ConfigValidationError, match="gamma must be finite; entry 2"):
        load_scenario(_write(tmp_path, nan_gamma))


def test_non_finite_start_is_rejected(tmp_path):
    inf_start = MINIMAL.replace("p0: [0.5, 0.5]", "p0: [.inf, 0.5]")
    with pytest.raises(ConfigValidationError, match=r"p0\[0\] must be finite; entry 1"):
        load_scenario(_write(tmp_path, inf_start))


def test_initial_block_validation(tmp_path):
    missing = MINIMAL.replace("initial:\n  p0: [0.5, 0.5]\n", "")
    with pytest.raises(ConfigValidationError, match="exactly one of"):
        load_scenario(_write(tmp_path, missing))
    short = MINIMAL.replace("p0: [0.5, 0.5]", "p0: [0.5]")
    with pytest.raises(ConfigValidationError, match="length 2"):
        load_scenario(_write(tmp_path, short))
    unknown = MINIMAL.replace("p0:", "warm_start:")
    with pytest.raises(ConfigValidationError, match="unknown initial spec"):
        load_scenario(_write(tmp_path, unknown))
    direct = MINIMAL.replace("mode: perception_ra", "mode: social_power\ngamma: [0.1, 0.2]")
    with pytest.raises(ConfigValidationError, match="no initial block"):
        load_scenario(_write(tmp_path, direct))
    empty = MINIMAL.replace("p0: [0.5, 0.5]", "p0: []")
    with pytest.raises(ConfigValidationError, match="non-empty list of vectors"):
        load_scenario(_write(tmp_path, empty))


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


def test_output_requests_are_validated(tmp_path):
    for snippet, message in [
        ("outputs:\n  - crystal_ball\n", "unknown output kind"),
        ("outputs:\n  - condition_report: []\n", "needs a list"),
        ("outputs:\n  - condition_report: [flattery]\n", "unknown condition id"),
        ("outputs:\n  - invariant_test: {box: moon}\n", "unknown box"),
        ("outputs:\n  - invariant_test: {box: [two_sided]}\n", "unknown box"),
        ("outputs:\n  - invariant_test: {samples: 0}\n", "must be positive"),
        ("outputs:\n  - trajectory_csv: {pretty: true}\n", "takes no options"),
        ("outputs:\n  trajectory_csv: null\n", "outputs must be a list"),
        ("outputs:\n  - {trajectory_csv: null, equilibrium_report: null}\n",
         "each output is a string or a single-key mapping"),
        ("outputs:\n  - invariant_test: [1]\n", "invariant_test options must be a mapping"),
    ]:
        with pytest.raises(ConfigValidationError, match=message):
            load_scenario(_write(tmp_path, MINIMAL + snippet))


def test_repeated_output_requests_are_config_errors(tmp_path, capsys):
    """A repeat would write both sections to the report file but keep only the
    last in ScenarioResult.reports and on ``fjpower report``'s stdout."""
    for snippet, repeat in [
        ("  - invariant_test: {samples: 10}\n  - invariant_test: {seed: 3}\n",
         "invariant_test on the 'two_sided' box"),
        ("  - condition_report: [democracy, democracy]\n", "condition 'democracy'"),
        ("  - condition_report: [democracy]\n  - condition_report: [incoming_influence_cap, "
         "democracy]\n", "condition 'democracy'"),
        ("  - trajectory_csv\n  - trajectory_csv\n", "output trajectory_csv"),
        ("  - equilibrium_report\n  - {equilibrium_report: null}\n", "output equilibrium_report"),
    ]:
        message = re.escape(f"case: {repeat} is requested twice")
        with pytest.raises(ConfigValidationError, match=message):
            load_scenario(_write(tmp_path, MINIMAL + "outputs:\n" + snippet))
    distinct = ("outputs:\n  - invariant_test: {samples: 10}\n"
                "  - invariant_test: {box: nonneg, samples: 10}\n"
                "  - condition_report: [democracy]\n"
                "  - condition_report: [incoming_influence_cap]\n")
    assert len(load_scenario(_write(tmp_path, MINIMAL + distinct)).outputs) == 4
    (tmp_path / "scn").mkdir()
    (tmp_path / "scn" / "a.yaml").write_text(
        MINIMAL.replace("case", "a") + "outputs:\n  - trajectory_csv\n  - trajectory_csv\n")
    (tmp_path / "scn" / "b.yaml").write_text(MINIMAL.replace("case", "b"))
    assert main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("a: error after 0 iteration(s) error: ConfigValidationError: "
                        "a: output trajectory_csv is requested twice")
    assert lines[1].startswith("b: converged")


def test_oversized_integer_literals_are_config_errors(tmp_path):
    # whole numbers past float's range are rejected, not an OverflowError
    big = "1" + "0" * 400
    for text, message in [
        (MINIMAL + f"max_iter: {big}\n", "max_iter must be positive, a whole number; got 1000"),
        (MINIMAL + f"seed: {big}\n", "seed must be non-negative, a whole number; got 1000"),
        (MINIMAL + f"outputs:\n  - invariant_test: {{samples: {big}}}\n",
         "invariant_test samples must be positive"),
        (MINIMAL.replace("[0.0, 1.0]", f"[0.0, {big}]"), "network arrays are not numeric"),
        (MINIMAL.replace("p0: [0.5, 0.5]", f"p0: [0.5, {big}]"), "p0.0. is not a numeric vector"),
    ]:
        with pytest.raises(ConfigValidationError, match=message):
            load_scenario(_write(tmp_path, text))
    # Python caps int <-> str conversion at 4300 digits (3.11, and 3.10.7 on),
    # so PyYAML cannot even build such a literal; without the cap it is just too big
    giant = _write(tmp_path, MINIMAL + "max_iter: 1" + "0" * 5000 + "\n")
    capped = hasattr(sys, "get_int_max_str_digits")
    with pytest.raises(ConfigParseError if capped else ConfigValidationError):
        load_scenario(giant)


def test_stop_parameters_and_name_are_validated(tmp_path):
    with pytest.raises(ConfigValidationError, match="tol"):
        load_scenario(_write(tmp_path, MINIMAL + "tol: 0\n"))
    with pytest.raises(ConfigValidationError, match="max_iter"):
        load_scenario(_write(tmp_path, MINIMAL + "max_iter: 0\n"))
    for bad in ("name: a/b", 'name: "a\\0b"', "name:"):
        with pytest.raises(ConfigValidationError, match="filename fragment"):
            load_scenario(_write(tmp_path, MINIMAL.replace("name: case", bad)))


@pytest.mark.parametrize("snippet, message", [
    ("tol: abc\n", "case: tol must be positive, a finite number; got 'abc'"),
    ("tol: .nan\n", "tol must be positive, a finite number; got nan"),
    ("tol: .inf\n", "tol must be positive, a finite number; got inf"),
    ("tol: true\n", "tol must be positive"),
    ("max_iter: 2.5\n", "max_iter must be positive, a whole number; got 2.5"),
    ("max_iter: -3\n", "max_iter must be positive"),
    ("seed: -1\n", "seed must be non-negative, a whole number; got -1"),
    ("seed: x\n", "seed must be non-negative"),
])
def test_scalar_settings_are_validated(tmp_path, snippet, message):
    with pytest.raises(ConfigValidationError, match=message):
        load_scenario(_write(tmp_path, MINIMAL + snippet))


def test_numeric_strings_are_read_as_numbers(tmp_path):
    # YAML 1.1 reads 1e-6 (no decimal point) as a string
    scn = load_scenario(_write(tmp_path, MINIMAL + "tol: 1e-6\nmax_iter: '50'\n"))
    assert scn.tol == 1e-6 and scn.max_iter == 50


@pytest.mark.parametrize("initial, message", [
    ("simplex_random: {count: 0}", "simplex_random count must be positive"),
    ("simplex_random: {count: -1}", "simplex_random count must be positive"),
    ("simplex_random: {count: 1.5}", "simplex_random count must be positive"),
    ("simplex_random: {seed: -2}", "simplex_random seed must be non-negative"),
    ("uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, 1.0], count: 0}",
     "uniform_in_box count must be positive"),
    ("simplex_random: [3]", "simplex_random options must be a mapping"),
    ("uniform_in_box: {mu: [0.5, 0.0], nu: [0.25, 1.0]}",
     "case: uniform_in_box lower bound exceeds upper at coordinate 1"),
    ("uniform_in_box: {mu: [-1.0e308, 0.0], nu: [1.0e308, 1.0]}",
     "case: uniform_in_box cannot sample a box whose width exceeds the float range"),
    # 10^13 starts of 2 floats are 146 TiB, past a 47-bit address space, so the
    # allocation fails whatever the host's overcommit policy
    ("simplex_random: {count: 10000000000000}",
     "case: simplex_random count 10000000000000 needs more memory than is available"),
    ("uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, 1.0], count: 10000000000000}",
     "case: uniform_in_box count 10000000000000 needs more memory than is available"),
    # past numpy's largest array, where the draw raises ValueError, not MemoryError
    ("simplex_random: {count: 10000000000000000000}",
     "case: simplex_random count 10000000000000000000 needs more memory than is available"),
    ("uniform_in_box: {mu: [0.0, 0.0], nu: [1.0, 1.0], count: 10000000000000000000}",
     "case: uniform_in_box count 10000000000000000000 needs more memory than is available"),
])
def test_sampler_settings_are_validated(tmp_path, initial, message):
    text = MINIMAL.replace("  p0: [0.5, 0.5]", "  " + initial)
    with pytest.raises(ConfigValidationError, match=message):
        load_scenario(_write(tmp_path, text))


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
    scn = load_scenario(SCENARIO_DIR / "three_node_ra.yaml")
    run_scenario(scn, out_dir=tmp_path / "one")
    run_scenario(scn, out_dir=tmp_path / "two")
    first = (tmp_path / "one" / "three_node_ra_traj1.csv").read_bytes()
    second = (tmp_path / "two" / "three_node_ra_traj1.csv").read_bytes()
    assert first == second


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
    """One pass over the requests writes each output in turn; the CSV paths
    still come before the report's, and a report that fails stops the
    outputs requested after it."""
    text = MINIMAL + "outputs:\n  - condition_report: [incoming_influence_cap]\n  - trajectory_csv\n"
    result = run_scenario(load_scenario(_write(tmp_path, text)), out_dir=tmp_path / "out")
    assert result.artifacts == (str(tmp_path / "out" / "case_traj1.csv"),
                                str(tmp_path / "out" / "case_report.txt"))
    # no box of this network certifies, so the trial has to draw its samples
    star = (SCENARIO_DIR / "star_partial" / "star_partial_a.yaml").read_text()
    star = star[:star.index("outputs:")] + "outputs:\n"
    csv, draw = "  - trajectory_csv\n", "  - invariant_test: {samples: 10000000000000}\n"
    for k, (outputs, csv_written) in enumerate(((csv + draw, True), (draw + csv, False))):
        out = tmp_path / f"out{k}"
        with pytest.raises(ConfigValidationError, match="cannot draw"):
            run_scenario(load_scenario(_write(tmp_path, star + outputs)), out_dir=out)
        assert (out / "star_partial_a_traj1.csv").exists() == csv_written
        assert not (out / "star_partial_a_report.txt").exists()


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
    code = main(["batch", str(SCENARIO_DIR / "star_partial"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
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
    code = main(["batch", str(SCENARIO_DIR), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
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


def test_cli_batch_surfaces_load_failures(tmp_path, capsys):
    (tmp_path / "scn").mkdir()
    (tmp_path / "scn" / "good.yaml").write_text(MINIMAL)
    (tmp_path / "scn" / "broken.yaml").write_text("mode: [")
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "broken: error" in out
    assert "case: converged" in out


def test_cli_batch_goes_on_past_a_file_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "scn").mkdir()
    (tmp_path / "scn" / "a.yaml").write_text(MINIMAL.replace("case", "a"))
    (tmp_path / "scn" / "b.yaml").write_bytes(b"name: x\n\xff\xfe: 1\n")
    (tmp_path / "scn" / "c.yaml").write_text(MINIMAL.replace("case", "c"))
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0] for line in lines] == ["a", "b", "c"]
    assert lines[1].startswith("b: error after 0 iteration(s) error: ConfigParseError: cannot read")
    assert lines[2].startswith("c: converged")


def test_cli_batch_goes_on_past_a_file_nested_too_deep_for_the_python_loader(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "YAML_LOADER", yaml.SafeLoader)
    (tmp_path / "scn").mkdir()
    (tmp_path / "scn" / "a.yaml").write_text(DEEP_INDENTED)
    (tmp_path / "scn" / "b.yaml").write_text(MINIMAL.replace("case", "b"))
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0] for line in lines] == ["a", "b"]
    assert lines[0].startswith("a: error after 0 iteration(s) error: ConfigParseError: ")
    assert lines[0].endswith("a.yaml: collections nest deeper than 100 levels")
    assert lines[1].startswith("b: converged")


def test_cli_batch_runs_good_files_beside_a_bad_setting(tmp_path, capsys):
    (tmp_path / "scn").mkdir()
    (tmp_path / "scn" / "good.yaml").write_text(MINIMAL + "outputs: [trajectory_csv]\n")
    (tmp_path / "scn" / "bad.yaml").write_text(MINIMAL.replace("case", "bad") + "tol: abc\n")
    (tmp_path / "scn" / "box.yaml").write_text(MINIMAL.replace("case", "box").replace(
        "p0: [0.5, 0.5]", "uniform_in_box: {mu: [0.5, 0.0], nu: [0.25, 1.0]}"))
    (tmp_path / "scn" / "big.yaml").write_text(MINIMAL.replace("case", "big").replace(
        "p0: [0.5, 0.5]", "simplex_random: {count: 10000000000000}"))
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "bad: error after 0 iteration(s) error: ConfigValidationError: bad: tol" in out
    assert ("box: error after 0 iteration(s) error: ConfigValidationError: "
            "box: uniform_in_box lower bound exceeds upper") in out
    assert ("big: error after 0 iteration(s) error: ConfigValidationError: "
            "big: simplex_random count 10000000000000 needs more memory") in out
    assert "case: converged" in out
    assert (tmp_path / "out" / "case_traj1.csv").exists()


def test_cli_batch_reports_oversized_integers_per_file(tmp_path, capsys):
    (tmp_path / "scn").mkdir()
    for name, digits in (("a", 400), ("b", 5000)):
        text = MINIMAL.replace("case", name) + "max_iter: 1" + "0" * digits + "\n"
        (tmp_path / "scn" / f"{name}.yaml").write_text(text)
    (tmp_path / "scn" / "c.yaml").write_text(MINIMAL.replace("case", "c"))
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0] for line in lines] == ["a", "b", "c"]
    assert lines[0].startswith("a: error after 0 iteration(s) error: ConfigValidationError: a: max_iter")
    assert lines[1].startswith("b: error after 0 iteration(s) error: Config")
    assert lines[2].startswith("c: converged")


def test_cli_batch_goes_on_past_a_box_that_is_not_a_name(tmp_path, capsys):
    """A list is no box name: its file fails as a config error, and the files
    sorted after it still run."""
    (tmp_path / "scn").mkdir()
    (tmp_path / "scn" / "a.yaml").write_text(
        MINIMAL.replace("case", "a") + "outputs:\n  - invariant_test: {box: [two_sided]}\n")
    (tmp_path / "scn" / "b.yaml").write_text(
        MINIMAL.replace("case", "b") + "outputs: [trajectory_csv]\n")
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0] for line in lines] == ["a", "b"]
    assert lines[0].startswith(
        "a: error after 0 iteration(s) error: ConfigValidationError: a: unknown box ['two_sided']")
    assert lines[1].startswith("b: converged")
    assert (tmp_path / "out" / "b_traj1.csv").exists()


def test_cli_rejects_oversized_integer_overrides(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    for flag in ("--seed", "--max-iter"):
        assert main(["run", str(path), "--out", str(tmp_path), flag, "1" + "0" * 400]) == 1
        assert "must be" in capsys.readouterr().err


def test_cli_batch_prints_summaries_in_file_order(tmp_path, capsys):
    (tmp_path / "scn").mkdir()
    (tmp_path / "scn" / "a.yaml").write_text(MINIMAL.replace("case", "a"))
    (tmp_path / "scn" / "b.yaml").write_text(MINIMAL.replace("case", "b") + "tol: abc\n")
    (tmp_path / "scn" / "c.yaml").write_text(MINIMAL.replace("case", "c"))
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0] for line in lines] == ["a", "b", "c"]
    assert lines[1].startswith("b: error")


def test_cli_batch_rejects_a_name_an_earlier_file_took(tmp_path, capsys):
    """Two files named alike would write the same output files, the later over
    the earlier; the later one is an error instead, and the batch exits 1."""
    (tmp_path / "scn").mkdir()
    outputs = "outputs: [trajectory_csv]\n"
    (tmp_path / "scn" / "a.yaml").write_text(MINIMAL.replace("case", "same") + outputs)
    (tmp_path / "scn" / "b.yaml").write_text(
        MINIMAL.replace("case", "same").replace("p0: [0.5, 0.5]", "p0: [0.9, 0.1]") + outputs)
    (tmp_path / "scn" / "c.yaml").write_text(MINIMAL.replace("case", "c"))
    code = main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
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


def test_cli_invariant_test_too_large_to_draw_is_one_error_line(tmp_path, capsys):
    # no box of this network certifies, so the trial has to draw its samples
    text = (SCENARIO_DIR / "star_partial" / "star_partial_a.yaml").read_text()
    (tmp_path / "scn").mkdir()
    for samples in (10 ** 13, 10 ** 19):  # past the address space; past numpy's largest array
        path = tmp_path / "scn" / f"big{samples}.yaml"
        path.write_text(text.replace("name: star_partial_a", f"name: big{samples}").replace(
            "condition_report: [star_center_load]", f"invariant_test: {{samples: {samples}}}"))
        message = (f"big{samples}: invariant_test cannot draw {samples} samples "
                   "from the two_sided box: ")
        for command in ("run", "report"):
            assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
            assert "Traceback" not in err
    assert main(["batch", str(tmp_path / "scn"), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": invariant_test")[0] for line in lines] == [
        f"big{s}: error after 0 iteration(s) error: ConfigValidationError: big{s}"
        for s in (10 ** 13, 10 ** 19)]


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


def test_cli_missing_config_is_an_error(capsys):
    assert main(["run", "/does/not/exist.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


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
