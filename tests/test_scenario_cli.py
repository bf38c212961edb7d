"""Scenario files, artifact export, and the command-line interface."""
import re
import sys
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
from fjpower import network, scenario
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


def _generated_text(rng, name, mode, n) -> str:
    """A scenario written as the benchmark generates them: flow-style rows of
    full-precision floats and every output kind."""
    net = random_network(rng, n)
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
                       Loader=scenario._unique_keys(loader))
    assert merged == {"base": {"x": 1, "y": 2}, "use": {"x": 1, "y": 3}}


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
    # no box of this network certifies, so each trial draws and its exits show its seed
    text = (SCENARIO_DIR / "star_partial" / "star_partial_a.yaml").read_text().replace(
        "condition_report: [star_center_load]", "invariant_test: {box: star_loose, samples: 200}")
    plain = _write(tmp_path, text + "seed: 4\n", name="plain.yaml")
    own = _write(tmp_path, text.replace("samples: 200}", "samples: 200, seed: 9}") + "seed: 4\n",
                 name="own.yaml")
    net = load_scenario(plain).net

    def exits(report):
        return report.exit_count, report.examples.tobytes()

    def drawn(path, **override):
        result = run_reports(load_scenario(path, **override), out_dir=tmp_path / "out")
        return exits(result.reports["invariance_star_loose"])

    expected = {seed: exits(one_step_invariance_test(
        net, star_invariant_box(net, loose=True), 200, seed=seed)) for seed in (4, 9, 11)}
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


def test_cli_batch_of_the_bundled_scenarios_exits_zero(tmp_path, capsys):
    """Every top-level bundled scenario succeeds, and each equilibrium section
    is the report of the search under the file's own settings."""
    code = main(["batch", str(SCENARIO_DIR), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    for name in ("star_full_center", "three_node_power"):
        scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        eq = solve_equilibrium(scn.net, seed=scn.seed, tol=scn.tol, max_iter=scn.max_iter)
        text = (tmp_path / f"{name}_report.txt").read_text()
        section = text.partition("== equilibrium ==\n")[2].split("\n== ", 1)[0]
        assert section == f"{eq}\n", name
        if name == "star_full_center":
            closed = star_equilibrium_closed_form(scn.net)
            assert np.max(np.abs(eq.p_star - closed)) < 1e-9


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
