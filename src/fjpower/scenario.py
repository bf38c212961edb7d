"""Scenario files: loading, validation, execution, artifact export.

A scenario is a YAML document pairing a network with one dynamics mode, one
or more initial vectors, stop parameters, and a list of requested artifacts.
The grammar (documented in the README) is plain key/value with nested
sections — hand-editable and diff-friendly:

    name: three_node_relay
    network:
      C:
        - [0.0, 1.0, 0.0]
        - [1.0, 0.0, 0.0]
        - [1.0, 0.0, 0.0]
      a: [0.7, 0.9, 0.9]
    gamma: [0.2, 0.5, 0.0]          # fixed-self-weight modes only
    mode: perception_no_ra
    initial:
      p0:                            # one vector, or a list of vectors
        - [0.2, 0.3, 0.5]
    tol: 1.0e-12
    max_iter: 100000
    seed: 0
    outputs:
      - trajectory_csv
      - {condition_report: [incoming_influence_cap]}

Trajectory CSVs carry a ``step,p_1,...,p_n`` header, one full-precision row
per recorded step (every step up to 10^4, every 10th beyond, final row always
included), and are byte-identical across repeated runs of the same scenario.
"""
from __future__ import annotations

import contextlib
import datetime
import functools
import math
import os
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
import yaml

from . import analysis, simkit
from .errors import ConfigParseError, ConfigValidationError
from .fj_core import (
    compute_social_power,
    fj_opinion_map,
    step_power_evolution,
    step_power_evolution_single,
)
from .network import InfluenceNetwork
from .perception import (
    CONVERGED,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DIVERGED,
    ISSUE,
    MAX_ITER,
    NONFINITE,
    STEP,
    Trajectory,
    run_to_convergence,
    step_pagerank_ra,
    step_perception_no_ra,
    step_perception_ra,
)

class Mode(NamedTuple):
    """One row of the mode table: whether the mode reads ``gamma``, the clock
    its runs and condition reports use (issue- or step-indexed), and its
    runner ``run(net, gamma, p0, tol, max_iter) -> Trajectory``."""

    needs_gamma: bool
    timescale: str
    run: Callable[..., Trajectory]


# The runners look up the steppers, run_to_convergence and
# simkit.run_distributed as module globals at call time, never binding them
# here, so patching those attributes (to trace or stub them) reaches every mode.

def _iterate(needs_gamma: bool, timescale: str, make_stepper) -> Mode:
    """Row whose runner iterates ``make_stepper(net, gamma, p0)`` under the
    shared stop rules, labelling the run with the row's timescale."""
    return Mode(needs_gamma, timescale, lambda net, gamma, p0, tol, max_iter: run_to_convergence(
        make_stepper(net, gamma, p0), p0, tol, max_iter, timescale=timescale))


def _power_evolution_single(net, gamma, x0):
    """Stepper that carries the per-step power-evolution state V between steps."""
    V = np.eye(net.n)

    def step(x):
        nonlocal V
        V, x_next = step_power_evolution_single(net, V, x)
        return x_next
    return step


MODE_TABLE = {
    # a direct solve, recorded as a converged one-state run; there is no start, p0 is None
    "social_power": Mode(True, ISSUE, lambda net, gamma, p0, tol, max_iter: Trajectory(
        compute_social_power(net, gamma)[None, :], CONVERGED, tol=tol)),
    "perception_no_ra": _iterate(True, ISSUE,
        lambda net, gamma, p0: lambda p: step_perception_no_ra(net, gamma, p)),
    "perception_ra": _iterate(False, ISSUE,
        lambda net, gamma, p0: lambda p: step_perception_ra(net, p)),
    "perception_ra_single": _iterate(False, STEP,
        lambda net, gamma, p0: lambda p: step_perception_ra(net, p)),
    "power_evolution": _iterate(False, ISSUE,
        lambda net, gamma, p0: lambda x: step_power_evolution(net, x)),
    "power_evolution_single": _iterate(False, STEP, _power_evolution_single),
    "pagerank_ra": _iterate(False, ISSUE,
        lambda net, gamma, p0: lambda p: step_pagerank_ra(net, p)),
    "fj_opinions": _iterate(True, STEP,  # opinions anchored to the start y0 = p0
        lambda net, gamma, y0: fj_opinion_map(net, gamma, y0)),
    # message-passing runs of the issue-indexed perception maps
    "distributed_no_ra": Mode(True, ISSUE, lambda net, gamma, p0, tol, max_iter: simkit.run_distributed(
        net, "no_ra", p0, gamma, tol, max_iter)),
    "distributed_ra": Mode(False, ISSUE, lambda net, gamma, p0, tol, max_iter: simkit.run_distributed(
        net, "ra", p0, None, tol, max_iter)),
}

MODES = tuple(MODE_TABLE)

GAMMA_MODES = tuple(mode for mode, row in MODE_TABLE.items() if row.needs_gamma)

OUTPUT_KINDS = ("trajectory_csv", "equilibrium_report", "condition_report", "invariant_test")

BOX_BUILDERS = {
    "two_sided": analysis.two_sided_box,
    "nonneg": analysis.nonneg_box,
    "star": analysis.star_invariant_box,
    "star_loose": lambda net: analysis.star_invariant_box(net, loose=True),
}

# libyaml's parser when PyYAML was built with it; both loaders build documents
# with SafeConstructor and the same resolver, so they read files identically
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# deeper nesting is a parse error: both composers recurse once a level, libyaml's to a
# SIGSEGV past about 20 000; the grammar needs 4
MAX_NESTING = 100


@functools.cache
def _scenario_loader(loader: type) -> type:
    """``loader`` with per-document memos and checks: it resolves the tag of
    each distinct plain scalar text, and converts each distinct float text,
    once; while PyYAML composes, it refuses nesting past MAX_NESTING; while
    it constructs, it refuses a repeated key and turns an error other than
    PyYAML's own or a RecursionError that building a node raises into a
    ConstructorError naming the node's tag, line and column.  Growth by
    aliases and merge keys is bounded between the two, in load_scenario."""

    class ScenarioLoader(loader):
        __slots__ = ("_depth",)  # read and written twice a node; a slot is the quickest attribute

        def __init__(self, stream):
            super().__init__(stream)
            self._tags: dict = {}    # plain scalar text -> implicit tag
            self._floats: dict = {}  # float-tagged scalar text -> float
            self._depth = 0          # collections around the node being composed

        def descend_resolver(self, current_node, current_index):
            # both composers call this before each node, and ascend_resolver after it
            if self._depth > MAX_NESTING:
                raise yaml.composer.ComposerError(
                    None, None, f"collections nest deeper than {MAX_NESTING} levels")
            self._depth += 1
            if self.yaml_path_resolvers:
                super().descend_resolver(current_node, current_index)

        def ascend_resolver(self):
            self._depth -= 1
            if self.yaml_path_resolvers:
                super().ascend_resolver()

        def resolve(self, kind, value, implicit):
            # with no path resolvers a plain scalar's tag depends on its text alone
            if kind is not yaml.ScalarNode or not implicit[0] or self.yaml_path_resolvers:
                return super().resolve(kind, value, implicit)
            tag = self._tags.get(value)
            if tag is None:
                tag = self._tags[value] = super().resolve(kind, value, implicit)
            return tag

        def construct_object(self, node, deep=False):
            # a float is immutable and keeps no per-node state, so one per text
            # serves every node, aliases included; keyed by text, -0.0 stays apart from 0.0
            try:
                if node.tag != "tag:yaml.org,2002:float" or type(node) is not yaml.ScalarNode:
                    return super().construct_object(node, deep=deep)
                value = self._floats.get(node.value)
                if value is None:
                    value = self._floats[node.value] = self.construct_yaml_float(node)
                return value
            except (yaml.YAMLError, RecursionError):
                raise
            except Exception as exc:  # noqa: BLE001 — SafeConstructor's own slips:
                # IndexError for `!!float ""` and `!!int ""`, KeyError for `!!bool ""`,
                # AttributeError for `!!timestamp ""`, ValueError past 4300 int digits
                mark = node.start_mark
                raise yaml.constructor.ConstructorError(
                    None, None, f"cannot build {node.tag} on line {mark.line + 1}, "
                    f"column {mark.column + 1}: {type(exc).__name__}: {exc}") from exc

        def construct_mapping(self, node, deep=False):
            # the mapping's own keys, read before a merge key splices in others; a
            # `!!map` or `!!set` tag on a scalar or a list is left to PyYAML's
            # "expected a mapping node", as this runs outside construct_object
            own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"] \
                if isinstance(node, yaml.MappingNode) else []
            mapping = super().construct_mapping(node, deep=deep)
            lines: dict = {}
            for key_node in own:
                key = self.construct_object(key_node, deep=deep)  # built above: a lookup
                line = key_node.start_mark.line + 1
                if key in lines:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {key!r} on line {line}, "
                        f"first given on line {lines[key]}")
                lines[key] = line
            return mapping

    return ScenarioLoader


_COLLECTIONS = (yaml.SequenceNode, yaml.MappingNode)


def _expands_past(root: Optional[yaml.Node], bound: int) -> bool:
    """Whether the composed document ``root`` holds more than ``bound``
    scalars with every alias expanded, an empty list or mapping counting as
    one and a node that holds itself as endless.  An alias is its anchored
    node, so the walk counts each node once, by ``id``, without recursion;
    a merge key's splice is its value's expansion, so the count bounds it
    too.  An alias-free file holds fewer scalars than characters, so
    ``len(text)`` is a bound no valid file reaches."""
    counts: dict[int, Optional[int]] = {}  # id -> expanded scalars; None while open
    stack = [root] if isinstance(root, _COLLECTIONS) else []
    while stack:
        node = stack[-1]
        items = ([item for pair in node.value for item in pair]
                 if isinstance(node, yaml.MappingNode) else node.value)
        inner = [item for item in items if isinstance(item, _COLLECTIONS)]
        if id(node) not in counts:  # first visit: count what it holds, then come back
            counts[id(node)] = None
            if any(counts.get(id(item), 0) is None for item in inner):  # holds an open one
                return True
            stack += {id(item): item for item in inner if id(item) not in counts}.values()
            continue
        stack.pop()
        if counts[id(node)] is None:
            total = sum(counts[id(item)] for item in inner) + len(items) - len(inner) or 1
            if total > bound:
                return True
            counts[id(node)] = total
    return False


CSV_STRIDE_THRESHOLD = 10_000
CSV_STRIDE = 10

ERROR = "error"
REPORT_OK = "report_ok"

_EXIT_BY_STATUS = {CONVERGED: 0, DIVERGED: 2, MAX_ITER: 1, NONFINITE: 1, ERROR: 1, REPORT_OK: 0}

# scalar setting -> (type, whether it must be positive rather than non-negative)
_SETTINGS = {"tol": (float, True), "max_iter": (int, True), "count": (int, True),
             "samples": (int, True), "seed": (int, False)}


def parse_setting(key: str, value, where: str = "") -> Union[int, float]:
    """Parse the scalar setting ``key`` from a file or an override, or raise
    ConfigValidationError naming ``where`` + ``key``.  Numeric strings pass
    (YAML reads ``1e-12`` as one); booleans, NaN and fractional counts do not."""
    kind, positive = _SETTINGS[key]
    try:
        parsed = kind(value)
        finite = math.isfinite(parsed)  # an int past float's range overflows here
    except (TypeError, ValueError, OverflowError):
        parsed, finite = math.nan, False
    exact = not isinstance(value, bool) and not (isinstance(value, float) and parsed != value)
    if not (exact and finite and (parsed > 0 if positive else parsed >= 0)):
        _fail(f"{where}{key} must be {'positive' if positive else 'non-negative'}, "
              f"{'a finite number' if kind is float else 'a whole number'}; got {value!r}")
    return parsed


@dataclass(frozen=True)
class OutputRequest:
    """One requested artifact: a kind plus its (typed) options."""

    kind: str
    condition_ids: tuple[str, ...] = ()
    samples: int = 1000
    box: str = "two_sided"
    seed: int = 0


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    net: InfluenceNetwork
    mode: str
    starts: tuple[np.ndarray, ...]
    gamma: Optional[np.ndarray]
    tol: float
    max_iter: int
    seed: int
    outputs: tuple[OutputRequest, ...]


def _fail(message: str) -> None:
    raise ConfigValidationError(message)


def _choose(name: str, what: str, value, choices) -> str:
    """``value`` when it is one of the names ``choices``, else a failure of
    scenario ``name`` naming ``what``; a non-string (a list, a mapping) is an
    unknown name too."""
    if not (isinstance(value, str) and value in choices):
        _fail(f"{name}: unknown {what} {value!r}; expected one of {choices}")
    return value


def _check_keys(mapping: dict, known: tuple[str, ...], where: str) -> None:
    """Reject the first key of ``mapping`` outside ``known``, so a misspelt
    setting fails loudly rather than falling back to its default."""
    unknown = [key for key in mapping if key not in known]
    if unknown:
        _fail(f"{where}unknown key {unknown[0]!r}; expected one of {known}")


_NUMBERS = {int, float, str}  # a str counts if float() reads it: YAML 1.1 reads 1e-6 as one
# the kinds a refusal names, where numpy read a null as NaN and a boolean as 1.0 or 0.0
_NOT_NUMBERS = {int: "whole numbers too large for a float", bool: "booleans",
                type(None): "nulls", str: "strings", list: "lists", dict: "mappings",
                datetime.date: "dates", datetime.datetime: "timestamps"}


def _number_array(raw, label: str) -> np.ndarray:
    """``raw``, a list of numbers or of rows as long as its first, as floats; else a
    ConfigValidationError naming ``label``, the first other entry and its place."""
    if type(raw) is not list:
        _fail(f"{label} must be a list of numbers, got {reprlib.repr(raw)}")
    matrix = bool(raw) and type(raw[0]) is list
    rows = raw if matrix else [raw]
    for i, row in enumerate(rows if matrix else (), 1):
        if type(row) is not list or len(row) != len(raw[0]):
            _fail(f"{label} must hold rows of {len(raw[0])} numbers; "
                  f"entry {i} is {reprlib.repr(row)}")
    if all(_NUMBERS.issuperset(map(type, row)) for row in rows):
        with contextlib.suppress(ValueError, OverflowError):  # bad text, a huge int: named below
            return np.array(raw, dtype=float)
    for i, row in enumerate(rows, 1):
        for j, x in enumerate(row, 1):
            with contextlib.suppress(TypeError, ValueError, OverflowError):
                float(x if type(x) in _NUMBERS else None)  # float(None): a TypeError
                continue
            shown = x if isinstance(x, datetime.date) else reprlib.repr(x)  # a date as written
            _fail(f"{label} must hold numbers, not {_NOT_NUMBERS.get(type(x), type(x).__name__)}; "
                  f"entry {(i, j) if matrix else j} is {shown}")


def _vector(raw, n: int, label: str) -> np.ndarray:
    v = _number_array(raw, label)
    if v.shape != (n,):
        _fail(f"{label} must have length {n}, got shape {v.shape}")
    bad = np.nonzero(~np.isfinite(v))[0]
    if bad.size:
        _fail(f"{label} must be finite; entry {bad[0] + 1} is {v[bad[0]]}")
    return v


def _parse_outputs(raw, name: str, seed: int) -> tuple[OutputRequest, ...]:
    """The typed output requests; each artifact or report may be asked for
    once, since a repeat would replace the earlier one's result.  An
    ``invariant_test`` without its own ``seed`` draws from the scenario's."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        _fail(f"{name}: outputs must be a list")
    requests: list[OutputRequest] = []
    seen: set[str] = set()

    def claim(what: str) -> None:
        if what in seen:
            _fail(f"{name}: {what} is requested twice")
        seen.add(what)

    for entry in raw:
        if isinstance(entry, str):
            kind, options = entry, None
        elif isinstance(entry, dict) and len(entry) == 1:
            kind, options = next(iter(entry.items()))
        else:
            _fail(f"{name}: each output is a string or a single-key mapping, got {entry!r}")
        _choose(name, "output kind", kind, OUTPUT_KINDS)
        if kind == "condition_report":
            if not isinstance(options, list) or not options:
                _fail(f"{name}: condition_report needs a list of condition ids")
            ids = tuple(options)
            for cid in ids:
                _choose(name, "condition id", cid, analysis.CONDITION_IDS)
                claim(f"condition {cid!r}")
            requests.append(OutputRequest(kind=kind, condition_ids=ids))
        elif kind == "invariant_test":
            options = options or {}
            if not isinstance(options, dict):
                _fail(f"{name}: invariant_test options must be a mapping")
            where = f"{name}: invariant_test "
            _check_keys(options, ("samples", "box", "seed"), where)
            box = _choose(name, "box", options.get("box", OutputRequest.box), sorted(BOX_BUILDERS))
            claim(f"invariant_test on the {box!r} box")
            samples = parse_setting("samples", options.get("samples", OutputRequest.samples), where)
            trial_seed = parse_setting("seed", options.get("seed", seed), where)
            requests.append(OutputRequest(kind=kind, samples=samples, box=box, seed=trial_seed))
        else:
            if options is not None:
                _fail(f"{name}: output {kind} takes no options")
            claim(f"output {kind}")
            requests.append(OutputRequest(kind=kind))
    return tuple(requests)


def _parse_starts(doc: dict, n: int, mode: str, seed: int, name: str) -> tuple[np.ndarray, ...]:
    if mode == "social_power":
        if "initial" in doc:
            _fail(f"{name}: social_power is a direct solve and takes no initial block")
        return ()
    initial = doc.get("initial")
    if not isinstance(initial, dict) or len(initial) != 1:
        _fail(f"{name}: initial must be a mapping with exactly one of "
              "p0 | uniform_in_box | simplex_random")
    key, value = next(iter(initial.items()))
    _choose(name, "initial spec", key, ("p0", "uniform_in_box", "simplex_random"))
    if key == "p0":
        if not isinstance(value, list) or not value:
            _fail(f"{name}: initial.p0 must be a vector or non-empty list of vectors")
        rows = value if isinstance(value[0], list) else [value]
        return tuple(_vector(row, n, f"{name}: initial.p0[{k}]") for k, row in enumerate(rows))
    value = {} if value is None else value
    if not isinstance(value, dict):
        _fail(f"{name}: {key} options must be a mapping")
    where = f"{name}: {key} "
    known = ("count", "seed", "mu", "nu") if key == "uniform_in_box" else ("count", "seed")
    _check_keys(value, known, where)
    count = parse_setting("count", value.get("count", 1), where)
    rng = np.random.default_rng(parse_setting("seed", value.get("seed", seed), where))
    if key == "uniform_in_box":
        mu, nu = (_vector(value.get(bound), n, f"{name}: {key}.{bound}") for bound in ("mu", "nu"))
        try:
            box = analysis.Box(mu, nu)
            box._span()
        except (ValueError, OverflowError) as exc:  # inverted, or wider than the float range
            _fail(f"{where}{exc}")
    try:
        if key == "simplex_random":  # one call draws the bits of `count` single draws
            return tuple(rng.dirichlet(np.ones(n), size=count))
        return tuple(box.sample(rng, count))
    except (MemoryError, ValueError, OverflowError):  # ValueError: past numpy's largest array
        _fail(f"{where}count {count} needs more memory than is available")


def load_scenario(
    path: Union[str, Path],
    tol: Optional[float] = None,
    max_iter: Optional[int] = None,
    seed: Optional[int] = None,
) -> Scenario:
    """Parse and fully validate one scenario file.

    ``tol``, ``max_iter`` and ``seed``, when given, override the file's
    top-level settings before anything is drawn, so an overridden ``seed``
    reaches sampled starts and invariant trials (their own ``seed:`` still wins).
    A file that is not UTF-8 or not YAML raises ConfigParseError.  An unknown key, a
    failed structural or network invariant, or a number list (C, a, gamma, a p0 start,
    mu, nu) with an entry float() cannot read as an int, a float or text, or with rows
    of unequal length, raises ConfigValidationError naming the key or the invariant and
    the (1-based) place and entry: ``network.a must hold numbers, not nulls; entry 2 is None``.
    The YAML guards raise ConfigParseError at three stages: nesting past
    MAX_NESTING while PyYAML composes, aliases and merge keys that expand to
    more scalars than the file has characters on the composed nodes, before
    anything is built, and repeated keys and tags it cannot build while it
    constructs.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    try:
        loader = _scenario_loader(YAML_LOADER)(text)  # SafeLoader reads the text here
        try:
            root = loader.get_single_node()
            if "*" in text and _expands_past(root, len(text)):
                raise ConfigParseError(f"{path}: aliases expand to more than {len(text)} "
                                       "scalars, one per character of the file")
            doc = None if root is None else loader.construct_document(root)
        finally:
            loader.dispose()
    except (yaml.YAMLError, RecursionError) as exc:
        # one line: PyYAML's mark lines without the file name or the source quoted
        # under them; RecursionError: the nesting guard leaves it to a caller deep in its stack
        lines = [line.strip().rstrip(":").replace('in "<unicode string>", ', "")
                 for line in str(exc).splitlines() if not line.startswith("    ")]
        if isinstance(exc, yaml.reader.ReaderError):
            # a character it cannot read is named by its offset, in bytes under
            # libyaml; the text before it breaks lines only where YAML does
            before = text[:exc.position] if issubclass(YAML_LOADER, yaml.reader.Reader) \
                else text.encode()[:exc.position].decode()
            before = (before + "^").splitlines()
            lines[-1] = f"line {len(before)}, column {len(before[-1])}"
        raise ConfigParseError(f"{path}: " + "; ".join(lines)) from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path}: top level must be a mapping")
    raw_name = doc.get("name", path.stem)
    name = str(raw_name)
    # a string or a number, not a bool (`yes`), a list, a mapping or a date
    if type(raw_name) not in (str, int, float) or not name or any(sep in name for sep in "/\\\0"):
        _fail(f"scenario name {raw_name!r} must be a plain filename fragment")
    _check_keys(doc, ("name", "network", "gamma", "mode", "initial", "tol", "max_iter",
                      "seed", "outputs"), f"{name}: ")
    network = doc.get("network")
    if not isinstance(network, dict) or "C" not in network or "a" not in network:
        _fail(f"{name}: network section must define C and a")
    _check_keys(network, ("C", "a"), f"{name}: network ")
    C, a = (_number_array(network[key], f"{name}: network.{key}") for key in ("C", "a"))
    try:
        net = InfluenceNetwork(C=C, a=a)
    except ValueError as exc:  # the network's invariants, checked once, as it is built
        raise ConfigValidationError(f"{name}: {exc}") from exc
    mode = _choose(name, "mode", doc.get("mode"), MODES)
    gamma = doc.get("gamma")
    if MODE_TABLE[mode].needs_gamma:
        if gamma is None:
            _fail(f"{name}: mode {mode} needs a gamma vector")
        gamma = _vector(gamma, net.n, f"{name}: gamma")
        bad = np.flatnonzero((gamma < 0.0) | (gamma > 1.0))
        if bad.size:
            _fail(f"{name}: gamma entries must lie in [0, 1]; entry {bad[0] + 1} is {gamma[bad[0]]}")
    elif gamma is not None:
        _fail(f"{name}: mode {mode} takes no gamma")
    overrides = {"tol": tol, "max_iter": max_iter, "seed": seed}
    tol, max_iter, seed = (
        parse_setting(key, doc.get(key, default), f"{name}: ") if overrides[key] is None
        else parse_setting(key, overrides[key], f"{name}: override ")
        for key, default in (("tol", DEFAULT_TOL), ("max_iter", DEFAULT_MAX_ITER), ("seed", 0)))
    starts = _parse_starts(doc, net.n, mode, seed, name)
    outputs = _parse_outputs(doc.get("outputs"), name, seed)
    return Scenario(
        name=name, net=net, mode=mode, starts=starts, gamma=gamma,
        tol=tol, max_iter=max_iter, seed=seed, outputs=outputs,
    )


def claim_name(taken: dict, name: str, label: str) -> None:
    """Record ``label`` as the batch item that takes the scenario name ``name``, or
    raise ConfigValidationError if an earlier item did: both would write one file set."""
    first = taken.setdefault(name, label)
    if first != label:
        _fail(f"{label} repeats the name {name!r} of {first}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ScenarioResult:
    """Everything one scenario run produced, plus the overall verdict."""

    name: str
    mode: str
    status: str
    iterations: int
    final: Optional[np.ndarray]
    trajectories: tuple[Trajectory, ...] = ()
    reports: dict = field(default_factory=dict)
    artifacts: tuple[str, ...] = ()
    error: Optional[str] = None

    @property
    def exit_code(self) -> int:
        return _EXIT_BY_STATUS.get(self.status, 1)

    def summary_line(self) -> str:
        note = f" error: {self.error}" if self.error else ""
        return f"{self.name}: {self.status} after {self.iterations} iteration(s){note}"


def error_result(name: str, mode: str, exc: Exception) -> ScenarioResult:
    return ScenarioResult(name=name, mode=mode, status=ERROR, iterations=0, final=None,
                          error=f"{type(exc).__name__}: {exc}")


def _csv_steps(total: int) -> list[int]:
    """Recorded step indices: every step up to the threshold, then every
    CSV_STRIDE-th, final step always included."""
    steps = list(range(min(total, CSV_STRIDE_THRESHOLD) + 1))
    steps += range(CSV_STRIDE_THRESHOLD + CSV_STRIDE, total + 1, CSV_STRIDE)
    return steps if steps[-1] == total else steps + [total]


def write_trajectory_csv(path: Union[str, Path], traj: Trajectory) -> Path:
    """Export one trajectory with a ``step,p_1,...,p_n`` header."""
    path = Path(path)
    header = "step," + ",".join(f"p_{i + 1}" for i in range(traj.n))
    # one template per file; a row's tolist() gives Python floats, whose %
    # formatting writes the bytes f"{v:.17e}" writes, inf, nan and -0.0 included
    fmt = "%d" + ",%.17e" * traj.n
    rows = (fmt % (s, *traj.path[s].tolist()) for s in _csv_steps(traj.iterations))
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def _overall_status(trajs: tuple[Trajectory, ...]) -> str:
    """The most severe status: nonfinite > diverged > max_iter > converged."""
    statuses = {t.status for t in trajs}
    return next((s for s in (NONFINITE, DIVERGED, MAX_ITER) if s in statuses), CONVERGED)


def _write_outputs(scn: Scenario, out_dir: Union[str, Path, None],
                   trajs: tuple[Trajectory, ...] = ()) -> tuple[dict, tuple[str, ...]]:
    """Build every requested report in request order, then write the
    scenario's artifacts into ``out_dir`` (default FJPOWER_OUT, else the
    working directory): one CSV per trajectory in ``trajs`` (none when it is
    empty) if a ``trajectory_csv`` is requested, and every report, into
    ``<name>_report.txt``.  A report that raises leaves nothing written.
    Returns the reports and the written paths, the CSVs first."""
    out_dir = Path(os.environ.get("FJPOWER_OUT", ".") if out_dir is None else out_dir)
    reports: dict = {}
    lines: list[str] = []
    written: list[str] = []
    for request in scn.outputs:
        if request.kind == "equilibrium_report":
            eq = analysis.equilibrium_report(scn.net, seed=scn.seed, tol=scn.tol,
                                             max_iter=scn.max_iter)
            reports["equilibrium"] = eq
            lines += ["== equilibrium ==", str(eq), ""]
        elif request.kind == "condition_report":
            for cid in request.condition_ids:
                rep = analysis.check_condition(scn.net, cid, MODE_TABLE[scn.mode].timescale)
                reports[cid] = rep
                lines += [f"== condition {cid} ==", str(rep), ""]
        elif request.kind == "invariant_test":
            box = BOX_BUILDERS[request.box](scn.net)
            try:
                inv = analysis.one_step_invariance_test(scn.net, box, request.samples,
                                                        seed=request.seed)
            except (MemoryError, ValueError, OverflowError) as exc:  # a draw too big, or unbounded
                raise ConfigValidationError(
                    f"{scn.name}: invariant_test cannot draw {request.samples} samples "
                    f"from the {request.box} box: {exc}") from exc
            reports[f"invariance_{request.box}"] = inv
            lines += [f"== invariance {request.box} ==", str(inv), ""]
    if trajs and any(request.kind == "trajectory_csv" for request in scn.outputs):
        out_dir.mkdir(parents=True, exist_ok=True)
        written += [str(write_trajectory_csv(out_dir / f"{scn.name}_traj{k}.csv", traj))
                    for k, traj in enumerate(trajs, start=1)]
    if lines:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{scn.name}_report.txt"
        path.write_text("\n".join(lines))
        written.append(str(path))
    return reports, tuple(written)


def run_scenario(scn: Scenario, out_dir: Union[str, Path, None] = None) -> ScenarioResult:
    """Execute one scenario and write its requested artifacts.

    ``out_dir`` defaults to the FJPOWER_OUT environment variable, then the
    working directory.  Returns a result whose ``exit_code`` follows the
    documented convention: 0 converged / report success, 2 diverged (an
    expected outcome class, not an error), 1 anything else.
    """
    run = MODE_TABLE[scn.mode].run
    trajs = tuple(run(scn.net, scn.gamma, p0, scn.tol, scn.max_iter)
                  for p0 in scn.starts or (None,))
    status = _overall_status(trajs)
    iterations = max(t.iterations for t in trajs)
    reports, written = _write_outputs(scn, out_dir, trajs)
    return ScenarioResult(name=scn.name, mode=scn.mode, status=status, iterations=iterations,
                          final=trajs[-1].final, trajectories=trajs, reports=reports,
                          artifacts=written)


def run_reports(scn: Scenario, out_dir: Union[str, Path, None] = None) -> ScenarioResult:
    """Produce only the scenario's report artifacts, skipping trajectories.

    Raises ConfigValidationError when the scenario requests none — asking
    for a report from a trajectory-only scenario is a caller mistake.
    """
    reports, written = _write_outputs(scn, out_dir)
    if not written:
        raise ConfigValidationError(
            f"{scn.name}: no report outputs requested "
            "(add equilibrium_report, condition_report, or invariant_test)")
    return ScenarioResult(name=scn.name, mode=scn.mode, status=REPORT_OK, iterations=0,
                          final=None, reports=reports, artifacts=written)
