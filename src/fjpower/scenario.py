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

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np
import yaml

from . import analysis, simkit
from .errors import ConfigParseError, ConfigValidationError
from .fj_core import (
    compute_social_power,
    influence_matrix,
    step_power_evolution,
    step_power_evolution_single,
)
from .network import InfluenceNetwork, validate_arrays
from .perception import (
    CONVERGED,
    DIVERGED,
    ISSUE,
    MAX_ITER,
    STEP,
    Trajectory,
    run_to_convergence,
    step_pagerank_ra,
    step_perception_no_ra,
    step_perception_ra,
)

MODES = (
    "social_power",
    "perception_no_ra",
    "perception_ra",
    "perception_ra_single",
    "power_evolution",
    "power_evolution_single",
    "pagerank_ra",
    "fj_opinions",
    "distributed_no_ra",
    "distributed_ra",
)

GAMMA_MODES = ("social_power", "perception_no_ra", "fj_opinions", "distributed_no_ra")

OUTPUT_KINDS = ("trajectory_csv", "equilibrium_report", "condition_report", "invariant_test")

BOX_BUILDERS = {
    "two_sided": analysis.two_sided_box,
    "nonneg": analysis.nonneg_box,
    "star": analysis.star_invariant_box,
    "star_loose": lambda net: analysis.star_invariant_box(net, loose=True),
}

CSV_STRIDE_THRESHOLD = 10_000
CSV_STRIDE = 10

ERROR = "error"
REPORT_OK = "report_ok"

_EXIT_BY_STATUS = {CONVERGED: 0, DIVERGED: 2, MAX_ITER: 1, ERROR: 1, REPORT_OK: 0}


@dataclass(frozen=True)
class OutputRequest:
    """One requested artifact: a kind plus its (typed) options."""

    kind: str
    condition_ids: tuple[str, ...] = ()
    samples: int = 1000
    box: str = "two_sided"
    seed: Optional[int] = None


@dataclass(frozen=True)
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

    def with_overrides(
        self,
        tol: Optional[float] = None,
        max_iter: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "Scenario":
        out = self
        if tol is not None:
            out = replace(out, tol=tol)
        if max_iter is not None:
            out = replace(out, max_iter=max_iter)
        if seed is not None:
            out = replace(out, seed=seed)
        return out


def _fail(message: str) -> None:
    raise ConfigValidationError(message)


def _vector(raw, n: int, label: str) -> np.ndarray:
    try:
        v = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        _fail(f"{label} is not a numeric vector: {exc}")
    if v.shape != (n,):
        _fail(f"{label} must have length {n}, got shape {v.shape}")
    bad = np.nonzero(~np.isfinite(v))[0]
    if bad.size:
        _fail(f"{label} must be finite; entry {bad[0] + 1} is {v[bad[0]]}")
    return v


def _parse_outputs(raw, name: str) -> tuple[OutputRequest, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        _fail(f"{name}: outputs must be a list")
    requests: list[OutputRequest] = []
    for entry in raw:
        if isinstance(entry, str):
            kind, options = entry, None
        elif isinstance(entry, dict) and len(entry) == 1:
            kind, options = next(iter(entry.items()))
        else:
            _fail(f"{name}: each output is a string or a single-key mapping, got {entry!r}")
        if kind not in OUTPUT_KINDS:
            _fail(f"{name}: unknown output kind {kind!r}; expected one of {OUTPUT_KINDS}")
        if kind == "condition_report":
            ids = tuple(options or ())
            if not ids:
                _fail(f"{name}: condition_report needs a list of condition ids")
            for cid in ids:
                if cid not in analysis.CONDITION_IDS:
                    _fail(
                        f"{name}: unknown condition id {cid!r}; "
                        f"expected one of {analysis.CONDITION_IDS}"
                    )
            requests.append(OutputRequest(kind=kind, condition_ids=ids))
        elif kind == "invariant_test":
            options = options or {}
            if not isinstance(options, dict):
                _fail(f"{name}: invariant_test options must be a mapping")
            box = options.get("box", "two_sided")
            if box not in BOX_BUILDERS:
                _fail(f"{name}: unknown box {box!r}; expected one of {sorted(BOX_BUILDERS)}")
            samples = int(options.get("samples", 1000))
            if samples < 1:
                _fail(f"{name}: invariant_test samples must be positive")
            seed = options.get("seed")
            requests.append(
                OutputRequest(kind=kind, samples=samples, box=box,
                              seed=None if seed is None else int(seed))
            )
        else:
            if options is not None:
                _fail(f"{name}: output {kind} takes no options")
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
    if key == "p0":
        rows = value
        if not isinstance(rows, list) or not rows:
            _fail(f"{name}: initial.p0 must be a vector or non-empty list of vectors")
        if not isinstance(rows[0], list):
            rows = [rows]
        return tuple(_vector(row, n, f"{name}: initial.p0[{k}]") for k, row in enumerate(rows))
    if key == "uniform_in_box":
        if not isinstance(value, dict):
            _fail(f"{name}: uniform_in_box needs mu and nu vectors")
        mu = _vector(value.get("mu"), n, f"{name}: uniform_in_box.mu")
        nu = _vector(value.get("nu"), n, f"{name}: uniform_in_box.nu")
        count = int(value.get("count", 1))
        rng = np.random.default_rng(value.get("seed", seed))
        box = analysis.Box(mu, nu)
        return tuple(box.sample(rng, count))
    if key == "simplex_random":
        value = value or {}
        if not isinstance(value, dict):
            _fail(f"{name}: simplex_random options must be a mapping")
        count = int(value.get("count", 1))
        rng = np.random.default_rng(value.get("seed", seed))
        return tuple(rng.dirichlet(np.ones(n)) for _ in range(count))
    _fail(f"{name}: unknown initial spec {key!r}")


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse and fully validate one scenario file.

    Malformed YAML raises ConfigParseError; any structural or network
    invariant failure raises ConfigValidationError whose message names the
    violated invariant and the offending (1-based) index.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path}: top level must be a mapping")
    name = str(doc.get("name", path.stem))
    if not name or any(sep in name for sep in "/\\"):
        _fail(f"scenario name {name!r} must be a plain filename fragment")
    network = doc.get("network")
    if not isinstance(network, dict) or "C" not in network or "a" not in network:
        _fail(f"{name}: network section must define C and a")
    try:
        C = np.asarray(network["C"], dtype=float)
        a = np.asarray(network["a"], dtype=float)
    except (TypeError, ValueError) as exc:
        _fail(f"{name}: network arrays are not numeric: {exc}")
    report = validate_arrays(C, a)
    if not report.ok:
        _fail(f"{name}: invalid network: {report}")
    net = InfluenceNetwork(C=C, a=a)
    mode = doc.get("mode")
    if mode not in MODES:
        _fail(f"{name}: unknown mode {mode!r}; expected one of {MODES}")
    gamma = doc.get("gamma")
    if mode in GAMMA_MODES:
        if gamma is None:
            _fail(f"{name}: mode {mode} needs a gamma vector")
        gamma = _vector(gamma, net.n, f"{name}: gamma")
        if np.any(gamma < 0.0) or np.any(gamma > 1.0):
            _fail(f"{name}: gamma entries must lie in [0, 1]")
    elif gamma is not None:
        _fail(f"{name}: mode {mode} takes no gamma")
    tol = float(doc.get("tol", 1e-12))
    if tol <= 0:
        _fail(f"{name}: tol must be positive")
    max_iter = int(doc.get("max_iter", 100_000))
    if max_iter < 1:
        _fail(f"{name}: max_iter must be at least 1")
    seed = int(doc.get("seed", 0))
    starts = _parse_starts(doc, net.n, mode, seed, name)
    outputs = _parse_outputs(doc.get("outputs"), name)
    return Scenario(
        name=name, net=net, mode=mode, starts=starts, gamma=gamma,
        tol=tol, max_iter=max_iter, seed=seed, outputs=outputs,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """Everything one scenario run produced, plus the overall verdict."""

    name: str
    mode: str
    status: str
    iterations: int
    final: Optional[np.ndarray]
    trajectories: tuple[Trajectory, ...] = ()
    reports: dict = field(default_factory=dict)
    condition_margins: dict = field(default_factory=dict)
    artifacts: tuple[str, ...] = ()
    error: Optional[str] = None

    @property
    def exit_code(self) -> int:
        return _EXIT_BY_STATUS.get(self.status, 1)

    def summary_line(self) -> str:
        note = f" error: {self.error}" if self.error else ""
        return f"{self.name}: {self.status} after {self.iterations} iteration(s){note}"


def error_result(scn: Scenario, exc: Exception) -> ScenarioResult:
    return ScenarioResult(
        name=scn.name, mode=scn.mode, status=ERROR, iterations=0, final=None,
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_trajectories(scn: Scenario) -> tuple[Trajectory, ...]:
    net, gamma = scn.net, scn.gamma
    kw = dict(tol=scn.tol, max_iter=scn.max_iter)
    if scn.mode == "social_power":
        x = compute_social_power(net, gamma)
        return (Trajectory(x[None, :], CONVERGED, ISSUE, scn.tol),)
    runs = []
    for p0 in scn.starts:
        if scn.mode == "perception_no_ra":
            traj = run_to_convergence(
                lambda v: step_perception_no_ra(net, gamma, v), p0, **kw)
        elif scn.mode == "perception_ra":
            traj = run_to_convergence(lambda v: step_perception_ra(net, v), p0, **kw)
        elif scn.mode == "perception_ra_single":
            traj = run_to_convergence(
                lambda v: step_perception_ra(net, v), p0, timescale=STEP, **kw)
        elif scn.mode == "power_evolution":
            traj = run_to_convergence(
                lambda v: step_power_evolution(net, v), p0, **kw)
        elif scn.mode == "power_evolution_single":
            state = {"V": np.eye(net.n)}

            def stepper(x):
                state["V"], x_next = step_power_evolution_single(net, state["V"], x)
                return x_next

            traj = run_to_convergence(stepper, p0, timescale=STEP, **kw)
        elif scn.mode == "pagerank_ra":
            traj = run_to_convergence(lambda v: step_pagerank_ra(net, v), p0, **kw)
        elif scn.mode == "fj_opinions":
            W = influence_matrix(net.C, gamma)
            y0 = p0

            def opinion_step(y):
                return net.a * (W @ y) + (1.0 - net.a) * y0

            traj = run_to_convergence(opinion_step, p0, timescale=STEP, **kw)
        elif scn.mode == "distributed_no_ra":
            traj = simkit.run_distributed(net, simkit.MODE_NO_RA, p0, gamma, **kw)
        elif scn.mode == "distributed_ra":
            traj = simkit.run_distributed(net, simkit.MODE_RA, p0, **kw)
        else:  # pragma: no cover — load_scenario rejects unknown modes
            raise ConfigValidationError(f"unhandled mode {scn.mode}")
        runs.append(traj)
    return tuple(runs)


def _csv_steps(total: int) -> list[int]:
    """Recorded step indices: every step up to the threshold, then every
    CSV_STRIDE-th, final step always included."""
    if total <= CSV_STRIDE_THRESHOLD:
        return list(range(total + 1))
    steps = list(range(CSV_STRIDE_THRESHOLD + 1))
    steps += list(range(CSV_STRIDE_THRESHOLD + CSV_STRIDE, total + 1, CSV_STRIDE))
    if steps[-1] != total:
        steps.append(total)
    return steps


def write_trajectory_csv(path: Union[str, Path], traj: Trajectory) -> Path:
    """Export one trajectory with a ``step,p_1,...,p_n`` header."""
    path = Path(path)
    header = "step," + ",".join(f"p_{i + 1}" for i in range(traj.n))
    lines = [header]
    for s in _csv_steps(traj.iterations):
        row = traj.path[s]
        lines.append(f"{s}," + ",".join(f"{v:.17e}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _overall_status(trajs: tuple[Trajectory, ...]) -> str:
    statuses = {t.status for t in trajs}
    if DIVERGED in statuses:
        return DIVERGED
    if MAX_ITER in statuses:
        return MAX_ITER
    return CONVERGED


def _resolve_out_dir(out_dir: Union[str, Path, None]) -> Path:
    if out_dir is None:
        out_dir = os.environ.get("FJPOWER_OUT", ".")
    return Path(out_dir)


def _report_sections(scn: Scenario) -> tuple[dict, dict, list[str]]:
    """Produce every non-trajectory artifact the scenario requests."""
    reports: dict = {}
    margins: dict = {}
    lines: list[str] = []
    for request in scn.outputs:
        if request.kind == "equilibrium_report":
            eq = analysis.solve_equilibrium(scn.net, seed=scn.seed, tol=scn.tol,
                                            max_iter=scn.max_iter)
            reports["equilibrium"] = eq
            lines += ["== equilibrium ==", str(eq), ""]
        elif request.kind == "condition_report":
            for cid in request.condition_ids:
                rep = analysis.check_condition(scn.net, cid)
                reports[cid] = rep
                margins[cid] = rep.margin
                lines += [f"== condition {cid} ==", str(rep), ""]
        elif request.kind == "invariant_test":
            box = BOX_BUILDERS[request.box](scn.net)
            inv = analysis.one_step_invariance_test(
                scn.net, box, request.samples,
                seed=scn.seed if request.seed is None else request.seed,
            )
            reports[f"invariance_{request.box}"] = inv
            lines += [f"== invariance {request.box} ==", str(inv), ""]
    return reports, margins, lines


def run_scenario(scn: Scenario, out_dir: Union[str, Path, None] = None) -> ScenarioResult:
    """Execute one scenario and write its requested artifacts.

    ``out_dir`` defaults to the FJPOWER_OUT environment variable, then the
    working directory.  Returns a result whose ``exit_code`` follows the
    documented convention: 0 converged / report success, 2 diverged (an
    expected outcome class, not an error), 1 anything else.
    """
    out_dir = _resolve_out_dir(out_dir)
    trajs = _run_trajectories(scn)
    status = _overall_status(trajs)
    iterations = max((t.iterations for t in trajs), default=0)
    final = trajs[-1].final if trajs else None
    artifacts: list[str] = []
    for request in scn.outputs:
        if request.kind == "trajectory_csv":
            out_dir.mkdir(parents=True, exist_ok=True)
            for k, traj in enumerate(trajs, start=1):
                p = write_trajectory_csv(out_dir / f"{scn.name}_traj{k}.csv", traj)
                artifacts.append(str(p))
    reports, margins, report_lines = _report_sections(scn)
    if report_lines:
        out_dir.mkdir(parents=True, exist_ok=True)
        rp = out_dir / f"{scn.name}_report.txt"
        rp.write_text("\n".join(report_lines))
        artifacts.append(str(rp))
    return ScenarioResult(
        name=scn.name, mode=scn.mode, status=status, iterations=iterations,
        final=final, trajectories=trajs, reports=reports,
        condition_margins=margins, artifacts=tuple(artifacts),
    )


def run_reports(scn: Scenario, out_dir: Union[str, Path, None] = None) -> ScenarioResult:
    """Produce only the scenario's report artifacts, skipping trajectories.

    Raises ConfigValidationError when the scenario requests none — asking
    for a report from a trajectory-only scenario is a caller mistake.
    """
    reports, margins, report_lines = _report_sections(scn)
    if not report_lines:
        raise ConfigValidationError(
            f"{scn.name}: no report outputs requested "
            "(add equilibrium_report, condition_report, or invariant_test)")
    out_dir = _resolve_out_dir(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rp = out_dir / f"{scn.name}_report.txt"
    rp.write_text("\n".join(report_lines))
    return ScenarioResult(
        name=scn.name, mode=scn.mode, status=REPORT_OK, iterations=0,
        final=None, reports=reports, condition_margins=margins,
        artifacts=(str(rp),),
    )
