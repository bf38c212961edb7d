"""Executable checks for the equilibrium and invariance theory.

Groups the machinery that turns the model's guarantees into testable
artifacts:

* multistart equilibrium solving with agreement *evidence* (never proof),
* closed-form equilibria for star networks,
* invariant coordinate boxes and Monte-Carlo one-step invariance trials,
* sufficient/necessary condition evaluators with signed margins,
* a contraction diagnostic built on the update map's Jacobian,
* star monotonicity checks.

Every condition evaluator returns a :class:`ConditionReport` whose ``holds``
flag is equivalent to ``margin >= 0``; strict-inequality sources are noted in
the docstrings but the boundary case is reported as holding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    FJPowerError,
    InvalidStructureError,
    NoConvergenceError,
    NotStarError,
    WrongTopologyError,
)
from .network import (
    STAR_FULL_CENTER,
    STAR_PARTIAL_CENTER,
    InfluenceNetwork,
    classify_topology,
)
from .perception import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ISSUE,
    RULES,
    Trajectory,
    homogeneous_susceptibility,
    run_stack_to_convergence,
    run_to_convergence,
    step_perception_ra,
)
from .fj_core import step_power_evolution

INCOMING_INFLUENCE_CAP = "incoming_influence_cap"
INCOMING_VOLATILITY_CAP = "incoming_volatility_cap"
STAR_CENTER_LOAD = "star_center_load"
HOMOGENEOUS_CAP = "homogeneous_susceptibility_cap"
DEMOCRACY = "democracy"
UNIFORM_GAIN_CAP = "uniform_gain_cap"

DEMOCRACY_TOL = 1e-10
AGREE_TOL = 1e-8  # ∞-norm distance within which two equilibrium limits agree
FD_STEP = 1e-6  # central finite-difference step of the Jacobian check
EXIT_SLACK = 1e-12  # how far outside its box a stepped coordinate may land
MAX_EXIT_EXAMPLES = 20  # offending (sample, coordinate) pairs an invariance report keeps
STACK_ENTRIES = 1 << 22  # matrix entries (32 MB) one stacked equilibrium solve may hold


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned region {p : mu <= p <= nu}; infinite bounds allowed."""

    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float, copy=True)
        nu = np.array(self.nu, dtype=float, copy=True)
        if mu.shape != nu.shape or mu.ndim != 1:
            raise ValueError(f"bounds must be equal-length vectors, got {mu.shape} and {nu.shape}")
        if np.any(mu > nu):
            bad = int(np.argmax(mu > nu))
            raise ValueError(f"lower bound exceeds upper at coordinate {bad + 1}")
        mu.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def contains(self, p: np.ndarray, slack: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.mu - slack) and np.all(p <= self.nu + slack))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` uniform points, one per row.  Bounds must be finite."""
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.nu))):
            raise ValueError("cannot sample a box with infinite bounds")
        return rng.uniform(self.mu, self.nu, size=(size, self.n))

    def inflated(self, factor: float) -> Box:
        """Control box with the upper bounds scaled by ``factor`` (lower kept)."""
        return Box(self.mu, self.nu * factor)


def incoming_influence_load(net: InfluenceNetwork) -> np.ndarray:
    """b_i = Σ_j C[j,i] a_j/(1-a_j): stubbornness-weighted in-flow per node."""
    return net.C.T @ (net.a / (1.0 - net.a))


def incoming_volatility_load(net: InfluenceNetwork) -> np.ndarray:
    """d_i = Σ over partially stubborn j of C[j,i] (1+3a_j)/(4a_j)."""
    w = np.zeros(net.n)
    mask = net.a > 0.0
    w[mask] = (1.0 + 3.0 * net.a[mask]) / (4.0 * net.a[mask])
    return net.C.T @ w


def nonneg_box(net: InfluenceNetwork) -> Box:
    """Nonnegative invariant box: floor 0 everywhere; ceiling 1/2 on partially
    stubborn nodes and the minimal admissible 1/n + b_i/4 on fully stubborn
    ones."""
    b = incoming_influence_load(net)
    nu = np.where(net.a > 0.0, 0.5, 1.0 / net.n + b / 4.0)
    return Box(np.zeros(net.n), nu)


def two_sided_box(net: InfluenceNetwork) -> Box:
    """Two-sided invariant box with the extremal admissible bounds.

    Fully stubborn nodes get [1/n - d_i/4, 1/n + b_i/4]; partially stubborn
    ones get [-(1-a_i)/(4a_i), (1+a_i)/(4a_i)].
    """
    n = net.n
    a = net.a
    b = incoming_influence_load(net)
    d = incoming_volatility_load(net)
    mu = np.empty(n)
    nu = np.empty(n)
    full = a == 0.0
    mu[full] = 1.0 / n - d[full] / 4.0
    nu[full] = 1.0 / n + b[full] / 4.0
    part = ~full
    mu[part] = -(1.0 - a[part]) / (4.0 * a[part])
    nu[part] = (1.0 + a[part]) / (4.0 * a[part])
    return Box(mu, nu)


def star_center_floor(net: InfluenceNetwork, center: int) -> tuple[float, float]:
    """Fully-stubborn-node floor pair for the partial-center star box.

    Returns ``(used, alternate)``: the operational floor
    ``1/n - |2a_c - 1| / (4 a_c (1 - a_c))`` and the sign-flipped variant of
    the same magnitude that circulates alongside it.  Only the first is built
    into :func:`star_invariant_box`; both are surfaced in condition reports.
    """
    a_c = float(net.a[center])
    swing = abs(2.0 * a_c - 1.0) / (4.0 * a_c * (1.0 - a_c))
    return 1.0 / net.n - swing, swing - 1.0 / net.n


def star_invariant_box(net: InfluenceNetwork, loose: bool = False) -> Box:
    """Invariant box for a star with partially stubborn center.

    Tight variant (default): ceiling 1/(2a_c) at the center, 1 on other
    partially stubborn nodes, 1/n + a_c/(4(1-a_c)) on fully stubborn ones;
    floor 0 except the operational fully-stubborn floor from
    :func:`star_center_floor`.  Loose variant: floor 0 everywhere and ceiling
    1/(2a_c) at the center, 1 elsewhere — the basin used for convergence
    statements.
    """
    topo = classify_topology(net)
    if topo.kind != STAR_PARTIAL_CENTER:
        raise WrongTopologyError(
            f"star box needs a star with partially stubborn center, got {topo}"
        )
    c = topo.center
    n = net.n
    a_c = float(net.a[c])
    nu = np.ones(n)
    nu[c] = 1.0 / (2.0 * a_c)
    mu = np.zeros(n)
    if not loose:
        full = net.a == 0.0
        nu[full] = 1.0 / n + a_c / (4.0 * (1.0 - a_c))
        floor_used, _ = star_center_floor(net, c)
        mu[full] = floor_used
    return Box(mu, nu)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Multistart fixed-point search result.

    ``starts_agreeing`` out of ``total_starts`` converged to within the
    agreement tolerance of the consensus point — numerical *evidence* of
    uniqueness, not a proof.
    """

    p_star: np.ndarray
    residual: float
    iterations: int
    starts_agreeing: int
    total_starts: int
    in_simplex: bool
    interior: bool

    def __str__(self) -> str:
        coords = ", ".join(f"{v:.12g}" for v in self.p_star)
        return (
            f"equilibrium ({coords}); residual {self.residual:.3e}; "
            f"{self.starts_agreeing}/{self.total_starts} starts agree "
            f"(uniqueness evidence); in_simplex={self.in_simplex} "
            f"interior={self.interior}"
        )


def solve_equilibrium(
    net: InfluenceNetwork,
    multistarts: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumReport:
    """Locate the power-evolution fixed point from many simplex starts.

    Iterates the issue-to-issue power update (which maps the simplex into
    itself) from the barycenter plus ``multistarts`` seeded random simplex
    points, all of them as one stack: each step is one stacked solve, made in
    chunks of rows where the stack would pass ``STACK_ENTRIES`` matrix
    entries.  The consensus point is the first converged run's limit;
    ``starts_agreeing`` counts converged runs within ``AGREE_TOL`` of it in
    the ∞-norm.
    """
    if multistarts < 0:
        raise ValueError(f"multistarts must be nonnegative, got {multistarts}")
    rng = np.random.default_rng(seed)
    n = net.n
    starts = np.vstack([np.full(n, 1.0 / n), rng.dirichlet(np.ones(n), size=multistarts)])
    # rows step independently, so bounded chunks of them give the same bits and
    # keep the stack's memory near one n x n system's at large n
    rows = max(1, STACK_ENTRIES // (n * n))

    def step(P: np.ndarray) -> np.ndarray:
        if len(P) <= rows:
            return step_power_evolution(net, P)
        return np.concatenate(
            [step_power_evolution(net, P[i:i + rows]) for i in range(0, len(P), rows)]
        )

    trajs = run_stack_to_convergence(step, starts, tol=tol, max_iter=max_iter)
    converged = [traj for traj in trajs if traj.converged]
    if not converged:
        raise NoConvergenceError(
            f"no start converged within {max_iter} iterations at tol {tol}"
        )
    consensus = converged[0].final
    agreeing = sum(
        1 for traj in converged if np.max(np.abs(traj.final - consensus)) <= AGREE_TOL
    )
    residual = float(np.max(np.abs(step_power_evolution(net, consensus) - consensus)))
    total = float(consensus.sum())
    in_simplex = abs(total - 1.0) <= 1e-9 and bool(np.all(consensus >= -1e-12))
    interior = bool(np.min(consensus) > 0.0)
    return EquilibriumReport(
        p_star=consensus,
        residual=residual,
        iterations=converged[0].iterations,
        starts_agreeing=agreeing,
        total_starts=len(starts),
        in_simplex=in_simplex,
        interior=interior,
    )


def star_equilibrium_closed_form(net: InfluenceNetwork) -> np.ndarray:
    """Closed-form equilibrium for star networks.

    Fully stubborn center: every partially stubborn leaf solves a decoupled
    scalar quadratic, fully stubborn leaves sit at 1/n, and the center
    collects the leaves' forfeited shares.  Partially stubborn center:
    requires the center to accord no weight to other partially stubborn
    nodes; the center then solves its own quadratic fed by the leaf values.
    """
    topo = classify_topology(net)
    if not topo.is_star:
        raise NotStarError(f"closed form needs a star topology, got {topo}")
    c = topo.center
    n = net.n
    a = net.a
    p = np.empty(n)
    for j in range(n):
        if j != c and a[j] > 0.0:
            p[j] = (1.0 - math.sqrt(1.0 - 4.0 * a[j] * (1.0 - a[j]) / n)) / (2.0 * a[j])
    if topo.kind == STAR_FULL_CENTER:
        for j in range(n):
            if j != c and a[j] == 0.0:
                p[j] = 1.0 / n
        p[c] = 1.0 / n + (1.0 / n) * sum(
            a[j] * (1.0 - p[j]) / (1.0 - a[j] * p[j])
            for j in range(n)
            if j != c and a[j] > 0.0
        )
        return p
    # partially stubborn center: structural precondition on the center's row
    offenders = [j for j in net.partially_stubborn if j != c and net.C[c, j] > 0.0]
    if offenders:
        listed = ", ".join(str(j + 1) for j in offenders)
        raise InvalidStructureError(
            f"center {c + 1} accords weight to partially stubborn node(s) {listed}; "
            "the closed form needs those weights to be zero"
        )
    part = [j for j in net.partially_stubborn if j != c]
    leaf_sum = float(sum(p[j] for j in part))
    m = len(part) + 1  # partially stubborn nodes including the center
    a_c = float(a[c])
    disc = 1.0 - (4.0 * a_c * (1.0 - a_c) / n) * (m - n * leaf_sum)
    p[c] = (1.0 - math.sqrt(disc)) / (2.0 * a_c)
    total_part = leaf_sum + p[c]
    for j in range(n):
        if a[j] == 0.0:
            p[j] = 1.0 / n + net.C[c, j] * (m / n - total_part)
    return p


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginRow:
    """One line of a condition report; ``margin`` None marks an info-only row."""

    label: str
    lhs: float
    rhs: float
    margin: Optional[float]
    node: Optional[int] = None

    def __str__(self) -> str:
        where = f" node {self.node + 1}" if self.node is not None else ""
        if self.margin is None:
            return f"  {self.label}{where}: {self.lhs:.12g}"
        return (
            f"  {self.label}{where}: lhs {self.lhs:.12g} vs rhs {self.rhs:.12g}"
            f" -> margin {self.margin:.12g}"
        )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check: ``holds`` iff ``margin >= 0``."""

    condition: str
    holds: bool
    margin: float
    detail: tuple[MarginRow, ...]

    def __str__(self) -> str:
        head = f"{self.condition}: {'HOLDS' if self.holds else 'FAILS'} (margin {self.margin:.12g})"
        return "\n".join([head] + [str(row) for row in self.detail])


def _report(condition: str, rows: list[MarginRow]) -> ConditionReport:
    margins = [row.margin for row in rows if row.margin is not None]
    margin = min(margins) if margins else math.inf
    return ConditionReport(
        condition=condition, holds=margin >= 0.0, margin=margin, detail=tuple(rows)
    )


def _node_rows(label: str, lhs: np.ndarray, rhs: np.ndarray, nodes) -> list[MarginRow]:
    """One row lhs_i <= rhs_i per node i in ``nodes``, with margin rhs_i - lhs_i."""
    return [MarginRow(label, float(lhs[i]), float(rhs[i]), float(rhs[i] - lhs[i]), node=i)
            for i in nodes]


def _influence_cap(net: InfluenceNetwork, timescale: str) -> list[MarginRow]:
    """Σ_j C[j,i] a_j/(1-a_j) <= a_i/(1-a_i) + 2(n-2)/n at each partially stubborn i."""
    rhs = net.a / (1.0 - net.a) + 2.0 * (net.n - 2) / net.n
    return _node_rows("influence_in", incoming_influence_load(net), rhs, net.partially_stubborn)


def _volatility_cap(net: InfluenceNetwork, timescale: str) -> list[MarginRow]:
    """Σ_{j: a_j > 0} C[j,i] (1+3a_j)/(4a_j) <= 1/a_i + 4/n at each partially
    stubborn i (strict in the source)."""
    with np.errstate(divide="ignore"):  # fully stubborn nodes get no row
        rhs = 1.0 / net.a + 4.0 / net.n
    return _node_rows("volatility_in", incoming_volatility_load(net), rhs, net.partially_stubborn)


def _star_center_load(net: InfluenceNetwork, timescale: str) -> list[MarginRow]:
    """Σ_j a_j/(1-a_j) <= 1/(a_c(1-a_c)) - 4/n over the partially stubborn j != c
    of a star whose center c is partially stubborn; each such j needs C[c, j] = 0."""
    topo = classify_topology(net)
    if topo.kind != STAR_PARTIAL_CENTER:
        raise WrongTopologyError(f"{STAR_CENTER_LOAD} applies to stars with partially "
                                 f"stubborn center, got {topo}")
    c = topo.center
    a, a_c = net.a, float(net.a[c])
    leaves = [j for j in net.partially_stubborn if j != c]
    lhs = float(sum(a[j] / (1.0 - a[j]) for j in leaves))
    rhs = 1.0 / (a_c * (1.0 - a_c)) - 4.0 / net.n
    used, alternate = star_center_floor(net, c)
    return [
        MarginRow("center_load", lhs, rhs, rhs - lhs, node=c),
        *(MarginRow("center_row_weight", float(net.C[c, j]), 0.0, -math.inf, node=j)
          for j in leaves if net.C[c, j] > 0.0),
        MarginRow("stubborn_floor_used", used, math.nan, None),
        MarginRow("stubborn_floor_alternate", alternate, math.nan, None),
    ]


def _homogeneous_cap(net: InfluenceNetwork, timescale: str) -> list[MarginRow]:
    """shared a <= (5n-7)/(8(n-1)), when every node has the same a."""
    try:
        shared = homogeneous_susceptibility(net)
    except InvalidStructureError as exc:
        raise WrongTopologyError(str(exc)) from exc
    cap = (5.0 * net.n - 7.0) / (8.0 * (net.n - 1))
    return [MarginRow("shared_susceptibility", shared, cap, cap - shared)]


def _democracy(net: InfluenceNetwork, timescale: str) -> list[MarginRow]:
    """|C^T v - v|_i <= DEMOCRACY_TOL at every node, v = a/(1-a) scaled to unit sum."""
    v = net.a / (1.0 - net.a)
    v = v / v.sum()
    return _node_rows("eigenvector_deviation", np.abs(net.C.T @ v - v),
                      np.full(net.n, DEMOCRACY_TOL), range(net.n))


def _uniform_gain_cap(net: InfluenceNetwork, timescale: str) -> list[MarginRow]:
    """max a <= 1/(1+2ζ), ζ = (Σa + 1 - min a)/n, on the issue timescale and
    max a <= 1/2 on the step one (strict in the source)."""
    a = net.a
    zeta = (float(a.sum()) + 1.0 - float(a.min())) / net.n
    cap = 1.0 / (1.0 + 2.0 * zeta) if timescale == ISSUE else 0.5
    a_max = float(a.max())
    return [MarginRow(f"max_susceptibility[{timescale}]", a_max, cap, cap - a_max),
            MarginRow("gain", zeta, math.nan, None)]


# condition id -> its evaluator (net, timescale) -> rows; see _report for the verdict
CONDITIONS = {
    INCOMING_INFLUENCE_CAP: _influence_cap,
    INCOMING_VOLATILITY_CAP: _volatility_cap,
    STAR_CENTER_LOAD: _star_center_load,
    HOMOGENEOUS_CAP: _homogeneous_cap,
    DEMOCRACY: _democracy,
    UNIFORM_GAIN_CAP: _uniform_gain_cap,
}

CONDITION_IDS = tuple(CONDITIONS)


def check_condition(
    net: InfluenceNetwork, which: str, timescale: str = ISSUE
) -> ConditionReport:
    """Evaluate the sufficient condition ``CONDITIONS[which]`` with signed
    margins; ``timescale`` matters to ``uniform_gain_cap`` only."""
    evaluate = CONDITIONS.get(which)
    if evaluate is None:
        raise ValueError(
            f"unknown condition {which!r}; expected one of {', '.join(CONDITION_IDS)} "
            "(dominance has its own entry point: check_dominance_necessary)"
        )
    return _report(which, evaluate(net, timescale))


def check_dominance_necessary(
    net: InfluenceNetwork, p_star: np.ndarray, node: int, sigma: float
) -> ConditionReport:
    """Necessary condition for one node holding more than ``sigma`` of the power.

    If the equilibrium share p*_i exceeds σ then
    Σ_j C[j,i] a_j/(1-a_j) > a_i/(1-a_i) + (nσ-1)/(nσ(1-σ)) must hold; the
    contrapositive certifies no dominance at level σ whenever the report
    fails.  σ must lie in [1/2, 1).
    """
    if not 0.5 <= sigma < 1.0:
        raise ValueError(f"sigma must be in [1/2, 1), got {sigma}")
    p_star = np.asarray(p_star, dtype=float)
    a, n, i = net.a, net.n, node
    lhs = float(incoming_influence_load(net)[i])
    rhs = float(a[i] / (1.0 - a[i]) + (n * sigma - 1.0) / (n * sigma * (1.0 - sigma)))
    rows = [
        MarginRow("influence_in_required", lhs, rhs, lhs - rhs, node=i),
        MarginRow("power_share", float(p_star[i]), sigma, None, node=i),
    ]
    return _report(f"dominance(node={i + 1}, sigma={sigma:g})", rows)


# ---------------------------------------------------------------------------
# invariance trials
# ---------------------------------------------------------------------------

def _batch_step_ra(net: InfluenceNetwork, P: np.ndarray) -> np.ndarray:
    """The ``ra`` rule applied to each row of ``P`` at once.  Its relay is one
    BLAS product (an ordered reduction would need a rows × n × n temporary),
    so rows match :func:`step_perception_ra` to rounding, not bit-for-bit."""
    ra = RULES["ra"]
    return ra.update(net.a, None, P, net.n, ra.relay(net.a, None, P) @ net.C)


@dataclass(frozen=True)
class ExitRecord:
    """One sampled point that left the box after a single update."""

    sample: int
    coordinate: int
    value: float
    bound: float
    side: str  # "lower" | "upper"


@dataclass(frozen=True)
class InvarianceReport:
    samples: int
    exit_count: int
    examples: tuple[ExitRecord, ...]

    @property
    def ok(self) -> bool:
        return self.exit_count == 0

    def __str__(self) -> str:
        verdict = "no exits" if self.ok else f"{self.exit_count} exits"
        return f"one-step invariance: {verdict} out of {self.samples} samples"


def one_step_invariance_test(
    net: InfluenceNetwork,
    box: Box,
    samples: int,
    seed: int = 0,
) -> InvarianceReport:
    """Monte-Carlo one-step invariance trial of the reflected-appraisal map.

    Draws ``samples`` uniform points in ``box``, applies the update once and
    counts coordinates landing outside by more than ``EXIT_SLACK``.  Keeps the
    first ``MAX_EXIT_EXAMPLES`` offending (sample, coordinate) pairs.
    """
    rng = np.random.default_rng(seed)
    P = box.sample(rng, samples)
    Q = _batch_step_ra(net, P)
    below = Q < box.mu - EXIT_SLACK
    above = Q > box.nu + EXIT_SLACK
    exit_count = int(np.count_nonzero(below | above))
    examples: list[ExitRecord] = []
    if exit_count:
        rows, cols = np.nonzero(below | above)
        for r, c in zip(rows[:MAX_EXIT_EXAMPLES], cols[:MAX_EXIT_EXAMPLES]):
            side = "lower" if below[r, c] else "upper"
            bound = float(box.mu[c]) if side == "lower" else float(box.nu[c])
            examples.append(
                ExitRecord(
                    sample=int(r), coordinate=int(c), value=float(Q[r, c]),
                    bound=bound, side=side,
                )
            )
    return InvarianceReport(samples=samples, exit_count=exit_count, examples=tuple(examples))


# ---------------------------------------------------------------------------
# contraction diagnostics
# ---------------------------------------------------------------------------

def perception_jacobian(net: InfluenceNetwork, p: np.ndarray) -> np.ndarray:
    """Similarity-transformed Jacobian J of the reflected-appraisal map.

    J_ii = 2 a_i p_i and J_ij = C[j,i] a_j (1 - 2 p_j); the map's actual
    derivative is (I-A) J (I-A)⁻¹, so norms of J bound the contraction rate
    in the transformed coordinates.
    """
    p = np.asarray(p, dtype=float)
    J = net.C.T * (net.a * (1.0 - 2.0 * p))[None, :]
    np.fill_diagonal(J, 2.0 * net.a * p)
    return J


def contraction_diagnostic(
    net: InfluenceNetwork,
    p: np.ndarray,
    verify_fd: bool = True,
    fd_rtol: float = 1e-6,
) -> float:
    """1-norm of the transformed Jacobian at ``p``; < 1 signals contraction.

    The column-sum structure collapses to max_i a_i (2|p_i| + |1 - 2 p_i|).
    With ``verify_fd`` the analytic derivative (I-A) J (I-A)⁻¹ is checked
    against central finite differences of the update map and a mismatch
    beyond ``fd_rtol`` raises.
    """
    p = np.asarray(p, dtype=float)
    J = perception_jacobian(net, p)
    if verify_fd:
        a = net.a
        analytic = (1.0 - a)[:, None] * J / (1.0 - a)[None, :]
        bumps = FD_STEP * np.eye(net.n)
        # row j of each batch is the map at p ± FD_STEP e_j, so column j of fd
        fd = (_batch_step_ra(net, p + bumps) - _batch_step_ra(net, p - bumps)).T / (2.0 * FD_STEP)
        scale = max(float(np.max(np.abs(analytic))), 1e-12)
        err = float(np.max(np.abs(analytic - fd))) / scale
        if err > fd_rtol:
            raise FJPowerError(
                f"Jacobian/finite-difference mismatch: relative error {err:.3e} "
                f"exceeds {fd_rtol:.1e}"
            )
    return float(np.max(np.abs(J).sum(axis=0)))


# ---------------------------------------------------------------------------
# star monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeMonotonicity:
    node: int
    direction: str  # "up" | "down" | "constant"
    strict_ok: bool
    first_violation: Optional[int]


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Strictness verdicts per partially stubborn leaf plus the center's tail.

    ``center_tail_start`` is the earliest round from which the center moves
    one way only; leaves must be strictly monotone toward their closed-form
    values on the side they start from.
    """

    per_leaf: tuple[NodeMonotonicity, ...]
    center: int
    center_tail_start: int
    leaves_one_side: bool
    trajectory: Trajectory

    @property
    def ok(self) -> bool:
        return all(row.strict_ok for row in self.per_leaf)


def monotonicity_test_star(
    net: InfluenceNetwork,
    p0: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MonotonicityReport:
    """Run the reflected-appraisal dynamics on a fully-stubborn-center star
    and check the leaf-monotonicity guarantees.

    Each partially stubborn leaf must approach its closed-form value strictly
    monotonically from whichever side it starts on (checked while it is more
    than 1e-10 away, without ever crossing).  The center is scanned for the
    earliest all-one-direction tail; guaranteed to appear early when every
    leaf approaches from the same side.
    """
    topo = classify_topology(net)
    if topo.kind != STAR_FULL_CENTER:
        raise WrongTopologyError(
            f"monotonicity guarantees need a fully stubborn star center, got {topo}"
        )
    p0 = np.asarray(p0, dtype=float)
    if not np.all((p0 >= 0.0) & (p0 <= 1.0)):  # NaN fails too
        raise ValueError("start must lie in [0, 1] per coordinate")
    target = star_equilibrium_closed_form(net)
    traj = run_to_convergence(
        lambda v: step_perception_ra(net, v), p0, tol=tol, max_iter=max_iter
    )
    active_gap = 1e-10
    rows: list[NodeMonotonicity] = []
    for j in net.partially_stubborn:
        seq = traj.path[:, j]
        t = target[j]
        if abs(seq[0] - t) <= active_gap:
            still = bool(np.all(np.abs(seq - t) <= active_gap))
            rows.append(NodeMonotonicity(j, "constant", still, None if still else 0))
            continue
        rising = seq[0] < t
        direction = "up" if rising else "down"
        ok = True
        first_violation: Optional[int] = None
        for s in range(len(seq) - 1):
            if abs(seq[s] - t) <= active_gap:
                break
            step_up = seq[s + 1] > seq[s]
            crossed = (seq[s + 1] > t + active_gap) if rising else (seq[s + 1] < t - active_gap)
            if step_up != rising or crossed:
                ok = False
                first_violation = s
                break
        rows.append(NodeMonotonicity(j, direction, ok, first_violation))
    c = topo.center
    inc = np.diff(traj.path[:, c])
    flat = 1e-14
    significant = np.nonzero(np.abs(inc) > flat)[0]
    tail_start = 0
    if significant.size:
        signs = np.sign(inc[significant])
        changes = np.nonzero(signs[1:] != signs[:-1])[0]
        if changes.size:
            tail_start = int(significant[changes[-1] + 1])
    directions = {row.direction for row in rows if row.direction != "constant"}
    return MonotonicityReport(
        per_leaf=tuple(rows),
        center=c,
        center_tail_start=tail_start,
        leaves_one_side=len(directions) <= 1,
        trajectory=traj,
    )
