"""Executable checks for the equilibrium and invariance theory.

Groups the machinery that turns the model's guarantees into testable
artifacts:

* multistart equilibrium solving with agreement *evidence* (never proof),
* closed-form equilibria for star networks,
* invariant coordinate boxes, the exact image of a box under the update,
  and one-step invariance tests: proved from that image when it fits inside
  the box (to a stated rounding bound), else a Monte-Carlo trial,
* sufficient/necessary condition evaluators with signed margins,
* a contraction diagnostic built on the update map's Jacobian.

Every condition evaluator returns a :class:`ConditionReport` whose ``holds``
flag is equivalent to ``margin >= 0``; strict-inequality sources are noted in
the docstrings but the boundary case is reported as holding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    FJPowerError,
    InvalidStructureError,
    NoConvergenceError,
    WrongTopologyError,
)
from .network import (
    STAR_FULL_CENTER,
    STAR_PARTIAL_CENTER,
    InfluenceNetwork,
    _freeze,
    classify_topology,
    node_vector,
)
from . import perception
from .perception import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ISSUE,
    RULES,
    STEP,
    homogeneous_susceptibility,
    run_stack_to_convergence,
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
FD_RTOL = 1e-6  # relative Jacobian/finite-difference mismatch that raises
EXIT_SLACK = 1e-12  # how far outside its box a stepped coordinate may land
MAX_EXIT_EXAMPLES = 20  # offending (sample, coordinate) pairs an invariance report keeps


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned region {p : mu <= p <= nu}; infinite bounds allowed."""

    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        mu, nu = _freeze(self.mu), _freeze(self.nu)
        if mu.shape != nu.shape or mu.ndim != 1:
            raise ValueError(f"bounds must be equal-length vectors, got {mu.shape} and {nu.shape}")
        for bad, why in ((np.isnan(mu) | np.isnan(nu), "a bound is NaN"),
                         (mu > nu, "lower bound exceeds upper")):
            if bad.any():
                raise ValueError(f"{why} at coordinate {int(np.argmax(bad)) + 1}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def contains(self, p: np.ndarray, slack: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        if p.shape != self.mu.shape:
            raise ValueError(f"point must have shape {self.mu.shape}, got {p.shape}")
        return bool(np.all(p >= self.mu - slack) and np.all(p <= self.nu + slack))

    def _span(self) -> np.ndarray:
        """``nu - mu``, which sampling scales by; bounds and widths must be finite."""
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.nu))):
            raise ValueError("cannot sample a box with infinite bounds")
        with np.errstate(over="ignore"):
            span = self.nu - self.mu
        if not np.all(np.isfinite(span)):
            raise OverflowError("cannot sample a box whose width exceeds the float range")
        return span

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` uniform points, one per row: ``mu + span * U`` with U from
        ``rng.random``, the values and draw order of ``rng.uniform(mu, nu,
        (size, n))``, which is slower with array bounds.  Bounds must be finite."""
        span = self._span()
        P = rng.random((size, self.n))
        P *= span
        P += self.mu
        return P

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


def _star_center(net: InfluenceNetwork, kind: str, needs: str) -> int:
    """The center of ``net`` when it is a star of ``kind``; otherwise a
    WrongTopologyError that says what the caller ``needs``."""
    topo = classify_topology(net)
    if topo.kind != kind:
        raise WrongTopologyError(f"{needs}, got {topo}")
    return topo.center


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
    c = _star_center(net, STAR_PARTIAL_CENTER,
                     "star box needs a star with partially stubborn center")
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
    points, all of them as one stack, which each step solves in the chunks of
    :func:`~fjpower.fj_core.compute_social_power`: all 21 default starts share
    one solve up to n = 79 and each start has its own from n = 257.  The
    consensus point is the first converged run's limit;
    ``starts_agreeing`` counts converged runs within ``AGREE_TOL`` of it in
    the ∞-norm.
    """
    if multistarts < 0:
        raise ValueError(f"multistarts must be nonnegative, got {multistarts}")
    rng = np.random.default_rng(seed)
    n = net.n
    starts = np.vstack([np.full(n, 1.0 / n), rng.dirichlet(np.ones(n), size=multistarts)])
    trajs = run_stack_to_convergence(lambda P: step_power_evolution(net, P), starts,
                                     tol=tol, max_iter=max_iter)
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
        p_star=consensus.copy(),  # a row of the run's path would keep the whole path
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
        raise WrongTopologyError(f"closed form needs a star topology, got {topo}")
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

    def rows(self) -> tuple[MarginRow, ...]:
        return (self,)

    def margins(self) -> list[float]:
        return [] if self.margin is None else [self.margin]


# one row of a per-node block; a block is one array of these, not three arrays,
# because three array headers outweigh the data of a typical 3-60 row block
NODE_ROW = np.dtype([("node", np.intp), ("lhs", float), ("rhs", float)])
# one sampled point's coordinate that left its box after a single update;
# an invariance report holds its first MAX_EXIT_EXAMPLES exits as one array
EXIT_ROW = np.dtype([("sample", np.intp), ("coordinate", np.intp), ("value", float),
                     ("bound", float), ("side", "U5")])  # side: "lower" | "upper"
_NO_EXITS = np.recarray(0, dtype=EXIT_ROW)  # shared by every report without exits
_NO_EXITS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class NodeRows:
    """The rows lhs_i <= rhs_i, margin rhs_i - lhs_i, of several nodes i, held
    as one ``NODE_ROW`` array rather than as one MarginRow per node."""

    label: str
    table: np.ndarray

    def rows(self) -> list[MarginRow]:
        t = self.table
        return [MarginRow(self.label, lhs, rhs, margin, node=i) for i, lhs, rhs, margin
                in zip(t["node"].tolist(), t["lhs"].tolist(), t["rhs"].tolist(), self.margins())]

    def margins(self) -> list[float]:
        return (self.table["rhs"] - self.table["lhs"]).tolist()


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Outcome of one condition check: ``holds`` iff ``margin >= 0``.  Its
    rows are stored as ``parts``; ``detail`` lists them one MarginRow each."""

    condition: str
    holds: bool
    margin: float
    parts: tuple[Union[MarginRow, NodeRows], ...]

    @property
    def detail(self) -> tuple[MarginRow, ...]:
        return tuple(row for part in self.parts for row in part.rows())

    def __str__(self) -> str:
        head = f"{self.condition}: {'HOLDS' if self.holds else 'FAILS'} (margin {self.margin:.12g})"
        return "\n".join([head] + [str(row) for row in self.detail])


def _report(condition: str, parts: list[Union[MarginRow, NodeRows]]) -> ConditionReport:
    margin = min((m for part in parts for m in part.margins()), default=math.inf)
    return ConditionReport(
        condition=condition, holds=margin >= 0.0, margin=margin, parts=tuple(parts)
    )


def _node_rows(label: str, lhs: np.ndarray, rhs: np.ndarray, nodes) -> list[NodeRows]:
    """One row lhs_i <= rhs_i per node i in ``nodes``, with margin rhs_i - lhs_i."""
    nodes = np.asarray(nodes, dtype=np.intp)
    table = np.empty(nodes.size, dtype=NODE_ROW)
    table["node"], table["lhs"], table["rhs"] = nodes, lhs[nodes], rhs[nodes]
    return [NodeRows(label, table)]


def _influence_cap(net: InfluenceNetwork, timescale: str) -> list[NodeRows]:
    """Σ_j C[j,i] a_j/(1-a_j) <= a_i/(1-a_i) + 2(n-2)/n at each partially stubborn i."""
    rhs = net.a / (1.0 - net.a) + 2.0 * (net.n - 2) / net.n
    return _node_rows("influence_in", incoming_influence_load(net), rhs, net.partially_stubborn)


def _volatility_cap(net: InfluenceNetwork, timescale: str) -> list[NodeRows]:
    """Σ_{j: a_j > 0} C[j,i] (1+3a_j)/(4a_j) <= 1/a_i + 4/n at each partially
    stubborn i (strict in the source)."""
    with np.errstate(divide="ignore"):  # fully stubborn nodes get no row
        rhs = 1.0 / net.a + 4.0 / net.n
    return _node_rows("volatility_in", incoming_volatility_load(net), rhs, net.partially_stubborn)


def _star_center_load(net: InfluenceNetwork, timescale: str) -> list[MarginRow]:
    """Σ_j a_j/(1-a_j) <= 1/(a_c(1-a_c)) - 4/n over the partially stubborn j != c
    of a star whose center c is partially stubborn; each such j needs C[c, j] = 0."""
    c = _star_center(net, STAR_PARTIAL_CENTER,
                     f"{STAR_CENTER_LOAD} applies to stars with partially stubborn center")
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


def _democracy(net: InfluenceNetwork, timescale: str) -> list[NodeRows]:
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
    if timescale not in (ISSUE, STEP):
        raise ValueError(f"unknown timescale {timescale!r}; expected {ISSUE!r} or {STEP!r}")
    return _report(which, evaluate(net, timescale))


def check_dominance_necessary(
    net: InfluenceNetwork, p_star: np.ndarray, node: int, sigma: float
) -> ConditionReport:
    """Necessary condition for one node holding more than ``sigma`` of the power.

    If the equilibrium share p*_i exceeds σ then
    Σ_j C[j,i] a_j/(1-a_j) > a_i/(1-a_i) + (nσ-1)/(nσ(1-σ)) must hold; the
    contrapositive certifies no dominance at level σ whenever the report
    fails.  σ must lie in [1/2, 1) and ``node`` in 0…n-1.
    """
    if not 0.5 <= sigma < 1.0:
        raise ValueError(f"sigma must be in [1/2, 1), got {sigma}")
    if not 0 <= node < net.n:
        raise ValueError(f"node must be in 0..{net.n - 1}, got {node}")
    p_star = node_vector(net, "p_star", p_star)
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
    """The ``ra`` rule applied to each row of ``P`` at once, in a fresh array.

    The relay and the update stream through cache-sized row blocks of about
    ``perception.BLOCK_ENTRIES`` entries around one BLAS product for all rows (a
    row-chunked product would change the last bits), so the bits do not
    depend on the block size and memory peaks at about three arrays of
    ``P``'s shape.  The product is no ordered reduction (that would need a
    rows × n × n temporary), so rows match :func:`step_perception_ra` to
    rounding, not bit-for-bit."""
    ra = RULES["ra"]
    a, n = net.a, net.n
    rows = max(1, perception.BLOCK_ENTRIES // n)
    blocks = [slice(s, s + rows) for s in range(0, len(P), rows)]
    G = np.empty(P.shape)
    for b in blocks:
        G[b] = ra.relay(a, None, P[b])
    G = G @ net.C
    for b in blocks:
        G[b] = ra.update(a, None, P[b], n, G[b])
    return G


def box_image(net: InfluenceNetwork, box: Box) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate bounds ``(lo, hi)`` of the ``ra`` map over ``box``, and a
    bound ``err`` on their rounding and on that of any batched step.

    Coordinate i of the map is ``(1-a_i)/n + a_i p_i² + (1-a_i) Σ_j C[j,i] r_j``
    with ``r_j = a_j/(1-a_j) · p_j(1-p_j)``.  C is nonnegative with a zero
    diagonal, so each term depends on one coordinate with a nonnegative
    weight, and the image of a box is the box of the terms' extremes:
    ``p²`` is convex, largest at the endpoint farther from 0 and smallest at
    ``clip(0, mu, nu)``; ``r`` is concave, largest at ``clip(1/2, mu, nu)``
    and smallest at an endpoint.  The relay bounds, and ``|r|``'s bound for
    the error, go through one ``(3, n) @ C`` product.

    The box is first widened by ``4u(|mu| + |nu|)`` (u the unit roundoff),
    which holds every point :meth:`Box.sample` can round to.  For every p in
    it, ``_batch_step_ra``'s value at coordinate i, with its relay product
    summed in any order and with or without FMA, lies within ``err_i`` of
    ``[lo_i, hi_i]``; so does the exact image, and ``lo - 2 err`` and
    ``hi + 2 err`` evaluated in floating point still enclose both.  ``err``
    is ``γ_{n+16} S`` (Higham's ``γ_k = ku/(1-ku)``), S the map's terms in
    absolute value at their largest over the box: a step rounds 5 times in a
    relay, n times in the product and 3 more times in the update, so the
    step and the bound each err by at most ``γ_{n+8} S``; the 8 further
    units cover the rounding of S, ``err`` and the final sums (no underflow
    assumed, n far below 1e8).  Entries may be non-finite when a bound is
    huge; callers fall back to sampling then.
    """
    ra = RULES["ra"]
    a, n = net.a, net.n
    u = np.finfo(float).eps / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        widen = 4.0 * u * (np.abs(box.mu) + np.abs(box.nu))
        mu, nu = box.mu - widen, box.nu + widen
        r_hi = ra.relay(a, None, np.clip(0.5, mu, nu))
        r_lo = np.minimum(ra.relay(a, None, mu), ra.relay(a, None, nu))
        r_abs = np.maximum(np.abs(r_hi), np.abs(r_lo))
        g_hi, g_lo, g_abs = np.stack([r_hi, r_lo, r_abs]) @ net.C
        far = np.where(-mu > nu, mu, nu)
        lo = ra.update(a, None, np.clip(0.0, mu, nu), n, g_lo)
        hi = ra.update(a, None, far, n, g_hi)
        k = n + 16
        err = k * u / (1.0 - k * u) * ra.update(a, None, far, n, g_abs)
    return lo, hi, err


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    """A trial's exits, and ``margin``: the signed slack ``min(nu - hi, lo - mu)``
    of :func:`box_image` over all coordinates, negative when the exact image
    leaves the box however few samples landed outside.  ``examples`` is a
    read-only ``EXIT_ROW`` record array of the first ``MAX_EXIT_EXAMPLES``
    exits; every report without exits shares one empty table."""

    samples: int
    exit_count: int
    examples: np.recarray
    margin: float = math.nan

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
    """One-step invariance test of the reflected-appraisal map.

    First the certificate: :func:`box_image` bounds the map over ``box``
    exactly, to within its rounding bound ``err``.  When ``hi + 2 err`` is at
    most ``nu + EXIT_SLACK`` and ``lo - 2 err`` at least ``mu - EXIT_SLACK``
    at every coordinate, no point of the box can step out, and the report
    (no exits out of ``samples``) is returned without drawing: it is the
    report the trial below would give.

    Otherwise, a Monte-Carlo trial: draws ``samples`` uniform points in
    ``box`` with :meth:`Box.sample`, steps them all with ``_batch_step_ra``
    and counts coordinates landing outside by more than ``EXIT_SLACK``.
    Keeps the first ``MAX_EXIT_EXAMPLES`` offending (sample, coordinate)
    pairs, in sample-then-coordinate order, as one read-only ``EXIT_ROW``
    record array.  Memory peaks at about three ``(samples, n)`` arrays,
    inside the step.

    Either way the report's ``margin`` is the exact image's signed slack, so
    a leak that no sample hit still shows as a negative margin.
    """
    if box.n != net.n:
        raise ValueError(f"box has {box.n} coordinates, the network {net.n} nodes")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    box._span()  # an infinite or overflowing box raises before the certificate
    low, high = box.mu - EXIT_SLACK, box.nu + EXIT_SLACK
    lo, hi, err = box_image(net, box)
    with np.errstate(over="ignore", invalid="ignore"):
        certified = bool(np.all(hi + 2.0 * err <= high) and np.all(lo - 2.0 * err >= low))
        margin = float(np.min(np.minimum(box.nu - hi, lo - box.mu)))
    if certified:  # a NaN bound compares False and falls through to sampling
        return InvarianceReport(samples=samples, exit_count=0, examples=_NO_EXITS,
                                margin=margin)
    Q = _batch_step_ra(net, box.sample(np.random.default_rng(seed), samples))
    below = Q < low
    exits = np.flatnonzero(below | (Q > high))  # in C order: sample, then coordinate
    examples = _NO_EXITS
    if exits.size:
        r, c = np.divmod(exits[:MAX_EXIT_EXAMPLES], net.n)
        lower = below[r, c]
        examples = np.rec.fromarrays(
            (r, c, Q[r, c], np.where(lower, box.mu[c], box.nu[c]),
             np.where(lower, "lower", "upper")), dtype=EXIT_ROW)
        examples.flags.writeable = False
    return InvarianceReport(samples=samples, exit_count=len(exits), examples=examples,
                            margin=margin)


# ---------------------------------------------------------------------------
# contraction diagnostics
# ---------------------------------------------------------------------------

def perception_jacobian(net: InfluenceNetwork, p: np.ndarray) -> np.ndarray:
    """Similarity-transformed Jacobian J of the reflected-appraisal map.

    J_ii = 2 a_i p_i and J_ij = C[j,i] a_j (1 - 2 p_j); the map's actual
    derivative is (I-A) J (I-A)⁻¹, so norms of J bound the contraction rate
    in the transformed coordinates.
    """
    p = node_vector(net, "p", p)
    J = net.C.T * (net.a * (1.0 - 2.0 * p))[None, :]
    np.fill_diagonal(J, 2.0 * net.a * p)
    return J


def contraction_diagnostic(
    net: InfluenceNetwork,
    p: np.ndarray,
    verify_fd: bool = True,
) -> float:
    """1-norm of the transformed Jacobian at ``p``; < 1 signals contraction.

    The column-sum structure collapses to max_i a_i (2|p_i| + |1 - 2 p_i|).
    With ``verify_fd`` the analytic derivative (I-A) J (I-A)⁻¹ is checked
    against central finite differences of the update map and a mismatch
    beyond ``FD_RTOL`` raises.  The check steps the bumped points in blocks
    of ``max(1, perception.BLOCK_ENTRIES // n)`` coordinates, so it holds J and
    cache-sized blocks: about two n × n arrays in all.
    """
    p = np.asarray(p, dtype=float)
    J = perception_jacobian(net, p)
    if verify_fd:
        a, n = net.a, net.n
        rows = max(1, perception.BLOCK_ENTRIES // n)
        # running max |analytic| and max |analytic - fd|; np.maximum keeps a NaN
        top = diff = 0.0
        for s in range(0, n, rows):
            b = slice(s, s + rows)
            analytic = (1.0 - a)[:, None] * J[:, b] / (1.0 - a)[None, b]
            bumps = FD_STEP * np.eye(analytic.shape[1], n, s)
            # row j of each batch is the map at p ± FD_STEP e_(s+j), so column j of fd
            fd = (_batch_step_ra(net, p + bumps) - _batch_step_ra(net, p - bumps)).T / (2.0 * FD_STEP)
            top = np.maximum(top, np.max(np.abs(analytic)))
            diff = np.maximum(diff, np.max(np.abs(analytic - fd)))
        err = float(diff) / max(float(top), 1e-12)
        if err > FD_RTOL:
            raise FJPowerError(
                f"Jacobian/finite-difference mismatch: relative error {err:.3e} "
                f"exceeds {FD_RTOL:.1e}"
            )
    return float(np.max(np.abs(J).sum(axis=0)))
