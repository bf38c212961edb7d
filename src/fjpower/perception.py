"""Distributed perception-of-power dynamics.

Each node keeps a scalar estimate ``p_i`` of its own social power and updates
it from strictly local data: its susceptibility ``a_i``, its self-weight
(a fixed ``gamma_i``, or its own current estimate in the reflected-appraisal
variant), the group size ``n``, and — for every node ``j`` that accords it
influence weight ``C[j, i]`` — that node's susceptibility, self-weight and
broadcast estimate.

Three update rules live here, all sharing the relay structure
``(1 - a_i)/n + (self term) + (1 - a_i) * sum over in-neighbors``:

* fixed self-weights (``step_perception_no_ra``),
* reflected appraisals, self-weight = own estimate (``step_perception_ra``),
* the homogeneous-susceptibility PageRank variant (``step_pagerank_ra``).

Estimates may leave ``[0, 1]`` and the simplex; nothing here clips them.
The vectorized steppers evaluate exactly the per-node formulas (each output
coordinate touches only local data); ``local_step_*`` are the scalar per-node
versions the round-based simulator runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import InvalidStructureError, ViewViolationError
from .fj_core import influence_matrix
from .network import InfluenceNetwork

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITER = "max_iter"
NONFINITE = "nonfinite"

ISSUE = "issue"
STEP = "step"

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
DEFAULT_DIVERGENCE_BOUND = 1e9


# ---------------------------------------------------------------------------
# vectorized steppers (node-local formulas, evaluated for all nodes at once)
# ---------------------------------------------------------------------------

def step_perception_no_ra(
    net: InfluenceNetwork, gamma: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """One perception round under fixed self-weights (no reflected appraisal).

    p'_i = (1-a_i)/n + a_i γ_i p_i
           + (1-a_i) Σ_j [a_j/(1-a_j)] C[j,i] (1-γ_j) p_j

    The relay sum is reduced column-by-column in ascending sender order so a
    scalar per-node evaluation (see :func:`local_step_no_ra`) reproduces it
    bit-for-bit, not merely to rounding.
    """
    a = net.a
    gamma = np.asarray(gamma, dtype=float)
    p = np.asarray(p, dtype=float)
    relay = ((a * (1.0 - gamma) * p / (1.0 - a))[:, None] * net.C).sum(axis=0)
    return (1.0 - a) / net.n + a * gamma * p + (1.0 - a) * relay


def step_perception_ra(net: InfluenceNetwork, p: np.ndarray) -> np.ndarray:
    """One perception round with reflected appraisals (self-weight = own p).

    p'_i = (1-a_i)/n + a_i p_i² + (1-a_i) Σ_j [a_j/(1-a_j)] C[j,i] p_j (1-p_j)

    The same map serves issue-indexed and step-indexed runs; only the
    trajectory's timescale label differs.  The relay reduction runs in
    ascending sender order so :func:`local_step_ra` reproduces it exactly.
    """
    a = net.a
    p = np.asarray(p, dtype=float)
    relay = ((a * p * (1.0 - p) / (1.0 - a))[:, None] * net.C).sum(axis=0)
    return (1.0 - a) / net.n + a * p * p + (1.0 - a) * relay


def homogeneous_susceptibility(net: InfluenceNetwork) -> float:
    """The shared susceptibility, or InvalidStructure if nodes differ."""
    a0 = float(net.a[0])
    if np.any(net.a != a0):
        raise InvalidStructureError(
            "homogeneous update needs one shared susceptibility; "
            f"found values from {net.a.min()} to {net.a.max()}"
        )
    if not 0.0 < a0 < 1.0:
        raise InvalidStructureError(f"shared susceptibility must be in (0, 1), got {a0}")
    return a0


def step_pagerank_ra(net: InfluenceNetwork, p: np.ndarray) -> np.ndarray:
    """Reflected-appraisal PageRank round for one shared susceptibility ``a``.

    p' = a W(p)ᵀ p + ((1-a)/n) 1.  Coincides with :func:`step_perception_ra`
    when every node has susceptibility ``a``.  The relay reduction runs in
    ascending sender order so :func:`local_step_homogeneous` reproduces it
    exactly.
    """
    a = homogeneous_susceptibility(net)
    p = np.asarray(p, dtype=float)
    relay = ((p * (1.0 - p))[:, None] * net.C).sum(axis=0)
    return a * (p * p + relay) + (1.0 - a) / net.n


def step_degroot_diagnostic(
    net: InfluenceNetwork, gamma: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Comparison-only averaging update p' = W(γ)ᵀ p.

    No stubbornness anchoring: iterates approach the dominant left eigenvector
    of W(γ) only when the estimates start summing to one and W(γ) is
    irreducible.  Kept as a diagnostic, not part of the perception family.
    """
    W = influence_matrix(net.C, np.asarray(gamma, dtype=float))
    return W.T @ np.asarray(p, dtype=float)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Recorded orbit of one run: every visited state plus the stop verdict.

    ``path`` has one row per state, row 0 being the start; ``status`` is one
    of CONVERGED / DIVERGED / NONFINITE / MAX_ITER; ``timescale`` labels the
    clock as issue-indexed or step-indexed (the maps do not differ).
    """

    path: np.ndarray
    status: str
    timescale: str = ISSUE
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        path = np.array(self.path, dtype=float, copy=True)
        if path.ndim != 2:
            raise ValueError(f"path must be 2-D (states x nodes), got shape {path.shape}")
        path.setflags(write=False)
        object.__setattr__(self, "path", path)

    @property
    def n(self) -> int:
        return self.path.shape[1]

    @property
    def iterations(self) -> int:
        return self.path.shape[0] - 1

    @property
    def initial(self) -> np.ndarray:
        return self.path[0]

    @property
    def final(self) -> np.ndarray:
        return self.path[-1]

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def sup_gaps(self) -> np.ndarray:
        """∞-norm of successive increments, one value per step taken."""
        return np.max(np.abs(np.diff(self.path, axis=0)), axis=1)


def _escape_status(p: np.ndarray) -> str:
    """Verdict for a state that failed ``|p| <= bound`` (as NaN does)."""
    return DIVERGED if np.all(np.isfinite(p)) else NONFINITE


def run_to_convergence(
    stepper: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
    timescale: str = ISSUE,
) -> Trajectory:
    """Iterate ``stepper`` from ``p0`` and record every state.

    Stops with status CONVERGED when the ∞-norm increment drops below ``tol``,
    DIVERGED as soon as any coordinate magnitude passes ``divergence_bound``,
    NONFINITE as soon as any coordinate is NaN or infinite (the offending state
    is kept as the last row, and the start is checked too), or MAX_ITER after
    ``max_iter`` steps.  Divergence is classified purely by the magnitude
    bound, which keeps the verdict deterministic.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    p = np.asarray(p0, dtype=float)
    states = [p]
    status = MAX_ITER
    if not np.all(np.abs(p) <= divergence_bound):
        return Trajectory(np.array(states), _escape_status(p), timescale, tol)
    for _ in range(max_iter):
        p_next = np.asarray(stepper(p), dtype=float)
        states.append(p_next)
        if not np.all(np.abs(p_next) <= divergence_bound):
            status = _escape_status(p_next)
            break
        if np.max(np.abs(p_next - p)) < tol:
            status = CONVERGED
            break
        p = p_next
    return Trajectory(np.array(states), status, timescale, tol)


# ---------------------------------------------------------------------------
# per-node locality: views and scalar updates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeighborInfo:
    """Static data one node holds about one in-neighbor.

    ``weight`` is the influence the neighbor accords to the view's owner
    (the neighbor's row entry for the owner's column); ``gamma`` is only
    present in fixed-self-weight mode.
    """

    node: int
    a: float
    weight: float
    gamma: Optional[float] = None


@dataclass(frozen=True)
class LocalView:
    """Everything node ``node`` may legally read, besides its own estimate.

    Own susceptibility and (in fixed-weight mode) own self-weight, the group
    size, and one :class:`NeighborInfo` per in-neighbor, ascending by id.
    Neighbors' current estimates are *not* here — they arrive each round
    through an inbox.
    """

    node: int
    n: int
    a: float
    gamma: Optional[float]
    neighbors: tuple[NeighborInfo, ...]

    @cached_property
    def in_neighbor_ids(self) -> tuple[int, ...]:
        return tuple(nb.node for nb in self.neighbors)

    @cached_property
    def sender_set(self) -> frozenset[int]:
        """The only senders an inbox may hold, as a set."""
        return frozenset(self.in_neighbor_ids)


def build_local_views(
    net: InfluenceNetwork, gamma: Optional[np.ndarray] = None
) -> tuple[LocalView, ...]:
    """One view per node; pass ``gamma`` only for the fixed-self-weight mode.

    Reads the network's cached adjacency, so the cost is O(n + nnz).
    """
    adj = net.adjacency
    a = net.a.tolist()
    g = [None] * net.n if gamma is None else np.asarray(gamma, dtype=float).tolist()
    weights = adj.weights.tolist()
    views = []
    for i, (senders, lo) in enumerate(zip(adj.in_lists, adj.offsets.tolist())):
        nbrs = tuple(
            NeighborInfo(node=j, a=a[j], weight=w, gamma=g[j])
            for j, w in zip(senders, weights[lo:lo + len(senders)])
        )
        views.append(LocalView(node=i, n=net.n, a=a[i], gamma=g[i], neighbors=nbrs))
    return tuple(views)


def _neighbor_values(view: LocalView, inbox: Mapping[int, float]) -> list[float]:
    """Inbox values in ascending-neighbor order, after checking the inbox
    holds exactly one value per in-neighbor and nothing else."""
    if inbox.keys() != view.sender_set:
        expected = view.sender_set
        got = set(inbox)
        extra = sorted(got - expected)
        missing = sorted(expected - got)
        raise ViewViolationError(
            f"node {view.node + 1} inbox mismatch: "
            f"unexpected senders {[k + 1 for k in extra]}, "
            f"missing senders {[k + 1 for k in missing]}"
        )
    return [float(inbox[j]) for j in view.in_neighbor_ids]


def local_step_no_ra(view: LocalView, own_p: float, inbox: Mapping[int, float]) -> float:
    """Scalar fixed-self-weight update from one node's view and inbox only.

    Term order and association mirror :func:`step_perception_no_ra` exactly,
    so round-based runs reproduce the vectorized trajectories bit-for-bit.
    """
    if view.gamma is None:
        raise ViewViolationError(
            f"node {view.node + 1} has no self-weight in its view; "
            "fixed-weight mode needs gamma"
        )
    values = _neighbor_values(view, inbox)
    acc = 0.0
    for nb, pj in zip(view.neighbors, values):
        acc += nb.a * (1.0 - nb.gamma) * pj / (1.0 - nb.a) * nb.weight
    return (1.0 - view.a) / view.n + view.a * view.gamma * own_p + (1.0 - view.a) * acc


def local_step_ra(view: LocalView, own_p: float, inbox: Mapping[int, float]) -> float:
    """Scalar reflected-appraisal update from one node's view and inbox only.

    Term order and association mirror :func:`step_perception_ra` exactly, so
    round-based runs reproduce the vectorized trajectories bit-for-bit.
    """
    values = _neighbor_values(view, inbox)
    acc = 0.0
    for nb, pj in zip(view.neighbors, values):
        acc += nb.a * pj * (1.0 - pj) / (1.0 - nb.a) * nb.weight
    return (1.0 - view.a) / view.n + view.a * own_p * own_p + (1.0 - view.a) * acc


def local_step_homogeneous(
    view: LocalView, own_p: float, inbox: Mapping[int, float]
) -> float:
    """Scalar PageRank-style update; the view's own ``a`` is the shared one.

    Term order and association mirror :func:`step_pagerank_ra` exactly, so
    round-based runs reproduce the vectorized trajectories bit-for-bit.
    """
    values = _neighbor_values(view, inbox)
    acc = 0.0
    for nb, pj in zip(view.neighbors, values):
        acc += pj * (1.0 - pj) * nb.weight
    return view.a * (own_p * own_p + acc) + (1.0 - view.a) / view.n
