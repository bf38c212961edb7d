"""Distributed perception-of-power dynamics.

Each node keeps a scalar estimate ``p_i`` of its own social power and updates
it from strictly local data: its susceptibility ``a_i``, its self-weight
(a fixed ``gamma_i``, or its own current estimate in the reflected-appraisal
variant), the group size ``n``, and — for every node ``j`` that accords it
influence weight ``C[j, i]`` — that node's susceptibility, self-weight and
broadcast estimate.

Three update rules live here, one row each of the table ``RULES``: fixed
self-weights (``no_ra``), reflected appraisals with self-weight = own estimate
(``ra``), and the shared-susceptibility PageRank variant (``homogeneous``).
The vectorized steppers evaluate a row for all nodes at once; :func:`local_step`
evaluates it at one node from that node's view and inbox, as the round-based
simulator does.  Both add relays in ascending sender order (the steppers
stream C through cache-sized row blocks, carrying the running column sums from
block to block), so distributed and centralized runs agree bit-for-bit by
construction.  Estimates may leave ``[0, 1]`` and the simplex; nothing here
clips them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import InvalidStructureError, ViewViolationError
from .network import InfluenceNetwork

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITER = "max_iter"
NONFINITE = "nonfinite"

ISSUE = "issue"
STEP = "step"

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
DIVERGENCE_BOUND = 1e9
BLOCK_ENTRIES = 1 << 14  # matrix entries (128 KB, cache-sized) per row block of a streamed step


# ---------------------------------------------------------------------------
# the perception rules, and the vectorized steppers built on them
# ---------------------------------------------------------------------------

class Rule(NamedTuple):
    """One perception rule as plain float arithmetic, which runs on numpy
    arrays (every node at once) and on Python floats (one node) alike.

    ``relay(a_j, gamma_j, p_j)`` is the term sender j passes on, scaled by the
    weight ``C[j, i]`` it accords receiver i; ``update(a_i, gamma_i, p_i, n,
    relay_sum)`` is node i's next estimate.  ``gamma`` is ``None`` unless
    ``needs_gamma``; ``shared_a`` rules need one susceptibility for all nodes.
    """

    needs_gamma: bool
    shared_a: bool
    relay: Callable
    update: Callable


RULES = {
    # fixed self-weights (no reflected appraisal):
    # p'_i = (1-a_i)/n + a_i γ_i p_i + (1-a_i) Σ_j [a_j/(1-a_j)] C[j,i] (1-γ_j) p_j
    "no_ra": Rule(
        needs_gamma=True, shared_a=False,
        relay=lambda a, g, p: a * (1.0 - g) * p / (1.0 - a),
        update=lambda a, g, p, n, relay: (1.0 - a) / n + a * g * p + (1.0 - a) * relay),
    # reflected appraisals, self-weight = own estimate:
    # p'_i = (1-a_i)/n + a_i p_i² + (1-a_i) Σ_j [a_j/(1-a_j)] C[j,i] p_j (1-p_j)
    "ra": Rule(
        needs_gamma=False, shared_a=False,
        relay=lambda a, g, p: a * p * (1.0 - p) / (1.0 - a),
        update=lambda a, g, p, n, relay: (1.0 - a) / n + a * p * p + (1.0 - a) * relay),
    # one shared susceptibility a (PageRank): p' = a W(p)ᵀ p + ((1-a)/n) 1,
    # which is the "ra" map when every node has susceptibility a
    "homogeneous": Rule(
        needs_gamma=False, shared_a=True,
        relay=lambda a, g, p: p * (1.0 - p),
        update=lambda a, g, p, n, relay: a * (p * p + relay) + (1.0 - a) / n),
}


def node_vector(net: InfluenceNetwork, name: str, values) -> np.ndarray:
    """``values`` as a float array, which must hold one entry per node."""
    values = np.asarray(values, dtype=float)
    if values.shape != (net.n,):
        raise ValueError(f"{name} must have shape ({net.n},), got {values.shape}")
    return values


def _step(rule: Rule, net: InfluenceNetwork, gamma, p: np.ndarray) -> np.ndarray:
    """One round of ``rule`` for every node at once.

    The relay sum streams through blocks of ``BLOCK_ENTRIES // n`` sender rows
    (at least one): each block's weighted rows are added to the running
    column sums in ascending sender order, as :func:`local_step` adds, so the
    bits do not depend on the block size.  A call takes O(n²) time and
    O(n + BLOCK_ENTRIES) memory; for n <= 128 it is one block."""
    if rule.shared_a:
        homogeneous_susceptibility(net)
    a, n, C = net.a, net.n, net.C
    gamma = None if gamma is None else node_vector(net, "gamma", gamma)
    p = node_vector(net, "p", p)
    r = rule.relay(a, gamma, p)
    rows = max(1, BLOCK_ENTRIES // n)
    relay = None
    for s in range(0, n, rows):
        part = r[s:s + rows, None] * C[s:s + rows]
        if relay is not None:
            part[0] += relay  # the senders before this block, summed in order
        relay = part.sum(axis=0)
    return rule.update(a, gamma, p, n, relay)


def step_perception_no_ra(net: InfluenceNetwork, gamma: np.ndarray, p: np.ndarray) -> np.ndarray:
    """One perception round under fixed self-weights: the ``no_ra`` rule."""
    return _step(RULES["no_ra"], net, gamma, p)


def step_perception_ra(net: InfluenceNetwork, p: np.ndarray) -> np.ndarray:
    """One perception round with reflected appraisals: the ``ra`` rule.  It
    serves issue- and step-indexed runs; only the timescale label differs."""
    return _step(RULES["ra"], net, None, p)


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
    """Reflected-appraisal PageRank round: the ``homogeneous`` rule."""
    return _step(RULES["homogeneous"], net, None, p)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    timescale: str = ISSUE,
) -> Trajectory:
    """Iterate ``stepper`` from ``p0`` and record every state.

    Stops with status CONVERGED when the ∞-norm increment drops below ``tol``,
    DIVERGED as soon as any coordinate magnitude passes ``DIVERGENCE_BOUND``,
    NONFINITE as soon as any coordinate is NaN or infinite (the offending state
    is kept as the last row, and the start is checked too), or MAX_ITER after
    ``max_iter`` steps.  Divergence is classified purely by the magnitude
    bound, which keeps the verdict deterministic.  This is
    :func:`run_stack_to_convergence` on a stack of one start.
    """
    p0 = np.asarray(p0, dtype=float)
    (traj,) = run_stack_to_convergence(
        lambda P: np.asarray(stepper(P[0]), dtype=float)[None], p0[None],
        tol=tol, max_iter=max_iter, timescale=timescale)
    return traj


def run_stack_to_convergence(
    stepper: Callable[[np.ndarray], np.ndarray],
    P0: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    timescale: str = ISSUE,
) -> list[Trajectory]:
    """Run each row of the (k, n) stack ``P0`` under the stop rules of
    :func:`run_to_convergence`; one Trajectory per row, in row order.

    ``stepper`` maps the (m, n) stack of the rows still running to their next
    states.  A row leaves the stack at the step where its own rule stops it,
    so when the stepper treats rows independently each trajectory is the one
    a single-start run from that row records.

    States gather in a block until a row stops or the budget runs out; the
    block is then stacked once and released before any Trajectory copies its
    rows, so a single-start run holds two copies of its states at most.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    P = np.asarray(P0, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"starts must be 2-D (starts x nodes), got shape {P.shape}")
    k = P.shape[0]
    status = [MAX_ITER] * k
    pieces: list[list[np.ndarray]] = [[] for _ in range(k)]
    live = np.arange(k)  # the start each running row came from
    block = []  # states of the running rows since a row last stopped
    gaps = np.full(k, np.inf)  # the starts have no increment to test
    for t in range(max_iter + 1):
        if not live.size:
            break
        if t:
            P_next = np.asarray(stepper(P), dtype=float)
            gaps = np.abs(P_next - P).max(axis=1)
            P = P_next
        block.append(P)
        # one fused test per step, which NaN fails; per-row work only on a stop
        if t < max_iter and gaps.min() >= tol and np.abs(P).max() <= DIVERGENCE_BOUND:
            continue
        escaped = ~(np.abs(P).max(axis=1) <= DIVERGENCE_BOUND)
        stop = escaped | (gaps < tol)
        seg = np.array(block)  # (states, rows, n)
        block.clear()
        for j, r in enumerate(live.tolist()):
            pieces[r].append(seg[:, j])
            if stop[j]:
                status[r] = _escape_status(P[j]) if escaped[j] else CONVERGED
        live, P = live[~stop], P[~stop]
    return [
        Trajectory(rows[0] if len(rows) == 1 else np.concatenate(rows), verdict, timescale, tol)
        for rows, verdict in zip(pieces, status)
    ]


# ---------------------------------------------------------------------------
# per-node locality: views and scalar updates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalView:
    """Everything node ``node`` may legally read, besides its own estimate.

    Own susceptibility and (in fixed-weight mode) own self-weight, the group
    size, and one ``(j, a_j, C[j, node], gamma_j)`` tuple per in-neighbor j,
    ascending by j; ``gamma_j`` is None unless the view was built with gamma.
    Neighbors' current estimates are *not* here — they arrive each round
    through an inbox.
    """

    node: int
    n: int
    a: float
    gamma: Optional[float]
    in_edges: tuple[tuple[int, float, float, Optional[float]], ...]

    @cached_property
    def sender_set(self) -> frozenset[int]:
        """The only senders an inbox may hold, as a set."""
        return frozenset(j for j, _, _, _ in self.in_edges)


def build_local_views(
    net: InfluenceNetwork, gamma: Optional[np.ndarray] = None
) -> tuple[LocalView, ...]:
    """One view per node; pass ``gamma``, shape ``(n,)``, only for the
    fixed-self-weight mode.

    Each view slices the per-edge lists of the network's cached adjacency, so
    the cost is O(n + nnz).
    """
    n = net.n
    g = [None] * n if gamma is None else node_vector(net, "gamma", gamma).tolist()
    adj = net.adjacency
    a = net.a.tolist()
    # the object array gives each edge its sender's int and float objects, which
    # are one per node, not one per edge; edges are sorted by (receiver, sender),
    # so node i's block is offsets[i]:offsets[i + 1]
    senders, sender_a, sender_g = np.array([range(n), a, g], dtype=object)[:, adj.senders].tolist()
    edges = list(zip(senders, sender_a, adj.weights.tolist(), sender_g))
    bounds = adj.offsets.tolist()
    return tuple(
        LocalView(node=i, n=n, a=a[i], gamma=g[i], in_edges=tuple(edges[lo:hi]))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    )


def local_step(rule: Rule, view: LocalView, own_p: float, inbox: Mapping[int, float]) -> float:
    """One node's update under ``rule`` from its view, own estimate and inbox
    only; the inbox must hold one value per in-neighbor and nothing else."""
    if rule.needs_gamma and view.gamma is None:
        raise ViewViolationError(
            f"node {view.node + 1} has no self-weight in its view; "
            "fixed-weight mode needs gamma"
        )
    if inbox.keys() != view.sender_set:
        got = set(inbox)
        raise ViewViolationError(
            f"node {view.node + 1} inbox mismatch: "
            f"unexpected senders {[k + 1 for k in sorted(got - view.sender_set)]}, "
            f"missing senders {[k + 1 for k in sorted(view.sender_set - got)]}"
        )
    relay = rule.relay
    acc = 0.0
    for j, a_j, weight, gamma_j in view.in_edges:
        acc += relay(a_j, gamma_j, inbox[j]) * weight
    return rule.update(view.a, view.gamma, own_p, view.n, acc)
