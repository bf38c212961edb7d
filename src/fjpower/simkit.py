"""Round-based multi-agent simulation enforcing the locality contract.

Each agent owns exactly its :class:`~fjpower.perception.LocalView`, its own
current estimate, and an inbox.  A round has two phases: every agent
broadcasts its estimate to the nodes it accords weight to (the message
fabric routes by the network's edges), then every agent computes its next
estimate from its view, its own value and its inbox — nothing else is
reachable from the update functions.  Rounds are synchronous; inbox slots
are overwritten each round.

Batch execution of scenario files also lives here; per-scenario failures are
captured in the summaries so a batch never aborts midway.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .network import InfluenceNetwork
from .perception import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RULES,
    LocalView,
    Trajectory,
    build_local_views,
    homogeneous_susceptibility,
    local_step,
    run_to_convergence,
)

# the keys of perception.RULES
MODE_NO_RA = "no_ra"
MODE_RA = "ra"
MODE_HOMOGENEOUS = "homogeneous"


@dataclass
class Agent:
    """One node: a view, a scalar estimate, and an inbox of neighbor values."""

    view: LocalView
    p: float
    inbox: dict[int, float] = field(default_factory=dict)

    @property
    def node(self) -> int:
        return self.view.node


def make_agents(
    net: InfluenceNetwork,
    mode: str,
    p0: np.ndarray,
    gamma: Optional[np.ndarray] = None,
) -> list[Agent]:
    """Agents with freshly built views for the rule ``RULES[mode]``; ``gamma``
    is given exactly when the rule needs it (no_ra mode)."""
    rule = RULES.get(mode)
    if rule is None:
        raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(RULES)}")
    if rule.needs_gamma and gamma is None:
        raise ValueError(f"{mode} mode needs a self-weight vector gamma")
    if not rule.needs_gamma and gamma is not None:
        raise ValueError(f"{mode} mode takes no gamma")
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (net.n,):
        raise ValueError(f"p0 must have shape ({net.n},), got {p0.shape}")
    if rule.shared_a:
        homogeneous_susceptibility(net)
    views = build_local_views(net, gamma)
    return [Agent(view=v, p=float(p0[v.node])) for v in views]


def deliver(net: InfluenceNetwork, agents: Sequence[Agent]) -> int:
    """Broadcast phase: each agent's estimate reaches its out-neighbors.

    Walks the network's cached out-lists, so a round costs O(n + nnz).
    ``agents[k]`` must be node k's agent, as :func:`make_agents` builds them.
    Returns the number of messages delivered (one per directed edge).
    """
    out_lists = net.adjacency.out_lists
    inboxes = [ag.inbox for ag in agents]
    count = 0
    for ag in agents:
        node, value = ag.node, ag.p
        targets = out_lists[node]
        for k in targets:
            inboxes[k][node] = value
        count += len(targets)
    return count


def advance(agents: Sequence[Agent], mode: str) -> np.ndarray:
    """Compute phase: every agent updates from (view, own value, inbox) only,
    under the rule ``RULES[mode]``."""
    rule = RULES[mode]
    new_values = [local_step(rule, ag.view, ag.p, ag.inbox) for ag in agents]
    for ag, value in zip(agents, new_values):
        ag.p = value
    return np.array(new_values)


def run_round(net: InfluenceNetwork, agents: Sequence[Agent], mode: str) -> np.ndarray:
    """One full broadcast+compute round; returns the new estimates."""
    deliver(net, agents)
    return advance(agents, mode)


def run_distributed(
    net: InfluenceNetwork,
    mode: str,
    p0: np.ndarray,
    gamma: Optional[np.ndarray] = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Trajectory:
    """Run the round-based simulation until the usual stop rules fire.

    The stop rules are :func:`~fjpower.perception.run_to_convergence`'s, driven
    one round per step, so ``tol`` and ``max_iter`` are checked the same way.
    Agents and the vectorized steppers evaluate the same rule row, adding
    relays in ascending sender order, so trajectories reproduce theirs
    bit-for-bit, even along diverging runs.
    """
    agents = make_agents(net, mode, p0, gamma)
    # the agents hold the state; the stop-rule loop's copy is only compared
    return run_to_convergence(lambda _p: run_round(net, agents, mode),
                              [ag.p for ag in agents], tol, max_iter)


def run_batch(scenarios: Sequence, out_dir=None) -> list:
    """Run many scenarios in order; per-scenario errors become summary entries.

    ``scenarios`` holds loaded scenario objects; results keep the input
    order.  ``out_dir`` is forwarded to each run.
    """
    from .scenario import run_scenario, error_result  # lazy: scenario imports simkit

    results = []
    for scn in scenarios:
        try:
            results.append(run_scenario(scn, out_dir=out_dir))
        except Exception as exc:  # noqa: BLE001 — batch must never abort
            results.append(error_result(scn.name, scn.mode, exc))
    return results
