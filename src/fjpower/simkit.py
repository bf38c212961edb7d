"""Round-based multi-agent simulation enforcing the locality contract.

Each agent owns exactly its :class:`~fjpower.perception.LocalView`, its own
current estimate, and an inbox.  A round has two phases: every agent
broadcasts its estimate to the nodes it accords weight to (the message
fabric fills each inbox along its view's in-edges), then every agent
computes its next estimate from its view, its own value and its inbox —
nothing else is reachable from the update functions.  Rounds are
synchronous; inbox slots are overwritten each round.

The batch API over scenarios already loaded also lives here; per-scenario
failures are captured in the summaries so a batch never aborts midway.
``fjpower batch`` loads, claims and runs each file itself, so a file that
fails to load is summarized there too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .network import InfluenceNetwork, node_vector
from .perception import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LocalView,
    Trajectory,
    build_local_views,
    local_step,
    run_to_convergence,
)


@dataclass
class Agent:
    """One node: a view, a scalar estimate, and an inbox of neighbor values."""

    view: LocalView
    p: float
    inbox: dict[int, float] = field(default_factory=dict)


def make_agents(net: InfluenceNetwork, mode: str, p0: np.ndarray,
                gamma: Optional[np.ndarray] = None) -> list[Agent]:
    """Agents starting at ``p0``, with the views that
    :func:`~fjpower.perception.build_local_views` builds and checks for ``mode``."""
    p0 = node_vector(net, "p0", p0)
    return [Agent(view=v, p=float(p0[v.node])) for v in build_local_views(net, mode, gamma)]


def deliver(agents: Sequence[Agent]) -> int:
    """Broadcast phase: each agent's estimate reaches its out-neighbors.

    Every inbox is filled along its own view's in-edges from one list of the
    current estimates, so a round costs O(n + nnz) and each directed edge
    carries one message.  ``agents[k]`` must be node k's agent, for every
    node, as :func:`make_agents` builds them; the first agent missing or out
    of place, or a surplus agent, is a ValueError.  Returns the number of
    messages delivered.
    """
    nodes = [ag.view.node for ag in agents]
    if agents and nodes != list(range(n := agents[0].view.n)):
        k = next((k for k, i in enumerate(nodes) if i != k), len(nodes))
        if k == n:  # node k would be past the last node
            raise ValueError(f"the list holds {len(nodes) - n} agent(s) more than "
                             f"the network's {n} nodes")
        raise ValueError(f"agents[{k}] must be node {k + 1}'s agent, but "
                         + (f"it is node {nodes[k] + 1}'s" if k < len(nodes) else "it is missing"))
    values = [ag.p for ag in agents]
    count = 0
    for ag in agents:
        inbox = ag.inbox
        in_edges = ag.view.in_edges
        for j, _, _, _ in in_edges:
            inbox[j] = values[j]
        count += len(in_edges)
    return count


def advance(agents: Sequence[Agent]) -> np.ndarray:
    """Compute phase: every agent updates from (view, own value, inbox) only,
    under the rule its view was built for."""
    new_values = [local_step(ag.view, ag.p, ag.inbox) for ag in agents]
    for ag, value in zip(agents, new_values):
        ag.p = value
    return np.array(new_values)


def run_round(agents: Sequence[Agent]) -> np.ndarray:
    """One full broadcast+compute round; returns the new estimates."""
    deliver(agents)
    return advance(agents)


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
    return run_to_convergence(lambda _p: run_round(agents),
                              [ag.p for ag in agents], tol, max_iter)


def run_batch(scenarios: Sequence, out_dir=None) -> list:
    """Run many loaded scenarios in order; per-scenario errors, and a name an
    earlier scenario took (named by 1-based position), become summary entries.

    ``scenarios`` holds loaded scenario objects; results keep the input
    order.  ``out_dir`` is forwarded to each run.  Loading is the caller's:
    ``fjpower batch`` captures each file's load, name claim and run itself.
    """
    from .scenario import claim_name, error_result, run_scenario  # lazy: scenario imports simkit

    results = []
    taken: dict[str, str] = {}
    for k, scn in enumerate(scenarios, start=1):
        try:
            claim_name(taken, scn.name, f"scenario {k}")
            results.append(run_scenario(scn, out_dir=out_dir))
        except Exception as exc:  # noqa: BLE001 — batch must never abort
            results.append(error_result(scn.name, scn.mode, exc))
    return results
