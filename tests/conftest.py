"""Shared fixtures: the small networks most tests exercise.

The three-node nets are the package's workhorses: ``triad_net`` is a star
whose partially stubborn center relays between two followers, ``anchored_net``
pins one fully stubborn node above a two-node loop, and ``star3_net`` is the
fully-stubborn-center star with closed-form equilibrium; ``pair_net`` is the
two-node loop.  ``four_settings`` is the divergence demo: same wheel-like
topology under two susceptibility profiles and two starts.

The seeded generators ``random_network``, ``random_star_network`` and
``random_doubly_stochastic_ring`` draw the random networks of the property
tests and sweeps; ``table_network`` picks one kind of them per seed.
``traced`` is the memory probe of the tests that bound what a call allocates.
"""
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fjpower import InfluenceNetwork

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def carrier(C, a) -> SimpleNamespace:
    """Duck-typed (C, a, n) for limiting cases no InfluenceNetwork may hold."""
    a = np.asarray(a, dtype=float)
    return SimpleNamespace(C=np.asarray(C, dtype=float), a=a, n=len(a))


def traced(call):
    """``call()``'s result, with the bytes tracemalloc saw still held when it
    returned (the result included) and at its peak."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def random_network(
    rng: np.random.Generator,
    n: int,
    fully_stubborn_prob: float = 0.2,
    a_range: tuple[float, float] = (0.0, 0.95),
    density: float = 1.0,
) -> InfluenceNetwork:
    """Random valid network: row-normalized nonnegative C, zero diagonal.

    Susceptibilities are uniform in ``a_range`` with each node independently
    forced fully stubborn with probability ``fully_stubborn_prob``; at least
    one node is kept partially stubborn.
    """
    while True:
        M = rng.uniform(0.0, 1.0, size=(n, n))
        if density < 1.0:
            M *= rng.uniform(0.0, 1.0, size=(n, n)) < density
        np.fill_diagonal(M, 0.0)
        sums = M.sum(axis=1)
        if np.all(sums > 1e-9):
            break
    C = M / M.sum(axis=1)[:, None]
    a = rng.uniform(a_range[0], a_range[1], size=n)
    a[rng.uniform(size=n) < fully_stubborn_prob] = 0.0
    if np.all(a == 0.0):
        a[int(rng.integers(n))] = rng.uniform(max(a_range[0], 0.05), a_range[1])
    return InfluenceNetwork(C=C, a=a)


def random_star_network(
    rng: np.random.Generator,
    n: int,
    center_fully_stubborn: bool = True,
    leaf_fully_stubborn_prob: float = 0.25,
    a_range: tuple[float, float] = (0.05, 0.9),
) -> InfluenceNetwork:
    """Random star: every leaf points only at the center (node 0).

    The center row spreads random positive weight over the leaves.  With
    ``center_fully_stubborn`` False the center gets a susceptibility drawn
    from ``a_range`` and its out-weights go only to fully stubborn leaves
    (at least one leaf is forced fully stubborn in that case).
    """
    C = np.zeros((n, n))
    C[1:, 0] = 1.0
    a = np.empty(n)
    leaves = np.arange(1, n)
    for i in leaves:
        if rng.uniform() < leaf_fully_stubborn_prob:
            a[i] = 0.0
        else:
            a[i] = rng.uniform(*a_range)
    if center_fully_stubborn:
        a[0] = 0.0
        if np.all(a[1:] == 0.0):
            a[int(rng.integers(1, n))] = rng.uniform(*a_range)
        w = rng.uniform(0.1, 1.0, size=n - 1)
        C[0, 1:] = w / w.sum()
    else:
        a[0] = rng.uniform(*a_range)
        stubborn_leaves = [i for i in leaves if a[i] == 0.0]
        if not stubborn_leaves:
            k = int(rng.integers(1, n))
            a[k] = 0.0
            stubborn_leaves = [k]
        w = rng.uniform(0.1, 1.0, size=len(stubborn_leaves))
        C[0, stubborn_leaves] = w / w.sum()
    return InfluenceNetwork(C=C, a=a)


def random_doubly_stochastic_ring(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zero-diagonal doubly stochastic matrix: mixture of cyclic shifts."""
    w = rng.uniform(0.1, 1.0, size=n - 1)
    w = w / w.sum()
    C = np.zeros((n, n))
    for k in range(1, n):
        C += w[k - 1] * np.roll(np.eye(n), k, axis=1)
    return C


def table_network(seed: int, n: int, kind: str) -> InfluenceNetwork:
    """A seeded random network of one kind: dense, sparse, homogeneous (one
    shared susceptibility) or negzero (sparse, every zero entry -0.0)."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, density=0.3 if kind in ("sparse", "negzero") else 1.0)
    if kind == "homogeneous":
        net = InfluenceNetwork(C=net.C, a=np.full(n, rng.uniform(0.05, 0.95)))
    if kind == "negzero":  # every zero entry, the diagonal too, is -0.0
        net = InfluenceNetwork(C=np.where(net.C == 0.0, -0.0, net.C), a=net.a)
    return net


@pytest.fixture
def triad_net() -> InfluenceNetwork:
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return InfluenceNetwork(C=C, a=np.array([0.7, 0.9, 0.9]))


@pytest.fixture
def triad_gamma() -> np.ndarray:
    return np.array([0.2, 0.5, 0.0])


@pytest.fixture
def pair_net() -> InfluenceNetwork:
    """Two nodes that listen only to each other, both half susceptible."""
    return InfluenceNetwork(C=np.array([[0.0, 1.0], [1.0, 0.0]]), a=np.array([0.5, 0.5]))


@pytest.fixture
def anchored_net() -> InfluenceNetwork:
    C = np.array([[0.0, 0.6, 0.4], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    return InfluenceNetwork(C=C, a=np.array([0.0, 0.4, 0.6]))


@pytest.fixture
def star3_net() -> InfluenceNetwork:
    C = np.array([[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return InfluenceNetwork(C=C, a=np.array([0.0, 0.4, 0.8]))


def _four_node_nets():
    C1 = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    C2 = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    a1 = np.array([0.2, 0.0, 0.7, 0.8])
    a2 = np.array([0.6, 0.0, 0.7, 0.8])
    x1 = np.array([0.9, 0.6, 0.9, 0.9])
    x2 = np.array([0.7, 0.6, 0.9, 0.9])
    return [
        ("a", InfluenceNetwork(C=C1, a=a1), x1),
        ("b", InfluenceNetwork(C=C1, a=a2), x2),
        ("c", InfluenceNetwork(C=C1, a=a2), x1),
        ("d", InfluenceNetwork(C=C2, a=a2), x2),
    ]


@pytest.fixture
def four_settings():
    return _four_node_nets()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = rep.nodeid.rsplit("::", 1)[-1]
            if not name.startswith("test_criterion_"):
                continue
            parts = name.split("_", 3)
            num = int(parts[2])
            desc = parts[3].replace("_", " ") if len(parts) > 3 else ""
            rows[num] = (outcome == "passed", desc)
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(rows):
        ok, desc = rows[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict} — {desc}")
