"""Shared fixtures: the small networks most tests exercise.

The three-node nets are the package's workhorses: ``triad_net`` is a star
whose partially stubborn center relays between two followers, ``anchored_net``
pins one fully stubborn node above a two-node loop, and ``star3_net`` is the
fully-stubborn-center star with closed-form equilibrium.  ``four_settings``
is the divergence demo: same wheel-like topology under two susceptibility
profiles and two starts.
"""
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


@pytest.fixture
def triad_net() -> InfluenceNetwork:
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return InfluenceNetwork(C=C, a=np.array([0.7, 0.9, 0.9]))


@pytest.fixture
def triad_gamma() -> np.ndarray:
    return np.array([0.2, 0.5, 0.0])


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
