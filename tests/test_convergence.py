"""The headline claim: under the sufficient conditions every perceived power
reaches the actual social power, and without them it need not."""
import numpy as np
import pytest

from fjpower import (
    CONVERGED,
    DIVERGED,
    check_condition,
    compute_social_power,
    run_to_convergence,
    solve_equilibrium,
    step_perception_no_ra,
    step_perception_ra,
    two_sided_box,
)

from conftest import random_network

CONVERGENCE_GAP = 1e-9


def _capped_nets(seed: int, count: int) -> list:
    """Random networks where both incoming caps hold, sampled as criterion 6."""
    rng = np.random.default_rng(seed)
    nets = []
    while len(nets) < count:
        n = int(rng.integers(3, 9))
        net = random_network(rng, n, fully_stubborn_prob=0.3, a_range=(0.2, 0.7))
        if (check_condition(net, "incoming_influence_cap").holds
                and check_condition(net, "incoming_volatility_cap").holds):
            nets.append(net)
    return nets


def _assert_all_reach(stepper, starts, target, where: str) -> None:
    for p0 in starts:
        traj = run_to_convergence(stepper, p0)
        gap = float(np.max(np.abs(traj.final - target)))
        assert traj.converged and gap <= CONVERGENCE_GAP, (
            f"{where}: run {traj.status}, {gap:.3e} from the target")


@pytest.mark.parametrize("seed", [600, 601, 602])
def test_capped_networks_reach_the_actual_social_power(seed):
    rng = np.random.default_rng(seed + 1000)
    for k, net in enumerate(_capped_nets(seed, 15)):
        _assert_all_reach(lambda p: step_perception_ra(net, p),
                          two_sided_box(net).sample(rng, 10),
                          solve_equilibrium(net).p_star, f"seed {seed} net {k} RA")
        gamma = rng.uniform(0.0, 1.0, size=net.n)
        _assert_all_reach(lambda p: step_perception_no_ra(net, gamma, p),
                          rng.uniform(-5.0, 5.0, size=(5, net.n)),
                          compute_social_power(net, gamma), f"seed {seed} net {k} no-RA")


def test_without_the_influence_cap_the_ra_map_can_diverge():
    # criterion 5's network 97: the cap fails, yet power evolution, which
    # maps the simplex into itself, agrees from every start
    rng = np.random.default_rng(5)
    for _ in range(98):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
    assert net.n == 3
    cap = check_condition(net, "incoming_influence_cap")
    worst = min(cap.detail, key=lambda row: row.margin)
    assert not cap.holds and worst.node == 2
    assert cap.margin == pytest.approx(-8.65, abs=5e-3)
    report = solve_equilibrium(net, multistarts=20, seed=97)
    assert report.starts_agreeing == report.total_starts == 21
    # the same 21 simplex starts solve_equilibrium draws
    start_rng = np.random.default_rng(97)
    starts = [np.full(3, 1 / 3)] + [start_rng.dirichlet(np.ones(3)) for _ in range(20)]
    trajs = [run_to_convergence(lambda p: step_perception_ra(net, p), p0) for p0 in starts]
    assert {t.status for t in trajs} == {CONVERGED, DIVERGED}
    for t in trajs:
        if t.converged:
            assert np.max(np.abs(t.final - report.p_star)) <= CONVERGENCE_GAP
