"""Opinion updates, social power, and resolvent identities."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjpower import (
    CycleBudgetExceededError,
    InfluenceNetwork,
    SingularSystemError,
    check_dominance_necessary,
    compute_social_power,
    contraction_diagnostic,
    enumerate_stubborn_cycles,
    final_opinions,
    influence_matrix,
    influence_resolvent,
    random_doubly_stochastic_ring,
    random_network,
    random_star_network,
    resolvent_diag_from_cycles,
    run_stack_to_convergence,
    run_to_convergence,
    step_fj_opinions,
    step_power_evolution,
    step_power_evolution_single,
)
from fjpower import network
from fjpower.fj_core import _system

from conftest import carrier, table_network

# power of the triad network at self-weights (0.2, 0.5, 0.0): exact fractions
TRIAD_POWER = np.array([23 / 34, 74 / 255, 1 / 30])

# shared equilibrium of the anchored net's appraisal/power maps (frozen from
# long runs at tol 1e-12; all three maps converge to it)
ANCHORED_POWER_EQ = np.array(
    [0.4621311984640611, 0.31763569228319977, 0.22023310925191877]
)


def test_influence_matrix_blends_self_weight_with_interaction_row(triad_net, triad_gamma):
    W = influence_matrix(triad_net.C, triad_gamma)
    assert np.array_equal(W, np.array([[0.2, 0.8, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3))
def test_influence_matrix_rows_sum_to_one_for_any_real_weights(weights):
    C = np.array([[0.0, 0.6, 0.4], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    W = influence_matrix(C, np.array(weights))
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-9)


def test_fully_stubborn_group_keeps_initial_opinions():
    # degenerate carrier: every node anchored, so one step lands back on y0
    net = carrier([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
    y0 = np.array([1.0, 3.0])
    assert np.array_equal(step_fj_opinions(net, np.array([0.4, 0.6]), [5.0, -2.0], y0), y0)


def test_direct_solve_is_a_fixed_point_of_the_update(triad_net, triad_gamma):
    y0 = np.array([0.3, -1.2, 0.8])
    y_star = final_opinions(triad_net, triad_gamma, y0)
    nxt = step_fj_opinions(triad_net, triad_gamma, y_star, y0)
    assert np.max(np.abs(nxt - y_star)) < 1e-12


def test_iterated_opinions_reach_the_direct_solve(triad_net, triad_gamma):
    y0 = np.array([1.0, 0.0, -1.0])
    W = influence_matrix(triad_net.C, triad_gamma)
    traj = run_to_convergence(
        lambda y: triad_net.a * (W @ y) + (1.0 - triad_net.a) * y0, y0
    )
    assert traj.converged
    assert np.max(np.abs(traj.final - final_opinions(triad_net, triad_gamma, y0))) < 1e-8


def test_two_node_symmetric_discussion():
    net = InfluenceNetwork(C=np.array([[0.0, 1.0], [1.0, 0.0]]), a=np.array([0.5, 0.5]))
    gamma = np.zeros(2)
    y_star = final_opinions(net, gamma, np.array([1.0, 0.0]))
    assert np.max(np.abs(y_star - [2 / 3, 1 / 3])) < 1e-12
    assert np.max(np.abs(compute_social_power(net, gamma) - 0.5)) < 1e-12


def test_triad_power_matches_exact_fractions(triad_net, triad_gamma):
    x = compute_social_power(triad_net, triad_gamma)
    assert np.max(np.abs(x - TRIAD_POWER)) < 1e-13


def test_power_is_a_distribution_on_random_networks():
    rng = np.random.default_rng(100)
    for _ in range(25):
        net = random_network(rng, int(rng.integers(2, 8)))
        gamma = rng.uniform(0.0, 1.0, size=net.n)
        x = compute_social_power(net, gamma)
        assert np.all(x >= -1e-14)
        assert abs(x.sum() - 1.0) < 1e-10


def test_singular_carrier_raises():
    net = carrier([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(SingularSystemError):
        final_opinions(net, np.ones(2), np.zeros(2))


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_resolvent_basic_properties(anchored_net):
    Phi = influence_resolvent(anchored_net, np.full(3, 1 / 3))
    assert np.all(Phi >= -1e-14)
    assert np.all(np.diag(Phi) > 0)
    # fully stubborn node: unit row
    assert np.max(np.abs(Phi[0] - [1.0, 0.0, 0.0])) < 1e-14
    # right-multiplying by the anchoring weights recovers row-stochasticity
    rows = (Phi @ np.diag(1.0 - anchored_net.a)).sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-12
    # columnwise strict diagonal dominance
    for i in range(3):
        for j in range(3):
            if i != j:
                assert Phi[i, i] > Phi[j, i]


def test_cycle_reconstruction_collapses_without_cycles(star3_net):
    x = np.array([0.2, 0.5, 0.3])
    # leaf 1 of a fully-stubborn-center star sits on no usable loop
    got = resolvent_diag_from_cycles(star3_net, 1, x)
    assert got == pytest.approx(1.0 / (1.0 - star3_net.a[1] * x[1]), rel=1e-14)


def test_cycle_reconstruction_is_one_for_fully_stubborn_anchor(anchored_net):
    assert resolvent_diag_from_cycles(anchored_net, 0, np.full(3, 1 / 3)) == 1.0


@pytest.mark.parametrize("x", [np.full(3, 1 / 3), np.array([0.6, 0.3, 0.1])])
def test_cycle_reconstruction_exact_on_anchored_net(anchored_net, x):
    Phi = influence_resolvent(anchored_net, x)
    for i in range(3):
        got = resolvent_diag_from_cycles(anchored_net, i, x)
        assert got == pytest.approx(Phi[i, i], rel=1e-12)


def test_cycle_reconstruction_exact_on_two_node_loops():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(0.05, 0.9, size=2)
        net = InfluenceNetwork(C=np.array([[0.0, 1.0], [1.0, 0.0]]), a=a)
        x = rng.dirichlet(np.ones(2))
        Phi = influence_resolvent(net, x)
        for i in range(2):
            got = resolvent_diag_from_cycles(net, i, x)
            assert got == pytest.approx(Phi[i, i], rel=1e-12)


def test_cycle_reconstruction_exact_on_stars():
    rng = np.random.default_rng(8)
    for _ in range(10):
        net = random_star_network(rng, int(rng.integers(3, 8)), center_fully_stubborn=False)
        x = rng.dirichlet(np.ones(net.n))
        Phi = influence_resolvent(net, x)
        for i in range(net.n):
            got = resolvent_diag_from_cycles(net, i, x)
            assert got == pytest.approx(Phi[i, i], rel=1e-12)


def test_cycle_reconstruction_undercounts_on_looped_interiors():
    """Weighting each simple cycle by the interior product
    ``prod a_l (1 - x_l) / (1 - a_l x_l)`` is exact only when the rest of the
    network is acyclic: when the anchor's partially stubborn interior itself
    contains loops, return flows that revisit those loops are dropped and the
    entry comes out low.  The determinant-ratio weighting is exact.  Frozen
    dense 4-node instance where every anchor exhibits the gap."""
    rng = np.random.default_rng(5)
    net = random_network(rng, 4, fully_stubborn_prob=0.0)
    a = net.a
    x = np.full(4, 0.25)
    Phi = influence_resolvent(net, x)
    for i in range(4):
        phi = sum(
            cyc.value
            * np.prod([a[l] * (1 - x[l]) / (1 - a[l] * x[l]) for l in cyc.nodes[1:-1]])
            for cyc in enumerate_stubborn_cycles(net, i)
        )
        interior_product = 1.0 / (1.0 - a[i] * x[i] - a[i] * (1.0 - x[i]) * phi)
        rel = abs(interior_product - Phi[i, i]) / Phi[i, i]
        assert interior_product < Phi[i, i]
        assert 1e-5 < rel < 1e-1
        got = resolvent_diag_from_cycles(net, i, x)
        assert got == pytest.approx(Phi[i, i], rel=1e-12)


def test_cycle_reconstruction_forwards_the_budget(monkeypatch):
    rng = np.random.default_rng(5)
    net = random_network(rng, 4, fully_stubborn_prob=0.0)
    monkeypatch.setattr(network, "CYCLE_BUDGET", 14)
    with pytest.raises(CycleBudgetExceededError):
        resolvent_diag_from_cycles(net, 0, np.full(4, 0.25))
    monkeypatch.setattr(network, "CYCLE_BUDGET", 15)
    resolvent_diag_from_cycles(net, 0, np.full(4, 0.25))


# ---------------------------------------------------------------------------
# power evolution
# ---------------------------------------------------------------------------

def test_power_update_fixes_the_shared_equilibrium(anchored_net):
    nxt = step_power_evolution(anchored_net, ANCHORED_POWER_EQ)
    assert np.max(np.abs(nxt - ANCHORED_POWER_EQ)) < 1e-10


def test_power_update_maps_simplex_to_simplex(anchored_net):
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.dirichlet(np.ones(3))
        nxt = step_power_evolution(anchored_net, x)
        assert np.all(nxt >= -1e-14)
        assert abs(nxt.sum() - 1.0) < 1e-12


def test_uniform_power_is_fixed_under_doubly_stochastic_homogeneous():
    rng = np.random.default_rng(13)
    C = random_doubly_stochastic_ring(rng, 5)
    net = InfluenceNetwork(C=C, a=np.full(5, 0.4))
    uniform = np.full(5, 0.2)
    assert np.max(np.abs(step_power_evolution(net, uniform) - uniform)) < 1e-14


def test_stacked_power_matches_each_row_bit_for_bit():
    rng = np.random.default_rng(15)
    for k in range(40):
        net = random_network(rng, int(rng.integers(2, 12)))
        # k == n every fourth time: a (k, n) right-hand side would read as a matrix
        G = rng.uniform(-0.5, 1.5, size=(net.n if k % 4 == 0 else int(rng.integers(1, 9)), net.n))
        # a sparser copy whose zeros, the diagonal's included, are all -0.0
        S = np.where(net.C < 0.1, -0.0, net.C)
        net_z = InfluenceNetwork(C=S / S.sum(axis=1)[:, None], a=net.a)
        assert np.signbit(np.diag(net_z.C)).all()
        for net in (net, net_z):
            X = compute_social_power(net, G)
            W = influence_matrix(net.C, G)
            # the same network with C stored column-major must give the same bits
            net_f = InfluenceNetwork(C=np.asfortranarray(net.C), a=net.a)
            assert net_f.C.flags.f_contiguous and not net_f.C.flags.c_contiguous
            assert compute_social_power(net_f, G).tobytes() == X.tobytes()
            assert influence_matrix(net_f.C, G).tobytes() == W.tobytes()
            for g, x, w in zip(G, X, W):
                assert x.tobytes() == compute_social_power(net, g).tobytes()
                assert x.tobytes() == compute_social_power(net_f, g).tobytes()
                assert w.tobytes() == influence_matrix(net.C, g).tobytes()
                assert w.tobytes() == influence_matrix(net_f.C, g).tobytes()
                # the plain formula, which holds for any memory layout
                assert w.tobytes() == (np.diag(g) + (1.0 - g)[:, None] * net.C).tobytes()
            # the formula's sign of zero, also where a -0.0 weight meets a -0.0 diagonal
            g = np.where(np.arange(net.n) == 0, -0.0, G[0])
            assert influence_matrix(net.C, g).tobytes() == (
                np.diag(g) + (1.0 - g)[:, None] * net.C).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.sampled_from([1, 3]),
       st.sampled_from(["dense", "sparse", "homogeneous", "negzero"]),
       st.sampled_from(["simplex", "negative", "above_one", "negzero"]))
def test_systems_are_built_with_the_bits_of_i_minus_a_w(seed, n, k, c_kind, w_kind):
    """``_system`` writes I - A W(x) in one array without building W; its bytes
    and signs of zero are those of the formula through W, for weights in
    the simplex, negative, above 1 or holding -0.0, and for C with -0.0."""
    net = table_network(seed, n, c_kind)
    rng = np.random.default_rng(seed + 1)
    X = {
        "simplex": lambda: rng.dirichlet(np.ones(n), size=k),
        "negative": lambda: -rng.uniform(0.0, 2.0, size=(k, n)),
        "above_one": lambda: rng.uniform(1.0, 3.0, size=(k, n)),
        "negzero": lambda: np.where(rng.random((k, n)) < 0.5, -0.0, rng.uniform(-1.0, 2.0, (k, n))),
    }[w_kind]()
    for x in (X, X[0]):  # the stack and its first row alone
        want = np.eye(n) - net.a[:, None] * influence_matrix(net.C, x)
        got = _system(net, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_stacked_power_runs_match_single_starts_when_k_equals_n(anchored_net):
    starts = np.random.default_rng(14).dirichlet(np.ones(3), size=3)

    def step(x):
        return step_power_evolution(anchored_net, x)

    for x0, traj in zip(starts, run_stack_to_convergence(step, starts)):
        single = run_to_convergence(step, x0)
        assert traj.converged and traj.iterations == single.iterations
        assert traj.path.tobytes() == single.path.tobytes()


def test_a_singular_row_makes_the_stacked_solve_raise():
    net = InfluenceNetwork(C=np.array([[0.0, 1.0], [1.0, 0.0]]), a=np.array([0.5, 0.5]))
    # self-weights (2, 1) give I - W^T A = [[0, 0], [0.5, 0.5]]
    stack = np.array([[0.5, 0.5], [2.0, 1.0]])
    with pytest.raises(SingularSystemError):
        compute_social_power(net, stack[1])
    with pytest.raises(SingularSystemError):
        run_stack_to_convergence(lambda X: step_power_evolution(net, X), stack)


def test_single_step_variant_first_step_matches_hand_formula(anchored_net):
    x0 = np.array([0.3, 0.5, 0.2])
    V1, x1 = step_power_evolution_single(anchored_net, np.eye(3), x0)
    W = influence_matrix(anchored_net.C, x0)
    V_want = anchored_net.a[:, None] * W + np.diag(1.0 - anchored_net.a)
    assert np.max(np.abs(V1 - V_want)) < 1e-15
    assert np.max(np.abs(x1 - V_want.T @ np.full(3, 1 / 3))) < 1e-15


def test_single_step_variant_converges_to_the_same_equilibrium(anchored_net):
    V = np.eye(3)
    x = np.array([0.1, 0.2, 0.7])
    for _ in range(200):
        assert abs(x.sum() - 1.0) < 1e-12  # contribution rows stay stochastic
        V, x = step_power_evolution_single(anchored_net, V, x)
    assert np.max(np.abs(x - ANCHORED_POWER_EQ)) < 1e-8


def test_a_one_entry_vector_is_rejected_not_broadcast():
    """Every per-node vector must hold n entries; numpy would stretch a
    1-entry one over all nodes and return numbers."""
    net = random_network(np.random.default_rng(0), 4)
    one, ok = np.array([0.3]), np.full(4, 0.25)
    weights = re.escape("weights must have 4 entries on their last axis, got shape (1,)")
    calls = {
        weights: [
            lambda: compute_social_power(net, one),
            lambda: step_power_evolution(net, one),
            lambda: step_power_evolution_single(net, np.eye(4), one),
            lambda: influence_resolvent(net, one),
            lambda: resolvent_diag_from_cycles(net, 0, one),
            lambda: final_opinions(net, one, ok),
        ],
        re.escape("got shape (2, 1)"): [
            lambda: influence_matrix(net.C, np.full((2, 1), 0.3)),
        ],
        re.escape("y0 must have shape (4,), got (1,)"): [
            lambda: final_opinions(net, ok, one),
            lambda: step_fj_opinions(net, ok, ok, one),
        ],
        re.escape("p must have shape (4,), got (1,)"): [
            lambda: contraction_diagnostic(net, one),
        ],
        re.escape("p_star must have shape (4,), got (1,)"): [
            lambda: check_dominance_necessary(net, one, 0, 0.5),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=message):
                call()
    # (k, n) stacks of weights stay legal
    assert compute_social_power(net, np.full((2, 4), 0.25)).shape == (2, 4)
