"""Perception steppers, trajectories, and the per-node locality layer."""
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjpower import (
    CONVERGED,
    DIVERGED,
    MAX_ITER,
    NONFINITE,
    InfluenceNetwork,
    Trajectory,
    ViewViolationError,
    WrongTopologyError,
    build_local_views,
    compute_social_power,
    influence_matrix,
    run_stack_to_convergence,
    run_to_convergence,
    step_pagerank_ra,
    step_perception_no_ra,
    step_perception_ra,
)
from fjpower import analysis, perception
from fjpower.perception import RULES, _step, local_step

from conftest import random_doubly_stochastic_ring, random_network, table_network, traced
from test_fj_core import ANCHORED_POWER_EQ

# frozen limits (tol 1e-12 runs)
STAR3_EQ = np.array([0.7101153520565013, 0.21922359359558496, 0.07066105434791373])
DEGROOT_LIMIT = np.array([0.2173913043478694, 0.3478260869566025, 0.43478260869552743])


# matrix-sandwich references: the steppers' maps, with a different
# floating-point association

def compact_step_no_ra(
    net: InfluenceNetwork, gamma: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Matrix form (I-A) W(γ)ᵀ A (I-A)⁻¹ p + (I-A) 1/n of the fixed-weight round."""
    a = net.a
    W = influence_matrix(net.C, np.asarray(gamma, dtype=float))
    p = np.asarray(p, dtype=float)
    return (1.0 - a) * (W.T @ (a / (1.0 - a) * p)) + (1.0 - a) / net.n


def compact_step_ra(net: InfluenceNetwork, p: np.ndarray) -> np.ndarray:
    """Matrix form (I-A) W(p)ᵀ A (I-A)⁻¹ p + (I-A) 1/n of the reflected round."""
    a = net.a
    p = np.asarray(p, dtype=float)
    W = influence_matrix(net.C, p)
    return (1.0 - a) * (W.T @ (a / (1.0 - a) * p)) + (1.0 - a) / net.n


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def test_componentwise_and_matrix_forms_agree(anchored_net, triad_net, triad_gamma):
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, size=3)
        a = step_perception_no_ra(triad_net, triad_gamma, p)
        b = compact_step_no_ra(triad_net, triad_gamma, p)
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(a)))
        c = step_perception_ra(anchored_net, p)
        d = compact_step_ra(anchored_net, p)
        assert np.max(np.abs(c - d)) <= 1e-14 * max(1.0, np.max(np.abs(c)))


def test_power_vector_is_fixed_under_fixed_weight_perception(triad_net, triad_gamma):
    x = compute_social_power(triad_net, triad_gamma)
    assert np.max(np.abs(step_perception_no_ra(triad_net, triad_gamma, x) - x)) < 1e-12


@pytest.mark.parametrize(
    "p0", [(0.2, 0.3, 0.5), (0.9, 0.8, 0.7), (2.0, -3.0, 5.0)], ids=["mid", "high", "wild"]
)
def test_fixed_weight_perception_finds_the_power_vector(triad_net, triad_gamma, p0):
    x = compute_social_power(triad_net, triad_gamma)
    traj = run_to_convergence(
        lambda p: step_perception_no_ra(triad_net, triad_gamma, p), np.array(p0)
    )
    assert traj.converged and traj.iterations <= 5000
    assert np.max(np.abs(traj.final - x)) <= 1e-8


def test_two_node_estimates_split_evenly(pair_net):
    traj = run_to_convergence(
        lambda p: step_perception_no_ra(pair_net, np.zeros(2), p), np.array([0.9, 0.1])
    )
    assert traj.converged
    assert np.max(np.abs(traj.final - 0.5)) < 1e-10


def test_reflected_appraisals_find_the_power_equilibrium(anchored_net):
    traj = run_to_convergence(
        lambda p: step_perception_ra(anchored_net, p), np.array([-0.5, -0.3, 0.5])
    )
    assert traj.converged and traj.iterations <= 100
    assert np.max(np.abs(traj.final - ANCHORED_POWER_EQ)) <= 1e-8


def test_star_reflected_appraisals_reach_frozen_limit(star3_net):
    traj = run_to_convergence(
        lambda p: step_perception_ra(star3_net, p), np.full(3, 1 / 3)
    )
    assert traj.converged
    assert np.max(np.abs(traj.final - STAR3_EQ)) <= 1e-10


@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
)
def test_fixed_weight_update_is_affine(p, q):
    net = InfluenceNetwork(
        C=np.array([[0.0, 0.6, 0.4], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]),
        a=np.array([0.3, 0.4, 0.6]),
    )
    gamma = np.array([0.1, 0.5, 0.9])
    p, q = np.array(p), np.array(q)
    mid = step_perception_no_ra(net, gamma, (p + q) / 2)
    avg = (step_perception_no_ra(net, gamma, p) + step_perception_no_ra(net, gamma, q)) / 2
    assert np.max(np.abs(mid - avg)) < 1e-9


# ---------------------------------------------------------------------------
# homogeneous / pagerank variant
# ---------------------------------------------------------------------------

def test_pagerank_round_equals_reflected_round_when_susceptibility_is_shared():
    rng = np.random.default_rng(1)
    C = random_doubly_stochastic_ring(rng, 4)
    net = InfluenceNetwork(C=C, a=np.full(4, 0.3))
    for _ in range(10):
        p = rng.uniform(-1.0, 2.0, size=4)
        assert np.max(np.abs(step_pagerank_ra(net, p) - step_perception_ra(net, p))) < 1e-14


def test_pagerank_requires_one_shared_susceptibility(anchored_net):
    with pytest.raises(WrongTopologyError, match="found values from"):
        step_pagerank_ra(anchored_net, np.full(3, 1 / 3))


def test_doubly_stochastic_ring_estimates_become_uniform():
    C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    net = InfluenceNetwork(C=C, a=np.full(3, 0.3))
    traj = run_to_convergence(lambda p: step_pagerank_ra(net, p), np.array([0.5, 0.3, 0.2]))
    assert traj.converged
    assert np.max(np.abs(traj.final - 1 / 3)) < 1e-10


def test_pagerank_round_keeps_the_simplex():
    rng = np.random.default_rng(2)
    C = random_doubly_stochastic_ring(rng, 5)
    net = InfluenceNetwork(C=C, a=np.full(5, 0.45))
    p = rng.dirichlet(np.ones(5))
    for _ in range(50):
        p = step_pagerank_ra(net, p)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-12


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3))
def test_estimate_total_follows_scalar_recursion(p):
    """One homogeneous round sends the total s to a*s + (1 - a)."""
    C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    net = InfluenceNetwork(C=C, a=np.full(3, 0.3))
    p = np.array(p)
    nxt = step_pagerank_ra(net, p)
    assert abs(nxt.sum() - (0.3 * p.sum() + 0.7)) < 1e-13


# ---------------------------------------------------------------------------
# averaging diagnostic
# ---------------------------------------------------------------------------

def test_averaging_diagnostic_settles_on_dominant_left_eigenvector(anchored_net):
    W = influence_matrix(anchored_net.C, np.full(3, 0.3))
    traj = run_to_convergence(lambda p: W.T @ p, np.array([0.2, 0.3, 0.5]))
    assert traj.converged
    assert np.max(np.abs(traj.final - DEGROOT_LIMIT)) <= 1e-8
    assert np.max(np.abs(W.T @ traj.final - traj.final)) < 1e-10


def test_averaging_diagnostic_scales_with_the_start(anchored_net):
    W = influence_matrix(anchored_net.C, np.full(3, 0.3))
    traj = run_to_convergence(lambda p: W.T @ p, np.array([0.4, 0.6, 1.0]))
    assert np.max(np.abs(traj.final - 2 * DEGROOT_LIMIT)) <= 1e-8


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_start_at_fixed_point_converges_in_one_step(triad_net, triad_gamma):
    x = compute_social_power(triad_net, triad_gamma)
    traj = run_to_convergence(lambda p: step_perception_no_ra(triad_net, triad_gamma, p), x)
    assert traj.status == CONVERGED
    assert traj.iterations == 1


def test_divergence_keeps_the_offending_state():
    traj = run_to_convergence(lambda p: 3.0 * p, np.array([1.0, -1.0]))
    assert traj.status == DIVERGED
    assert np.max(np.abs(traj.final)) > 1e9
    assert np.all(np.isfinite(traj.path))


def test_start_beyond_the_bound_diverges_immediately():
    traj = run_to_convergence(lambda p: p, np.array([2e9]))
    assert traj.status == DIVERGED and traj.iterations == 0


def test_nan_start_stops_at_step_zero():
    calls = []
    traj = run_to_convergence(lambda p: calls.append(p) or p, np.array([0.5, np.nan]))
    assert traj.status == NONFINITE and traj.iterations == 0
    assert calls == []


def test_stepper_emitting_nan_stops_at_that_step():
    def step(p):
        return p + 1.0 if p[0] < 2.0 else np.array([np.nan, p[1]])

    traj = run_to_convergence(step, np.zeros(2))
    assert traj.status == NONFINITE and traj.iterations == 3
    assert np.isnan(traj.final[0]) and np.all(np.isfinite(traj.path[:3]))


def test_infinite_states_are_nonfinite_and_large_finite_ones_diverge():
    inf_traj = run_to_convergence(lambda p: p * np.inf, np.array([0.5, 0.1]))
    assert inf_traj.status == NONFINITE and inf_traj.iterations == 1
    big = run_to_convergence(lambda p: p * 1e10, np.array([0.5, 0.1]))
    assert big.status == DIVERGED and big.iterations == 1


def test_iteration_budget_exhaustion():
    traj = run_to_convergence(lambda p: p + 1.0, np.zeros(2), max_iter=5)
    assert traj.status == MAX_ITER
    assert traj.iterations == 5


def test_run_parameters_are_validated():
    with pytest.raises(ValueError, match="tol"):
        run_to_convergence(lambda p: p, np.zeros(2), tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        run_to_convergence(lambda p: p, np.zeros(2), max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        run_to_convergence(lambda p: p, np.zeros(2), tol=float("nan"))


def test_steppers_reject_a_wrong_length_self_weight_or_state(anchored_net):
    # a 1-entry vector would broadcast over every node
    p = np.full(3, 1 / 3)
    with pytest.raises(ValueError, match=re.escape("gamma must have shape (3,), got (1,)")):
        step_perception_no_ra(anchored_net, [0.3], p)
    for step in (lambda q: step_perception_no_ra(anchored_net, np.full(3, 0.3), q),
                 lambda q: step_perception_ra(anchored_net, q)):
        with pytest.raises(ValueError, match=re.escape("p must have shape (3,), got (2,)")):
            step(np.full(2, 0.5))
    # the stop-rule loop fails at the first step, not after broadcast steps
    with pytest.raises(ValueError, match=re.escape("p must have shape (3,), got (1,)")):
        run_to_convergence(lambda q: step_perception_ra(anchored_net, q), [0.3])


def test_trajectory_shape_and_views():
    with pytest.raises(ValueError, match="2-D"):
        Trajectory(path=np.zeros(3), status=CONVERGED)
    traj = Trajectory(path=np.array([[0.0, 0.0], [1.0, 2.0], [1.5, 2.5]]), status=MAX_ITER)
    assert traj.n == 2 and traj.iterations == 2
    assert np.array_equal(traj.path[0], [0.0, 0.0])
    assert np.array_equal(traj.final, [1.5, 2.5])
    assert np.array_equal(np.abs(np.diff(traj.path, axis=0)).max(axis=1), [2.0, 0.5])
    with pytest.raises(ValueError):
        traj.path[0, 0] = 9.0


def test_a_run_copies_its_states_into_the_path_once():
    # the state list plus one path array: a second copy would put the peak near 3x
    traj, _, peak = traced(
        lambda: run_to_convergence(lambda p: p + 1.0, np.zeros(1000), max_iter=2000))
    assert traj.status == MAX_ITER and traj.iterations == 2000
    assert peak / traj.path.nbytes < 2.5


def _square(P):
    return P * P


def _assert_same_run(stacked, single):
    assert stacked.status == single.status
    assert stacked.iterations == single.iterations
    assert stacked.path.tobytes() == single.path.tobytes()


def test_each_stacked_row_is_its_single_start_run():
    # p -> p² coordinatewise: rows inside the unit box converge to 0 at
    # different steps, a row outside passes the bound, a NaN row stops at once
    P0 = np.array([[0.5, 0.1], [0.9, 0.2], [1.0, 1.0], [1.5, 0.3],
                   [np.nan, 0.2], [2e9, 0.0], [0.0, 0.0]])
    trajs = run_stack_to_convergence(_square, P0)
    assert [t.status for t in trajs] == [
        CONVERGED, CONVERGED, CONVERGED, DIVERGED, NONFINITE, DIVERGED, CONVERGED]
    assert [t.iterations for t in trajs] == [7, 10, 1, 6, 0, 0, 1]
    for p0, traj in zip(P0, trajs):
        _assert_same_run(traj, run_to_convergence(_square, p0))


def test_a_stacked_max_iter_cut_matches_single_runs():
    # the second input stops rows at the start, mid-run and on the last
    # allowed step: [0.9, 0.2] converges exactly at step 10
    for P0, max_iter, statuses, iterations in [
        ([[0.5, 0.1], [0.9, 0.2], [0.999, 0.0]], 8, [CONVERGED, MAX_ITER, MAX_ITER], [7, 8, 8]),
        ([[0.5, 0.1], [0.9, 0.2], [0.999, 0.0], [np.inf, 0.0]], 10,
         [CONVERGED, CONVERGED, MAX_ITER, NONFINITE], [7, 10, 10, 0]),
    ]:
        P0 = np.array(P0)
        trajs = run_stack_to_convergence(_square, P0, max_iter=max_iter)
        assert [t.status for t in trajs] == statuses
        assert [t.iterations for t in trajs] == iterations
        for p0, traj in zip(P0, trajs):
            _assert_same_run(traj, run_to_convergence(_square, p0, max_iter=max_iter))


def test_the_stepper_sees_only_the_running_rows():
    seen = []
    trajs = run_stack_to_convergence(
        lambda P: seen.append(len(P)) or _square(P), np.array([[0.0], [0.5], [np.nan]]))
    assert [t.status for t in trajs] == [CONVERGED, CONVERGED, NONFINITE]
    assert seen == [2] + [1] * 6


def test_stacked_runs_take_a_stack_of_starts():
    with pytest.raises(ValueError, match="2-D"):
        run_stack_to_convergence(_square, np.zeros(3))


# ---------------------------------------------------------------------------
# per-node locality
# ---------------------------------------------------------------------------

def test_views_carry_exactly_the_local_data(anchored_net, triad_gamma):
    views = build_local_views(anchored_net, "ra")
    v1 = views[1]
    assert v1.node == 1 and v1.n == 3 and v1.a == 0.4
    assert v1.gamma is None
    # one (j, a_j, C[j, 1], gamma_j) tuple per in-neighbor j, ascending
    assert v1.in_edges == ((0, 0.0, 0.6, None), (2, 0.6, 0.5, None))
    assert v1.sender_set == {0, 2}
    with_gamma = build_local_views(anchored_net, "no_ra", triad_gamma)
    assert with_gamma[1].gamma == 0.5
    assert with_gamma[1].in_edges == ((0, 0.0, 0.6, 0.2), (2, 0.6, 0.5, 0.0))


def test_local_updates_take_only_view_own_value_and_inbox():
    assert list(inspect.signature(local_step).parameters) == ["view", "own_p", "inbox"]


def test_fixed_weight_local_update_needs_a_self_weight(anchored_net):
    with pytest.raises(ValueError, match="no_ra mode needs a self-weight vector gamma"):
        build_local_views(anchored_net, "no_ra")


def test_inbox_mismatch_is_rejected_with_one_based_ids(anchored_net):
    view = build_local_views(anchored_net, "ra")[1]
    with pytest.raises(ViewViolationError, match=r"missing senders \[3\]"):
        local_step(view, 0.3, {0: 0.1})
    with pytest.raises(ViewViolationError, match=r"unexpected senders \[2\]"):
        local_step(view, 0.3, {0: 0.1, 1: 0.4, 2: 0.2})


def test_scalar_updates_match_the_vector_steppers(anchored_net, triad_net, triad_gamma):
    rng = np.random.default_rng(3)
    p = rng.uniform(-1.0, 1.0, size=3)

    ra_views = build_local_views(anchored_net, "ra")
    want_ra = step_perception_ra(anchored_net, p)
    for i, view in enumerate(ra_views):
        inbox = {j: p[j] for j in view.sender_set}
        assert local_step(view, p[i], inbox) == pytest.approx(want_ra[i], abs=1e-14)

    no_ra_views = build_local_views(triad_net, "no_ra", triad_gamma)
    want = step_perception_no_ra(triad_net, triad_gamma, p)
    for i, view in enumerate(no_ra_views):
        inbox = {j: p[j] for j in view.sender_set}
        assert local_step(view, p[i], inbox) == pytest.approx(want[i], abs=1e-14)


def test_scalar_homogeneous_update_matches_the_vector_stepper():
    rng = np.random.default_rng(4)
    C = random_doubly_stochastic_ring(rng, 4)
    net = InfluenceNetwork(C=C, a=np.full(4, 0.35))
    p = rng.uniform(0.0, 1.0, size=4)
    want = step_pagerank_ra(net, p)
    for i, view in enumerate(build_local_views(net, "homogeneous")):
        inbox = {j: p[j] for j in view.sender_set}
        assert local_step(view, p[i], inbox) == pytest.approx(want[i], abs=1e-14)


# ---------------------------------------------------------------------------
# the rule table: one formula per rule, vectorized and per node
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30),
       st.sampled_from(["dense", "sparse", "homogeneous"]))
def test_every_rule_gives_the_same_bits_per_node_and_vectorized(seed, n, kind):
    _assert_rules_match_local_steps(seed, n, kind)


def _assert_rules_match_local_steps(seed: int, n: int, kind: str) -> None:
    net = table_network(seed, n, kind)
    rng = np.random.default_rng(seed + 1)
    gamma = rng.uniform(0.0, 1.0, size=n)
    p = rng.uniform(-1.0, 1.0, size=n)
    inbox_values = p.tolist()  # the simulator passes Python floats
    for name, rule in RULES.items():
        if rule.shared_a and kind != "homogeneous":
            continue
        g = gamma if rule.needs_gamma else None
        want = _step(rule, net, g, p)
        for view in build_local_views(net, name, g):
            inbox = {j: inbox_values[j] for j in view.sender_set}
            got = local_step(view, inbox_values[view.node], inbox)
            assert got == want[view.node], (name, view.node)


@pytest.mark.parametrize("block_entries", [
    pytest.param(None, id="default"), pytest.param(1, id="block1"), pytest.param(100, id="block100"),
])
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 80),
       st.sampled_from(["dense", "sparse", "homogeneous", "negzero"]))
def test_streamed_relay_sums_give_the_same_bits_at_every_block_size(block_entries, seed, n, kind):
    """The steppers' relay sum streams through blocks of ``BLOCK_ENTRIES // n``
    sender rows; at one row per block, at several ragged blocks (100 entries
    for n up to 50) and at the default, every node still gets the bits of its
    in-order local sum."""
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body; no fixture
        if block_entries is not None:
            mp.setattr(perception, "BLOCK_ENTRIES", block_entries)
        _assert_rules_match_local_steps(seed, n, kind)


def test_a_stepper_call_allocates_no_square_temporary():
    """One step at n = 2000 holds O(n + BLOCK_ENTRIES) memory, not the
    32 MB of an n × n array of weighted relays."""
    rng = np.random.default_rng(5)
    net = random_network(rng, 2000, density=0.01)
    p = rng.uniform(0.0, 1.0, size=net.n)
    gamma = rng.uniform(0.0, 1.0, size=net.n)
    for step in (lambda: step_perception_ra(net, p), lambda: step_perception_no_ra(net, gamma, p)):
        step()  # warm every lazy attribute of net
        _, _, peak = traced(step)
        assert peak < 1 << 20, peak


@pytest.mark.parametrize("kind, block_entries", [
    pytest.param(kind, block, id=kind + suffix)
    for kind in ("dense", "sparse", "homogeneous")
    for suffix, block in (("", None), ("-block1", 1), ("-block100", 100))
])
def test_batch_kernel_rows_match_the_reflected_stepper(monkeypatch, kind, block_entries):
    """Rows match the vector stepper to rounding, and the streamed kernel gives
    the whole-array step's bits whatever its block size: one row per block,
    mostly ragged last blocks (100 entries) and the default."""
    if block_entries is not None:
        monkeypatch.setattr(perception, "BLOCK_ENTRIES", block_entries)
    ra = RULES["ra"]
    for seed in range(10):
        net = table_network(seed, 5 + 5 * seed, kind)
        P = np.random.default_rng(seed).uniform(0.0, 1.0, size=(25, net.n))
        Q = analysis._batch_step_ra(net, P)
        assert Q.shape == P.shape
        whole = ra.update(net.a, None, P, net.n, ra.relay(net.a, None, P) @ net.C)
        assert Q.tobytes() == whole.tobytes(), seed
        for k in range(P.shape[0]):
            assert np.max(np.abs(Q[k] - step_perception_ra(net, P[k]))) <= 1e-13
