"""Round-based simulator: locality, equivalence with matrix steppers, batches."""
import re
from pathlib import Path

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
    WrongTopologyError,
    advance,
    build_local_views,
    deliver,
    load_scenario,
    make_agents,
    run_batch,
    run_distributed,
    run_round,
    run_to_convergence,
    step_pagerank_ra,
    step_perception_no_ra,
    step_perception_ra,
)
from fjpower import perception

from conftest import SCENARIO_DIR, random_network, random_star_network


def _ring_net() -> InfluenceNetwork:
    C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return InfluenceNetwork(C=C, a=np.full(3, 0.3))


# ---------------------------------------------------------------------------
# agents and rounds
# ---------------------------------------------------------------------------

def test_make_agents_validates_mode_and_gamma(triad_net, triad_gamma, anchored_net):
    with pytest.raises(ValueError, match="unknown mode"):
        make_agents(triad_net, "bogus", np.zeros(3))
    with pytest.raises(ValueError, match="needs a self-weight"):
        make_agents(triad_net, "no_ra", np.zeros(3))
    with pytest.raises(ValueError, match="takes no gamma"):
        make_agents(anchored_net, "ra", np.zeros(3), gamma=triad_gamma)
    with pytest.raises(WrongTopologyError):
        make_agents(anchored_net, "homogeneous", np.zeros(3))


def test_each_round_delivers_one_message_per_edge(anchored_net):
    agents = make_agents(anchored_net, "ra", np.array([0.1, 0.2, 0.3]))
    delivered = deliver(agents)
    assert delivered == np.count_nonzero(anchored_net.C)
    assert agents[1].inbox == {0: 0.1, 2: 0.3}
    assert agents[0].inbox == {2: 0.3}


@st.composite
def _networks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    family = draw(st.sampled_from(["dense", "sparse", "star", "loose_star"]))
    if family == "dense":
        return random_network(rng, n)
    if family == "sparse":
        return random_network(rng, n, density=draw(st.sampled_from([0.2, 0.5])))
    return random_star_network(rng, max(n, 3), center_fully_stubborn=family == "star")


@settings(max_examples=60, deadline=None)
@given(_networks())
def test_adjacency_matches_dense_scans_and_routes_every_edge(net):
    for i in range(net.n):
        assert net.in_neighbors(i) == tuple(np.nonzero(net.C[:, i])[0].tolist())
        assert net.out_neighbors(i) == tuple(np.nonzero(net.C[i, :])[0].tolist())
    agents = make_agents(net, "ra", np.full(net.n, 1.0 / net.n))
    assert deliver(agents) == np.count_nonzero(net.C)
    gamma = np.linspace(0.0, 1.0, net.n)
    for g in (None, gamma):
        for i, view in enumerate(build_local_views(net, "ra" if g is None else "no_ra", g)):
            assert view.in_edges == tuple(
                (j, net.a[j], net.C[j, i], None if g is None else g[j])
                for j in np.nonzero(net.C[:, i])[0].tolist())


def test_round_snapshot_matches_the_vector_stepper(anchored_net):
    p0 = np.array([0.1, 0.2, 0.3])
    agents = make_agents(anchored_net, "ra", p0)
    after = run_round(agents)
    want = step_perception_ra(anchored_net, p0)
    assert np.max(np.abs(after - want)) <= 1e-14


def test_views_are_built_and_checked_for_one_rule(anchored_net, triad_net, triad_gamma):
    """A view carries the rule it was built for, so a round reads the rule
    from its agents: ra agents step the ra map, never the fixed-weight one."""
    assert all(v.rule is perception.RULES["ra"] for v in build_local_views(anchored_net, "ra"))
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        build_local_views(anchored_net, "bogus")
    with pytest.raises(ValueError, match="ra mode takes no gamma"):
        build_local_views(anchored_net, "ra", triad_gamma)
    with pytest.raises(WrongTopologyError, match="one shared susceptibility"):
        build_local_views(anchored_net, "homogeneous")
    p0 = np.array([0.1, 0.2, 0.3])
    after = run_round(make_agents(triad_net, "no_ra", p0, triad_gamma))
    assert np.array_equal(after, step_perception_no_ra(triad_net, triad_gamma, p0))


def test_a_round_needs_node_k_agent_at_position_k(anchored_net):
    """A reversed list would pair each inbox with another node's view, and a
    prefix would index past its end; both are rejected before any inbox fills."""
    p0 = np.array([0.1, 0.2, 0.3])
    agents = make_agents(anchored_net, "ra", p0)
    with pytest.raises(ValueError, match=re.escape("agents[0] must be node 1's agent, but it is node 3's")):
        run_round(agents[::-1])
    with pytest.raises(ValueError, match=re.escape("agents[2] must be node 3's agent, but it is missing")):
        deliver(agents[:2])
    assert all(not ag.inbox for ag in agents)
    assert np.array_equal(run_round(agents), step_perception_ra(anchored_net, p0))


def test_a_round_rejects_a_surplus_agent(anchored_net):
    """A surplus agent is named as one, not as the agent of a node past the last."""
    agents = make_agents(anchored_net, "ra", np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match=re.escape(
            "the list holds 1 agent(s) more than the network's 3 nodes")):
        deliver(agents + [agents[0]])
    assert all(not ag.inbox for ag in agents)


def test_a_hand_built_view_is_checked_against_its_own_gamma():
    """A view without the self-weight its rule reads would end its first
    local_step in a TypeError; it is rejected as it is built."""
    with pytest.raises(ValueError, match="node 1's view needs its self-weight gamma"):
        perception.LocalView(rule=perception.RULES["no_ra"], node=0, n=2, a=0.5, gamma=None,
                             in_edges=((1, 0.5, 1.0, None),))
    with pytest.raises(ValueError, match="node 2's view takes no gamma"):
        perception.LocalView(rule=perception.RULES["ra"], node=1, n=2, a=0.5, gamma=0.3,
                             in_edges=())


def test_agents_hold_a_fixed_point(star3_net):
    from fjpower import star_equilibrium_closed_form

    eq = star_equilibrium_closed_form(star3_net)
    agents = make_agents(star3_net, "ra", eq)
    deliver(agents)
    after = advance(agents)
    assert np.max(np.abs(after - eq)) < 1e-12


# ---------------------------------------------------------------------------
# equivalence with the centralized steppers
# ---------------------------------------------------------------------------

def test_distributed_run_tracks_the_fixed_weight_stepper(triad_net, triad_gamma):
    p0 = np.array([0.2, 0.3, 0.5])
    dist = run_distributed(triad_net, "no_ra", p0, triad_gamma)
    cent = run_to_convergence(
        lambda v: step_perception_no_ra(triad_net, triad_gamma, v), p0
    )
    assert dist.status == cent.status == CONVERGED
    assert dist.path.shape == cent.path.shape
    assert np.max(np.abs(dist.path - cent.path)) <= 1e-12


def test_distributed_run_tracks_the_reflected_stepper(anchored_net):
    p0 = np.array([-0.5, -0.3, 0.5])
    dist = run_distributed(anchored_net, "ra", p0)
    cent = run_to_convergence(lambda v: step_perception_ra(anchored_net, v), p0)
    assert dist.status == cent.status == CONVERGED
    assert dist.path.shape == cent.path.shape
    assert np.max(np.abs(dist.path - cent.path)) <= 1e-12


def test_distributed_run_tracks_the_homogeneous_stepper():
    net = _ring_net()
    p0 = np.array([0.5, 0.3, 0.2])
    dist = run_distributed(net, "homogeneous", p0)
    cent = run_to_convergence(lambda v: step_pagerank_ra(net, v), p0)
    assert dist.status == cent.status == CONVERGED
    assert dist.path.shape == cent.path.shape
    assert np.max(np.abs(dist.path - cent.path)) <= 1e-12


@pytest.mark.parametrize("mode, block_entries", [
    pytest.param(mode, block, id=mode + suffix)
    for mode in ("no_ra", "ra", "homogeneous")
    for suffix, block in (("", None), ("-block1000", 1000))
])
def test_large_sparse_distributed_runs_equal_the_centralized_twin(monkeypatch, mode, block_entries):
    # about 20 in-neighbors per node, so a slip in sender order shows; 1000
    # entries stream the twin's relay sum through 40 blocks of 5 sender rows
    if block_entries is not None:
        monkeypatch.setattr(perception, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(2024)
    net = random_network(rng, 200, density=0.1)
    if mode == "homogeneous":
        net = InfluenceNetwork(C=net.C, a=np.full(net.n, 0.6))
    assert 15 <= np.count_nonzero(net.C) / net.n <= 25
    p0 = rng.dirichlet(np.ones(net.n))
    gamma = rng.uniform(0.0, 0.5, size=net.n) if mode == "no_ra" else None
    twin = {
        "no_ra": lambda v: step_perception_no_ra(net, gamma, v),
        "ra": lambda v: step_perception_ra(net, v),
        "homogeneous": lambda v: step_pagerank_ra(net, v),
    }[mode]
    dist = run_distributed(net, mode, p0, gamma, max_iter=200)
    cent = run_to_convergence(twin, p0, max_iter=200)
    assert dist.status == cent.status
    assert dist.iterations > 5
    assert np.array_equal(dist.path, cent.path)


def test_distributed_stop_parameters_are_validated(anchored_net):
    p0 = np.full(3, 1 / 3)
    with pytest.raises(ValueError, match="tol must be positive"):
        run_distributed(anchored_net, "ra", p0, tol=0.0)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        run_distributed(anchored_net, "ra", p0, max_iter=0)


def test_a_start_of_the_wrong_length_is_rejected(anchored_net):
    # the centralized twin raises on these too; agents must not truncate or overrun
    for p0 in (np.full(5, 0.2), np.full(2, 0.5)):
        with pytest.raises(ValueError, match=r"p0 must have shape \(3,\), got \(%d,\)" % len(p0)):
            make_agents(anchored_net, "ra", p0)
        with pytest.raises(ValueError, match="p0 must have shape"):
            run_distributed(anchored_net, "ra", p0)


def test_a_self_weight_vector_of_the_wrong_shape_is_rejected(anchored_net):
    p0 = np.full(3, 0.2)
    for gamma in (np.array([0.2, 0.3, 0.4, 0.9, 0.9]), np.array([0.5, 0.5]), np.full((3, 1), 0.5)):
        message = re.escape(f"gamma must have shape (3,), got {gamma.shape}")
        with pytest.raises(ValueError, match=message):
            build_local_views(anchored_net, "no_ra", gamma)
        with pytest.raises(ValueError, match="gamma must have shape"):
            run_distributed(anchored_net, "no_ra", p0, gamma=gamma)
    assert [v.gamma for v in build_local_views(anchored_net, "no_ra", [0.2, 0.3, 0.4])] == [0.2, 0.3, 0.4]


def test_divergent_start_stops_before_any_round(anchored_net):
    dist = run_distributed(anchored_net, "ra", np.array([2e9, 0.0, 0.0]))
    assert dist.status == DIVERGED and dist.iterations == 0


def test_nan_start_stops_before_any_round(anchored_net):
    dist = run_distributed(anchored_net, "ra", np.array([np.nan, 0.0, 0.0]))
    assert dist.status == NONFINITE and dist.iterations == 0


def test_distributed_divergence_detection(four_settings):
    _, net_c, p0 = four_settings[2]
    dist = run_distributed(net_c, "ra", p0)
    assert dist.status == DIVERGED
    assert np.max(np.abs(dist.final)) > 1e9


def test_distributed_iteration_budget(anchored_net):
    dist = run_distributed(anchored_net, "ra", np.array([-0.5, -0.3, 0.5]), max_iter=3)
    assert dist.status == MAX_ITER and dist.iterations == 3


def test_distributed_runs_are_deterministic(anchored_net):
    p0 = np.array([-0.5, -0.3, 0.5])
    one = run_distributed(anchored_net, "ra", p0)
    two = run_distributed(anchored_net, "ra", p0)
    assert np.array_equal(one.path, two.path)


# ---------------------------------------------------------------------------
# batch execution
# ---------------------------------------------------------------------------

def _star_batch():
    star_dir = SCENARIO_DIR / "star_partial"
    return [load_scenario(star_dir / f"star_partial_{tag}.yaml") for tag in "abcd"]


def test_batch_statuses_across_the_four_star_settings(tmp_path):
    results = run_batch(_star_batch(), out_dir=tmp_path)
    assert [r.name for r in results] == [f"star_partial_{tag}" for tag in "abcd"]
    assert [r.status for r in results] == [CONVERGED, CONVERGED, DIVERGED, CONVERGED]
    assert [r.exit_code for r in results] == [0, 0, 2, 0]
    # every run also produced its trajectory CSV and condition report
    for r in results:
        assert len(r.artifacts) == 2
        assert r.reports["star_center_load"].margin < 0.0


def test_batch_is_deterministic(tmp_path):
    first = run_batch(_star_batch(), out_dir=tmp_path / "first")
    second = run_batch(_star_batch(), out_dir=tmp_path / "second")
    for one, two in zip(first, second):
        assert one.status == two.status
        assert np.array_equal(one.final, two.final)
        for a, b in zip(one.artifacts, two.artifacts):
            assert Path(a).read_bytes() == Path(b).read_bytes()


def test_batch_captures_per_scenario_failures(tmp_path, anchored_net):
    from fjpower.scenario import Scenario

    # loads fine but cannot run: the homogeneous update needs one shared a
    bad = Scenario(
        name="mixed_pagerank", net=anchored_net, mode="pagerank_ra",
        starts=(np.full(3, 1 / 3),), gamma=None, tol=1e-12, max_iter=10,
        seed=0, outputs=(),
    )
    ok = load_scenario(SCENARIO_DIR / "three_node_ra.yaml")
    results = run_batch([bad, ok], out_dir=tmp_path)
    assert results[0].status == "error"
    assert "WrongTopologyError" in results[0].error
    assert results[0].exit_code == 1
    assert results[1].status == CONVERGED


def test_batch_does_not_run_a_scenario_whose_name_an_earlier_one_took(tmp_path):
    """Both would write ``same_traj1.csv``; the later one is an error result,
    named by its position, and the file keeps the first scenario's run."""
    from dataclasses import replace

    from fjpower.scenario import OutputRequest

    base = replace(load_scenario(SCENARIO_DIR / "three_node_ra.yaml"), name="same",
                   outputs=(OutputRequest("trajectory_csv"),))
    first = replace(base, starts=(np.array([0.1, 0.2, 0.7]),))
    second = replace(base, starts=(np.array([0.9, 0.05, 0.05]),))
    results = run_batch([first, second], out_dir=tmp_path / "batch")
    assert [r.status for r in results] == [CONVERGED, "error"]
    assert results[1].error == ("ConfigValidationError: "
                                "scenario 2 repeats the name 'same' of scenario 1")
    assert results[1].artifacts == ()
    run_batch([first], out_dir=tmp_path / "alone")
    csv = "same_traj1.csv"
    assert (tmp_path / "batch" / csv).read_bytes() == (tmp_path / "alone" / csv).read_bytes()


def test_empty_batch():
    assert run_batch([]) == []
