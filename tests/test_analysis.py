"""Boxes, condition reports, equilibrium evidence, invariance and monotonicity."""
import math

import numpy as np
import pytest

from fjpower import (
    Box,
    FJPowerError,
    InfluenceNetwork,
    InvalidStructureError,
    NoConvergenceError,
    NotStarError,
    WrongTopologyError,
    check_condition,
    check_dominance_necessary,
    contraction_diagnostic,
    incoming_influence_load,
    incoming_volatility_load,
    monotonicity_test_star,
    nonneg_box,
    one_step_invariance_test,
    perception_jacobian,
    random_doubly_stochastic_ring,
    random_network,
    random_star_network,
    solve_equilibrium,
    star_equilibrium_closed_form,
    star_invariant_box,
    step_perception_ra,
    two_sided_box,
)
from fjpower import analysis
from fjpower.analysis import CONDITION_IDS, star_center_floor

from test_fj_core import ANCHORED_POWER_EQ
from test_perception import STAR3_EQ

# closed-form equilibrium of the wheel-like star under the mild profile
FOUR_A_CLOSED = np.array(
    [0.5567113208707483, 0.3116959565212739, 0.07941468447745792, 0.05217803813051994]
)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def test_box_validation_and_membership():
    with pytest.raises(ValueError, match="coordinate 2"):
        Box(mu=np.array([0.0, 1.0]), nu=np.array([1.0, 0.5]))
    box = Box(mu=np.array([0.0, -1.0]), nu=np.array([1.0, 1.0]))
    assert box.n == 2
    assert box.contains([0.5, 0.0])
    assert not box.contains([1.1, 0.0])
    assert box.contains([1.1, 0.0], slack=0.2)


def test_box_sampling_needs_finite_bounds():
    rng = np.random.default_rng(0)
    box = Box(mu=np.array([0.0]), nu=np.array([np.inf]))
    with pytest.raises(ValueError, match="infinite"):
        box.sample(rng, 4)
    finite = Box(mu=np.array([-1.0, 0.0]), nu=np.array([1.0, 2.0]))
    pts = finite.sample(rng, 100)
    assert pts.shape == (100, 2)
    assert all(finite.contains(p) for p in pts)


def test_inflated_box_scales_only_the_ceiling():
    box = Box(mu=np.array([-1.0, 0.5]), nu=np.array([2.0, 1.0]))
    blown = box.inflated(2.0)
    assert np.array_equal(blown.mu, box.mu)
    assert np.array_equal(blown.nu, [4.0, 2.0])


def test_incoming_loads(anchored_net):
    b = incoming_influence_load(anchored_net)
    assert np.allclose(b, [0.75, 0.75, 2 / 3], atol=1e-15)
    d = incoming_volatility_load(anchored_net)
    assert np.allclose(d, [7 / 12, 7 / 12, 1.375], atol=1e-15)


def test_nonneg_box_bounds(anchored_net):
    box = nonneg_box(anchored_net)
    assert np.array_equal(box.mu, np.zeros(3))
    assert np.max(np.abs(box.nu - [25 / 48, 0.5, 0.5])) <= 1e-15


def test_two_sided_box_matches_exact_fractions(anchored_net):
    box = two_sided_box(anchored_net)
    assert np.max(np.abs(box.mu - [3 / 16, -3 / 8, -1 / 6])) <= 1e-15
    assert np.max(np.abs(box.nu - [25 / 48, 7 / 8, 2 / 3])) <= 1e-15


def test_star_boxes_tight_and_loose(four_settings):
    _, net, _ = four_settings[0]
    tight = star_invariant_box(net)
    assert np.max(np.abs(tight.mu - [0.0, -0.6875, 0.0, 0.0])) <= 1e-15
    assert np.max(np.abs(tight.nu - [2.5, 0.3125, 1.0, 1.0])) <= 1e-15
    loose = star_invariant_box(net, loose=True)
    assert np.array_equal(loose.mu, np.zeros(4))
    assert np.max(np.abs(loose.nu - [2.5, 1.0, 1.0, 1.0])) <= 1e-15


def test_star_box_rejects_other_topologies(anchored_net, star3_net):
    with pytest.raises(WrongTopologyError):
        star_invariant_box(anchored_net)
    with pytest.raises(WrongTopologyError):
        star_invariant_box(star3_net)


def test_stubborn_floor_pair(four_settings):
    _, net_a, _ = four_settings[0]
    used, alternate = star_center_floor(net_a, 0)
    assert used == pytest.approx(-0.6875, abs=1e-12)
    assert alternate == pytest.approx(0.6875, abs=1e-12)
    _, net_b, _ = four_settings[1]
    used_b, alternate_b = star_center_floor(net_b, 0)
    assert used_b == pytest.approx(1 / 24, abs=1e-12)
    assert alternate_b == pytest.approx(-1 / 24, abs=1e-12)


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------

def test_condition_ids_are_stable():
    assert CONDITION_IDS == (
        "incoming_influence_cap",
        "incoming_volatility_cap",
        "star_center_load",
        "homogeneous_susceptibility_cap",
        "democracy",
        "uniform_gain_cap",
    )
    with pytest.raises(ValueError, match="dominance"):
        check_condition(
            InfluenceNetwork(C=np.array([[0.0, 1.0], [1.0, 0.0]]), a=np.array([0.5, 0.5])),
            "no_such_condition",
        )


def _documented_margin(net, which, timescale):
    """(margin, row count) of condition ``which``, from the formula in its docstring."""
    C, a, n = net.C, net.a, net.n
    part = [i for i in range(n) if a[i] > 0.0]
    if which == "incoming_influence_cap":
        b = [sum(C[j, i] * a[j] / (1 - a[j]) for j in range(n)) for i in range(n)]
        caps = [a[i] / (1 - a[i]) + 2 * (n - 2) / n - b[i] for i in part]
        return min(caps), len(part)
    if which == "incoming_volatility_cap":
        d = [sum(C[j, i] * (1 + 3 * a[j]) / (4 * a[j]) for j in part) for i in range(n)]
        caps = [1 / a[i] + 4 / n - d[i] for i in part]
        return min(caps), len(part)
    if which == "star_center_load":
        c = 0  # random_star_network's center
        leaves = [j for j in part if j != c]
        load = 1 / (a[c] * (1 - a[c])) - 4 / n - sum(a[j] / (1 - a[j]) for j in leaves)
        offenders = [j for j in leaves if C[c, j] > 0.0]
        return (-math.inf if offenders else load), 1 + len(offenders) + 2
    if which == "homogeneous_susceptibility_cap":
        return (5 * n - 7) / (8 * (n - 1)) - a[0], 1
    if which == "democracy":
        v = (a / (1 - a)) / np.sum(a / (1 - a))
        return min(1e-10 - abs(sum(C[j, i] * v[j] for j in range(n)) - v[i]) for i in range(n)), n
    assert which == "uniform_gain_cap"
    zeta = (a.sum() + 1 - a.min()) / n
    return (1 / (1 + 2 * zeta) if timescale == "issue" else 0.5) - a.max(), 2


def test_every_condition_margin_follows_its_documented_formula():
    rng = np.random.default_rng(23)
    nets = {cid: [] for cid in CONDITION_IDS}
    for _ in range(12):
        n = int(rng.integers(2, 12))
        for cid in ("incoming_influence_cap", "incoming_volatility_cap", "democracy",
                    "uniform_gain_cap"):
            nets[cid].append(random_network(rng, n, fully_stubborn_prob=0.3,
                                            density=float(rng.uniform(0.3, 1.0))))
        star = random_star_network(rng, n + 1, center_fully_stubborn=False)
        nets["star_center_load"].append(star)
        part = [j for j in star.partially_stubborn if j != 0]
        if part:  # the center also leans on a partially stubborn leaf: a structural failure
            C = star.C.copy()
            C[0] *= 0.5
            C[0, part[0]] += 0.5
            nets["star_center_load"].append(InfluenceNetwork(C=C, a=star.a))
        ring = random_doubly_stochastic_ring(rng, n + 1)
        shared = np.full(n + 1, rng.uniform(0.05, 0.95))
        nets["homogeneous_susceptibility_cap"].append(InfluenceNetwork(C=ring, a=shared))
        nets["democracy"].append(InfluenceNetwork(C=ring, a=shared))  # holds: v is uniform
    assert any(net.C[0, j] > 0 and net.a[j] > 0 for net in nets["star_center_load"]
               for j in range(1, net.n))
    for cid, group in nets.items():
        verdicts = set()
        for net in group:
            for timescale in ("issue", "step"):
                report = check_condition(net, cid, timescale)
                margin, rows = _documented_margin(net, cid, timescale)
                assert report.condition == cid and len(report.detail) == rows
                assert report.margin == pytest.approx(margin, rel=1e-9, abs=1e-13)
                assert report.holds == (report.margin >= 0.0)
                verdicts.add(report.holds)
        assert verdicts == {True, False}, cid


def test_incoming_influence_cap_margins(anchored_net):
    report = check_condition(anchored_net, "incoming_influence_cap")
    assert report.holds
    assert report.margin == pytest.approx(7 / 12, abs=1e-12)
    assert [row.node for row in report.detail] == [1, 2]
    assert report.detail[1].margin == pytest.approx(1.5, abs=1e-12)
    assert "HOLDS" in str(report)
    assert "node 2" in str(report)


def test_incoming_volatility_cap_margins(anchored_net):
    report = check_condition(anchored_net, "incoming_volatility_cap")
    assert report.holds
    assert report.detail[0].margin == pytest.approx(3.25, abs=1e-12)
    assert report.detail[1].margin == pytest.approx(1.625, abs=1e-12)


def test_star_center_load_fails_on_both_susceptibility_profiles(four_settings):
    _, net_a, _ = four_settings[0]
    report_a = check_condition(net_a, "star_center_load")
    assert not report_a.holds
    assert report_a.margin == pytest.approx(-13 / 12, abs=1e-12)
    head = report_a.detail[0]
    assert head.label == "center_load" and head.node == 0
    assert head.lhs == pytest.approx(19 / 3, abs=1e-12)
    assert head.rhs == pytest.approx(5.25, abs=1e-12)
    floors = [row for row in report_a.detail if row.margin is None]
    assert [row.label for row in floors] == ["stubborn_floor_used", "stubborn_floor_alternate"]
    assert floors[0].lhs == pytest.approx(-0.6875, abs=1e-12)

    _, net_b, _ = four_settings[1]
    report_b = check_condition(net_b, "star_center_load")
    assert not report_b.holds
    assert report_b.margin == pytest.approx(-19 / 6, abs=1e-12)


def test_star_center_load_flags_structural_violations(four_settings):
    _, net_d, _ = four_settings[3]
    report = check_condition(net_d, "star_center_load")
    assert not report.holds
    assert report.margin == -math.inf
    offending = [row for row in report.detail if row.label == "center_row_weight"]
    assert [(row.node, row.lhs) for row in offending] == [(3, 1.0)]


def test_star_center_load_needs_a_partial_center(anchored_net, star3_net):
    for net in (anchored_net, star3_net):
        with pytest.raises(WrongTopologyError):
            check_condition(net, "star_center_load")


def test_homogeneous_cap_margin_and_boundary():
    ring_C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    report = check_condition(InfluenceNetwork(C=ring_C, a=np.full(3, 0.3)),
                             "homogeneous_susceptibility_cap")
    assert report.holds and report.margin == pytest.approx(0.2, abs=1e-12)
    boundary = check_condition(InfluenceNetwork(C=ring_C, a=np.full(3, 0.5)),
                               "homogeneous_susceptibility_cap")
    assert boundary.holds and boundary.margin == pytest.approx(0.0, abs=1e-15)


def test_homogeneous_cap_rejects_mixed_susceptibilities(anchored_net):
    with pytest.raises(WrongTopologyError):
        check_condition(anchored_net, "homogeneous_susceptibility_cap")


def test_democracy_holds_on_the_uniform_ring_and_fails_on_the_anchored_net(anchored_net):
    ring_C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    ring = InfluenceNetwork(C=ring_C, a=np.full(3, 0.3))
    report = check_condition(ring, "democracy")
    assert report.holds
    assert report.margin == pytest.approx(1e-10, abs=1e-25)
    bad = check_condition(anchored_net, "democracy")
    assert not bad.holds
    assert bad.margin == pytest.approx(-0.3846153845153845, abs=1e-12)


def test_uniform_gain_cap_depends_on_the_timescale(anchored_net):
    issue = check_condition(anchored_net, "uniform_gain_cap")
    assert not issue.holds
    assert issue.margin == pytest.approx(3 / 7 - 0.6, abs=1e-12)
    step = check_condition(anchored_net, "uniform_gain_cap", timescale="step")
    assert not step.holds
    assert step.margin == pytest.approx(-0.1, abs=1e-12)
    gain_rows = [row for row in issue.detail if row.label == "gain"]
    assert gain_rows and gain_rows[0].lhs == pytest.approx(2 / 3, abs=1e-12)

    mild = InfluenceNetwork(C=np.array([[0.0, 1.0], [1.0, 0.0]]), a=np.array([0.2, 0.3]))
    assert check_condition(mild, "uniform_gain_cap").margin == pytest.approx(
        0.13478260869565223, abs=1e-12
    )


def test_dominance_check_on_the_anchored_equilibrium(anchored_net):
    report = check_dominance_necessary(anchored_net, ANCHORED_POWER_EQ, 0, 0.5)
    assert report.condition == "dominance(node=1, sigma=0.5)"
    assert report.holds
    assert report.margin == pytest.approx(1 / 12, abs=1e-12)
    share = [row for row in report.detail if row.label == "power_share"][0]
    assert share.margin is None
    assert share.lhs == pytest.approx(ANCHORED_POWER_EQ[0], abs=1e-15)


@pytest.mark.parametrize("sigma", [0.4, 1.0])
def test_dominance_sigma_range(anchored_net, sigma):
    with pytest.raises(ValueError, match="sigma"):
        check_dominance_necessary(anchored_net, ANCHORED_POWER_EQ, 0, sigma)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_multistart_search_agrees_everywhere(anchored_net):
    report = solve_equilibrium(anchored_net, multistarts=20, seed=0)
    assert report.total_starts == 21
    assert report.starts_agreeing == 21
    assert report.residual < 1e-10
    assert report.in_simplex and report.interior
    assert np.max(np.abs(report.p_star - ANCHORED_POWER_EQ)) < 1e-9
    assert "uniqueness evidence" in str(report)


def test_multistart_search_reports_budget_exhaustion(anchored_net):
    with pytest.raises(NoConvergenceError):
        solve_equilibrium(anchored_net, multistarts=2, max_iter=1)


def test_multistart_count_must_be_nonnegative(anchored_net):
    with pytest.raises(ValueError, match="multistarts"):
        solve_equilibrium(anchored_net, multistarts=-3)
    assert solve_equilibrium(anchored_net, multistarts=0).total_starts == 1


def test_chunked_multistart_search_gives_the_same_bits(anchored_net, monkeypatch):
    whole = solve_equilibrium(anchored_net, multistarts=20, seed=3)
    for rows in (1, 2, 8):  # 21 starts: one, two or eight rows per stacked solve
        monkeypatch.setattr(analysis, "STACK_ENTRIES", rows * anchored_net.n ** 2)
        chunked = solve_equilibrium(anchored_net, multistarts=20, seed=3)
        assert chunked.p_star.tobytes() == whole.p_star.tobytes()
        assert str(chunked) == str(whole)
        assert (chunked.residual, chunked.iterations) == (whole.residual, whole.iterations)


def test_star_closed_form_matches_frozen_values(star3_net, four_settings):
    assert np.max(np.abs(star_equilibrium_closed_form(star3_net) - STAR3_EQ)) < 1e-12
    _, net_a, _ = four_settings[0]
    got = star_equilibrium_closed_form(net_a)
    assert np.max(np.abs(got - FOUR_A_CLOSED)) < 1e-12
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_star_closed_form_leaf_interval(star3_net):
    eq = star_equilibrium_closed_form(star3_net)
    for leaf in (1, 2):
        lo = (1.0 - star3_net.a[leaf]) / 3.0
        assert lo < eq[leaf] < 1.0 / 3.0


def test_star_closed_form_structural_errors(anchored_net, four_settings):
    with pytest.raises(NotStarError):
        star_equilibrium_closed_form(anchored_net)
    _, net_d, _ = four_settings[3]
    with pytest.raises(InvalidStructureError, match=r"node\(s\) 4"):
        star_equilibrium_closed_form(net_d)


def test_closed_form_is_a_fixed_point_of_the_update(star3_net):
    eq = star_equilibrium_closed_form(star3_net)
    assert np.max(np.abs(step_perception_ra(star3_net, eq) - eq)) < 1e-12


# ---------------------------------------------------------------------------
# invariance trials
# ---------------------------------------------------------------------------

def test_anchored_boxes_are_one_step_invariant(anchored_net):
    for box in (two_sided_box(anchored_net), nonneg_box(anchored_net)):
        report = one_step_invariance_test(anchored_net, box, 10_000)
        assert report.ok
        assert report.exit_count == 0
        assert "no exits" in str(report)


def test_inflated_control_box_leaks(anchored_net):
    box = two_sided_box(anchored_net).inflated(2.0)
    report = one_step_invariance_test(anchored_net, box, 10_000, seed=0)
    assert not report.ok
    assert report.exit_count == 1148
    assert len(report.examples) == 20
    for rec in report.examples:
        assert rec.side in ("lower", "upper")
        if rec.side == "upper":
            assert rec.value > rec.bound
        else:
            assert rec.value < rec.bound


def test_tight_star_box_is_not_invariant_under_the_heavy_load(four_settings):
    """The wheel-like star's load sits beyond the center cap, and the tight
    box leaks: a corner state steps out through the center coordinate."""
    _, net_a, _ = four_settings[0]
    box = star_invariant_box(net_a)
    corner = np.array([2.5, 0.3125, 0.5, 0.5])
    assert box.contains(corner)
    stepped = step_perception_ra(net_a, corner)
    assert stepped[0] == pytest.approx(2.716666666666667, abs=1e-12)
    assert not box.contains(stepped, slack=1e-9)
    report = one_step_invariance_test(net_a, box, 10_000, seed=0)
    assert report.exit_count == 122


# ---------------------------------------------------------------------------
# contraction diagnostics
# ---------------------------------------------------------------------------

def test_jacobian_structure(anchored_net):
    J0 = perception_jacobian(anchored_net, np.zeros(3))
    assert np.array_equal(np.diag(J0), np.zeros(3))
    assert J0[0, 2] == pytest.approx(0.6 * 0.5, abs=1e-15)  # inflow 3 -> 1
    Jp = perception_jacobian(anchored_net, ANCHORED_POWER_EQ)
    assert np.diag(Jp) == pytest.approx(2 * anchored_net.a * ANCHORED_POWER_EQ)


def test_contraction_norm_at_small_states(anchored_net):
    # for states inside [0, 1/2] the column sums collapse to the susceptibility
    assert contraction_diagnostic(anchored_net, np.zeros(3)) == pytest.approx(0.6, abs=1e-12)
    assert contraction_diagnostic(anchored_net, ANCHORED_POWER_EQ) == pytest.approx(
        0.6, abs=1e-12
    )


def test_contraction_diagnostic_cross_checks_finite_differences(anchored_net):
    contraction_diagnostic(anchored_net, np.array([0.2, -0.4, 1.3]))  # no raise
    with pytest.raises(FJPowerError, match="mismatch"):
        contraction_diagnostic(anchored_net, np.array([0.2, -0.4, 1.3]), fd_rtol=1e-14)


# ---------------------------------------------------------------------------
# star monotonicity
# ---------------------------------------------------------------------------

def test_monotone_approach_from_above(star3_net):
    report = monotonicity_test_star(star3_net, np.array([0.3, 0.4, 0.5]))
    assert report.ok
    assert report.center == 0
    assert [row.node for row in report.per_leaf] == [1, 2]
    assert [row.direction for row in report.per_leaf] == ["down", "down"]
    assert all(row.first_violation is None for row in report.per_leaf)
    assert report.leaves_one_side
    assert report.trajectory.converged


def test_monotone_approach_from_below(star3_net):
    report = monotonicity_test_star(star3_net, np.array([0.8, 0.2, 0.0]))
    assert report.ok
    assert [row.direction for row in report.per_leaf] == ["up", "up"]
    assert report.leaves_one_side


def test_center_tail_settles_quickly(star3_net):
    report = monotonicity_test_star(star3_net, np.array([0.9, 0.8, 0.6]))
    assert report.ok
    assert [row.direction for row in report.per_leaf] == ["down", "down"]
    assert report.center_tail_start <= 2


def test_monotonicity_preconditions(star3_net, triad_net):
    with pytest.raises(WrongTopologyError):
        monotonicity_test_star(triad_net, np.array([0.3, 0.3, 0.3]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        monotonicity_test_star(star3_net, np.array([0.3, -0.1, 0.3]))


def test_monotonicity_rejects_a_nonfinite_start():
    C = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    net = InfluenceNetwork(C=C, a=np.array([0.0, 0.6, 0.4]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            monotonicity_test_star(net, np.array([bad, 0.2, 0.3]))
