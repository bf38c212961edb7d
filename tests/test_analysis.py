"""Boxes, condition reports, equilibrium evidence and proofs, invariance and
monotonicity."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fjpower import (
    Box,
    FJPowerError,
    InfluenceNetwork,
    NoConvergenceError,
    WrongTopologyError,
    build_local_views,
    check_condition,
    check_dominance_necessary,
    contraction_diagnostic,
    incoming_influence_load,
    incoming_volatility_load,
    nonneg_box,
    one_step_invariance_test,
    perception_jacobian,
    run_stack_to_convergence,
    run_to_convergence,
    solve_equilibrium,
    star_equilibrium_closed_form,
    star_invariant_box,
    step_pagerank_ra,
    step_perception_ra,
    step_power_evolution,
    two_sided_box,
)
from fjpower import analysis, fj_core, perception
from fjpower.analysis import CONDITION_IDS, InvarianceReport, star_center_floor

from conftest import random_doubly_stochastic_ring, random_network, random_star_network, traced
from test_acceptance import _conditioned_net
from test_convergence import _capped_nets
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
    # NaN passes the mu <= nu test, so it has its own check
    with pytest.raises(ValueError, match="NaN at coordinate 1"):
        Box(mu=[np.nan, 0.0], nu=[1.0, 1.0])
    with pytest.raises(ValueError, match="NaN at coordinate 2"):
        Box(mu=[0.0, 0.0], nu=[1.0, np.nan])
    with pytest.raises(ValueError, match="equal-length vectors"):
        Box([0.0, 0.0], [1.0])
    box = Box(mu=np.array([0.0, -1.0]), nu=np.array([1.0, 1.0]))
    assert box.n == 2
    assert box.contains([0.5, 0.0])
    assert not box.contains([1.1, 0.0])
    assert Box(box.mu - 0.2, box.nu + 0.2).contains([1.1, 0.0])


def test_box_membership_needs_one_entry_per_coordinate():
    box = Box(np.zeros(3), np.ones(3))
    for point in ([0.3], [0.3, 0.3], np.full((2, 3), 0.3), 0.3):
        with pytest.raises(ValueError, match=r"point must have shape \(3,\)"):
            box.contains(point)


def test_box_sampling_needs_finite_bounds(pair_net):
    rng = np.random.default_rng(0)
    box = Box(mu=np.array([0.0]), nu=np.array([np.inf]))
    with pytest.raises(ValueError, match="infinite"):
        box.sample(rng, 4)
    wide = Box(mu=np.array([0.0, -1e308]), nu=np.array([1.0, 1e308]))
    with pytest.raises(OverflowError, match="width"):
        wide.sample(rng, 4)
    with pytest.raises(ValueError, match="infinite"):
        one_step_invariance_test(pair_net, Box(mu=np.zeros(2), nu=np.array([1.0, np.inf])), 4)
    with pytest.raises(OverflowError, match="width"):
        one_step_invariance_test(pair_net, wide, 4)
    finite = Box(mu=np.array([-1.0, 0.0]), nu=np.array([1.0, 2.0]))
    pts = finite.sample(rng, 100)
    assert pts.shape == (100, 2)
    assert all(finite.contains(p) for p in pts)


def test_box_sampling_matches_rng_uniform_bit_for_bit():
    boxes = [
        Box(mu=np.array([-1.0, 0.0]), nu=np.array([1.0, 2.0])),
        # zero-width coordinates, negative bounds, tiny and huge widths
        Box(mu=np.array([0.25, -3.0, -1e-300, -7.5, 5.0]),
            nu=np.array([0.25, -2.0, 1e-300, -7.5, 1e300])),
        Box(mu=np.full(3, -2.0), nu=np.full(3, -2.0)),
    ]
    for k, box in enumerate(boxes):
        for size in (0, 1, 7, 1000):
            got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
            got = box.sample(got_rng, size)
            want = want_rng.uniform(box.mu, box.nu, size=(size, box.n))
            assert got.shape == want.shape == (size, box.n)
            assert got.tobytes() == want.tobytes()
            # the same draws were consumed, so the streams go on in step
            assert got_rng.random() == want_rng.random()
            assert all(box.contains(p) for p in got)


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

def test_condition_ids_are_stable(pair_net):
    assert CONDITION_IDS == (
        "incoming_influence_cap",
        "incoming_volatility_cap",
        "star_center_load",
        "homogeneous_susceptibility_cap",
        "democracy",
        "uniform_gain_cap",
    )
    with pytest.raises(ValueError, match="dominance"):
        check_condition(pair_net, "no_such_condition")


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


def test_condition_report_text_is_pinned(anchored_net, four_settings):
    assert str(check_condition(anchored_net, "incoming_influence_cap")) == (
        "incoming_influence_cap: HOLDS (margin 0.583333333333)\n"
        "  influence_in node 2: lhs 0.75 vs rhs 1.33333333333 -> margin 0.583333333333\n"
        "  influence_in node 3: lhs 0.666666666667 vs rhs 2.16666666667 -> margin 1.5")
    _, net_d, _ = four_settings[3]
    assert str(check_condition(net_d, "star_center_load")) == (
        "star_center_load: FAILS (margin -inf)\n"
        "  center_load node 1: lhs 6.33333333333 vs rhs 3.16666666667 -> margin -3.16666666667\n"
        "  center_row_weight node 4: lhs 1 vs rhs 0 -> margin -inf\n"
        "  stubborn_floor_used: 0.0416666666667\n"
        "  stubborn_floor_alternate: -0.0416666666667")
    assert str(check_dominance_necessary(anchored_net, ANCHORED_POWER_EQ, 0, 0.5)) == (
        "dominance(node=1, sigma=0.5): HOLDS (margin 0.0833333333333)\n"
        "  influence_in_required node 1: lhs 0.75 vs rhs 0.666666666667 -> margin 0.0833333333333\n"
        "  power_share node 1: 0.462131198464")


def test_per_node_rows_hold_the_evaluated_values():
    """Rows rebuilt from the stored table carry the evaluator's own floats,
    as plain Python floats and ints."""
    net = random_network(np.random.default_rng(8), 40, fully_stubborn_prob=0.3)
    part = list(net.partially_stubborn)
    load = incoming_influence_load(net)
    v = net.a / (1.0 - net.a)
    v = v / v.sum()
    expected = {
        "incoming_influence_cap": (part, load, net.a / (1.0 - net.a) + 2.0 * (net.n - 2) / net.n),
        "democracy": (list(range(net.n)), np.abs(net.C.T @ v - v),
                      np.full(net.n, analysis.DEMOCRACY_TOL)),
    }
    for cid, (nodes, lhs, rhs) in expected.items():
        report = check_condition(net, cid)
        rows = report.detail
        assert [row.node for row in rows] == nodes
        assert [(row.lhs, row.rhs, row.margin) for row in rows] == [
            (lhs[i], rhs[i], rhs[i] - lhs[i]) for i in nodes]
        assert all(type(row.node) is int and type(row.lhs) is float and type(row.margin) is float
                   for row in rows)
        assert report.margin == min(row.margin for row in rows)


def test_per_node_report_keeps_arrays_not_row_objects():
    n = 1000
    net = InfluenceNetwork(C=np.roll(np.eye(n), 1, axis=1),
                           a=np.random.default_rng(2).uniform(0.1, 0.9, n))
    report, kept, _ = traced(lambda: check_condition(net, "democracy"))
    assert len(report.detail) == n
    # one n-row table of (node, lhs, rhs), 24 bytes a row; a MarginRow per node took ~200
    assert kept < 40 * n


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


@pytest.mark.parametrize("node", [-1, -3, 3])
def test_dominance_node_range(anchored_net, node):
    # a negative index would evaluate a node counted from the end but label it
    # with its raw index
    with pytest.raises(ValueError, match=r"node must be in 0\.\.2"):
        check_dominance_necessary(anchored_net, ANCHORED_POWER_EQ, node, 0.5)


@pytest.mark.parametrize("timescale", ["Issue", "STEP", "steps", ""])
def test_conditions_accept_only_the_two_timescales(anchored_net, timescale):
    with pytest.raises(ValueError, match="unknown timescale"):
        check_condition(anchored_net, "uniform_gain_cap", timescale)


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
    assert report.p_star.base is None  # its own n entries, not a row of a start's path
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
        monkeypatch.setattr(fj_core, "STACK_ENTRIES", rows * anchored_net.n ** 2)
        chunked = solve_equilibrium(anchored_net, multistarts=20, seed=3)
        assert chunked.p_star.tobytes() == whole.p_star.tobytes()
        assert str(chunked) == str(whole)
        assert (chunked.residual, chunked.iterations) == (whole.residual, whole.iterations)


def test_an_equilibrium_search_builds_its_systems_a_chunk_at_a_time():
    """At n = 300 each of the 21 starts gets its own chunk, so one search holds
    about one 0.7 MB system at a time, not the 16 MB stack of all 21."""
    net = random_network(np.random.default_rng(5), 300)
    solve_equilibrium(net, multistarts=1)  # warm every lazy attribute of net
    _, _, peak = traced(lambda: solve_equilibrium(net, multistarts=20))
    assert peak < 2 << 20, peak


# ---------------------------------------------------------------------------
# uniqueness certificates
# ---------------------------------------------------------------------------

def _criterion5_nets() -> list:
    """Criterion 5's 100 networks, in its order, each with its search's seed."""
    rng = np.random.default_rng(5)
    return [(random_network(rng, int(rng.integers(2, 9))), k) for k in range(100)]


def _w_distance(net, p, q) -> float:
    return float(np.sum(np.abs(p - q) / (1.0 - net.a)))


@pytest.mark.parametrize("corpus", ["capped", "criterion5"])
def test_certified_boxes_nest_and_bound_every_search_limit(corpus, monkeypatch):
    """On test_convergence's 45 capped networks and criterion 5's 100: each
    box step stays inside the box before it; a network whose 21 starts
    disagree never certifies, and only criterion 5's networks 60, 69 and 97
    do not; a certified box holds the 21-start consensus, and the report's
    one start gives that consensus bit for bit, with a printed bound that
    covers its w-distance to every start's limit less that limit's own
    bound."""
    nets = ([(net, 0) for seed in (600, 601, 602) for net in _capped_nets(seed, 15)]
            if corpus == "capped" else _criterion5_nets())
    uncertified = []
    for k, (net, seed) in enumerate(nets):
        cert = analysis.certify_uniqueness(net)
        box = Box(np.zeros(net.n), np.ones(net.n))
        for steps in range(1, cert.steps + 1):  # X_steps, the box the cap stops at
            monkeypatch.setattr(analysis, "UNIQUENESS_STEPS", steps)
            inner = analysis.certify_uniqueness(net).box
            assert np.all(inner.mu >= box.mu) and np.all(inner.nu <= box.nu), (k, steps)
            box = inner
        monkeypatch.undo()
        assert (box.mu.tobytes(), box.nu.tobytes()) == (cert.box.mu.tobytes(), cert.box.nu.tobytes())
        eq = solve_equilibrium(net, multistarts=20, seed=seed)
        if eq.starts_agreeing < eq.total_starts:
            assert not cert.certified, k
        if not cert.certified:
            uncertified.append(k)
            continue
        assert Box(cert.box.mu - eq.residual, cert.box.nu + eq.residual).contains(eq.p_star), k
        report = analysis.equilibrium_report(net, seed=seed)
        assert report.certificate is not None, k
        assert report.p_star.tobytes() == eq.p_star.tobytes(), k
        assert (report.residual, report.iterations) == (eq.residual, eq.iterations), k
        bound = float(re.search(r"\|\|p - p\*\|\|_w <= (\S+);", str(report)).group(1))
        assert bound >= report.error_bound, k
        starts = np.vstack([np.full(net.n, 1.0 / net.n),
                            np.random.default_rng(seed).dirichlet(np.ones(net.n), size=20)])
        for traj in run_stack_to_convergence(lambda P: step_power_evolution(net, P), starts):
            q = traj.final
            if traj.converged and cert.box.contains(q):
                own = analysis._distance_bound(net, cert, q)
                assert _w_distance(net, report.p_star, q) <= bound + own, k
    assert uncertified == ([] if corpus == "capped" else [60, 69, 97])


def test_a_report_falls_back_to_the_search_where_its_one_start_proves_nothing(
        anchored_net, monkeypatch):
    """A limit outside the certified box, or a barycenter start out of budget
    where other starts converge, gives the 21-start search's report."""
    cert = analysis.certify_uniqueness(anchored_net)
    assert cert.certified
    assert analysis.equilibrium_report(anchored_net).certificate is not None
    # the barycenter takes 17 steps, three seed-0 starts 16
    short = analysis.equilibrium_report(anchored_net, max_iter=16)
    assert short.certificate is None
    assert str(short) == str(solve_equilibrium(anchored_net, max_iter=16))
    assert "3/21 starts agree (uniqueness evidence)" in str(short)
    with pytest.raises(NoConvergenceError):
        analysis.equilibrium_report(anchored_net, max_iter=15)
    far = Box(np.zeros(3), np.full(3, 0.01))  # excludes the equilibrium
    monkeypatch.setattr(analysis, "certify_uniqueness", lambda net: replace(cert, box=far))
    assert str(analysis.equilibrium_report(anchored_net)) == str(solve_equilibrium(anchored_net))


def test_the_certificate_starts_from_the_unit_cube_and_stops_below_one(anchored_net):
    """rho_0 is 3 max a on [0, 1]^n, and steps stop at the first rho below 1."""
    cert = analysis.certify_uniqueness(anchored_net)
    assert cert.rho[0] == pytest.approx(3.0 * 0.6)
    assert len(cert.rho) == cert.steps + 1
    assert all(r >= 1.0 for r in cert.rho[:-1]) and cert.rho[-1] < 1.0
    assert list(cert.rho) == sorted(cert.rho, reverse=True)
    small = InfluenceNetwork(C=anchored_net.C, a=np.array([0.0, 0.1, 0.3]))
    assert analysis.certify_uniqueness(small).steps == 0  # 3 * 0.3 < 1


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
    with pytest.raises(WrongTopologyError):
        star_equilibrium_closed_form(anchored_net)
    _, net_d, _ = four_settings[3]
    with pytest.raises(WrongTopologyError, match=r"node\(s\) 4"):
        star_equilibrium_closed_form(net_d)


def test_every_star_analysis_names_what_it_needs(anchored_net, four_settings):
    """A network without the structure a computation needs (a star, a center
    row, one shared susceptibility) makes it raise one error type whose text
    says what the computation needs and what it got."""
    shared = "homogeneous update needs one shared susceptibility; found values from 0.0 to 0.6"
    _, net_d, _ = four_settings[3]
    calls = [
        (lambda: star_invariant_box(anchored_net),
         "star box needs a star with partially stubborn center, got general"),
        (lambda: check_condition(anchored_net, "star_center_load"),
         "star_center_load applies to stars with partially stubborn center, got general"),
        (lambda: star_equilibrium_closed_form(anchored_net),
         "closed form needs a star topology, got general"),
        (lambda: star_equilibrium_closed_form(net_d),
         "center 1 accords weight to partially stubborn node(s) 4; "
         "the closed form needs those weights to be zero"),
        (lambda: step_pagerank_ra(anchored_net, np.full(3, 1 / 3)), shared),
        (lambda: build_local_views(anchored_net, "homogeneous"), shared),
        (lambda: check_condition(anchored_net, "homogeneous_susceptibility_cap"), shared),
    ]
    for call, text in calls:
        with pytest.raises(WrongTopologyError) as err:
            call()
        assert str(err.value) == text


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
    base = two_sided_box(anchored_net)
    box = Box(base.mu, base.nu * 2.0)
    report = one_step_invariance_test(anchored_net, box, 10_000, seed=0)
    assert not report.ok
    assert report.exit_count == 1148


def _full_array_trial(net, box, samples, seed=0):
    """The invariance trial as one pass over full (samples, n) arrays: one
    ``rng.uniform`` draw, one whole-array ``ra`` step, one exit mask."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(box.mu, box.nu, size=(samples, net.n))
    Q = _whole_array_step(net, P)
    exits = (Q < box.mu - analysis.EXIT_SLACK) | (Q > box.nu + analysis.EXIT_SLACK)
    return InvarianceReport(samples=samples, exit_count=int(np.count_nonzero(exits)))


def _whole_array_step(net, P):
    ra = analysis.RULES["ra"]
    return ra.update(net.a, None, P, net.n, ra.relay(net.a, None, P) @ net.C)


def _fields(report):
    return report.samples, report.exit_count


TRIAL_GRID = ((2, 1000), (3, 4097), (7, 1001), (40, 4000), (300, 701))  # (n, samples)


@pytest.mark.parametrize("block_entries", [None, 1, 7 * 40])
def test_streamed_trial_matches_the_full_array_trial(monkeypatch, block_entries):
    """The sample and exit counts are the full-array oracle's, whatever the
    block size: one row per block, ragged last blocks and the default."""
    if block_entries is not None:
        monkeypatch.setattr(perception, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(11)
    for n, samples in TRIAL_GRID:
        net = random_network(rng, n)
        base = two_sided_box(net)
        for k, box in enumerate((nonneg_box(net), base, Box(base.mu, base.nu * 1.5), Box(base.mu, base.nu * 2.0))):
            for count in (0, 1, samples):
                got = one_step_invariance_test(net, box, count, seed=n + k)
                want = _full_array_trial(net, box, count, seed=n + k)
                assert _fields(got) == _fields(want), (n, k, count)


@pytest.mark.parametrize("block_entries", [None, 1, 7 * 40])
def test_batched_step_is_the_whole_array_step_whatever_the_block_size(monkeypatch,
                                                                      block_entries):
    """The streamed kernel gives the bits of one whole-array ``ra`` step
    whatever the block size: one row per block, ragged last blocks and the default."""
    if block_entries is not None:
        monkeypatch.setattr(perception, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(11)
    blocked = 0
    for n, samples in TRIAL_GRID:
        net = random_network(rng, n)
        base = two_sided_box(net)
        P = Box(base.mu, base.nu * 2.0).sample(np.random.default_rng(n), samples)
        Q = analysis._batch_step_ra(net, P)
        assert Q.tobytes() == _whole_array_step(net, P).tobytes(), n
        blocked += samples > max(1, perception.BLOCK_ENTRIES // n)
    assert blocked  # some step ran over more than one block


def test_streamed_trial_rejects_a_box_of_another_size(anchored_net):
    with pytest.raises(ValueError, match="box has 2 coordinates"):
        one_step_invariance_test(anchored_net, Box(mu=np.zeros(2), nu=np.ones(2)), 10)


def test_streamed_trial_memory_stays_near_three_sample_arrays():
    """Draws, relays and the product's result are the only (samples, n) arrays;
    everything else lives in cache-sized blocks."""
    net = random_network(np.random.default_rng(5), 300)
    box = nonneg_box(net)
    samples = 10_000
    _, _, peak = traced(lambda: one_step_invariance_test(net, box, samples))
    assert peak < 3.2 * samples * net.n * 8


def test_streamed_trial_on_a_leaky_box_stays_near_three_sample_arrays():
    """The same memory bound on a box the exact image cannot clear, so the
    trial has to draw and step every sample."""
    net = random_network(np.random.default_rng(5), 300)
    base = two_sided_box(net)
    box = Box(base.mu, base.nu * 2.0)
    samples = 10_000
    report, _, peak = traced(lambda: one_step_invariance_test(net, box, samples))
    assert report.exit_count > 0
    assert peak < 3.2 * samples * net.n * 8


def test_certified_trial_allocates_no_sample_arrays():
    """A box whose exact image lies inside it is answered without drawing."""
    net = random_network(np.random.default_rng(5), 300)
    base = nonneg_box(net)
    box = Box(base.mu, base.nu * 2.0)
    report, _, peak = traced(lambda: one_step_invariance_test(net, box, 10_000))
    assert _fields(report) == (10_000, 0)
    assert peak < 1 << 20


def test_margin_shows_a_leak_that_no_sample_hit():
    """The exact image of this box leaves it by 0.051 at coordinate 33, where
    10⁴ samples find no exit; the margin reports the leak, the text does not."""
    net = random_network(np.random.default_rng(5), 300)
    box = nonneg_box(net)
    report = one_step_invariance_test(net, box, 10_000)
    assert report.exit_count == 0
    assert str(report) == "one-step invariance: no exits out of 10000 samples"
    assert report.margin == pytest.approx(-0.0512, abs=1e-4)
    lo, hi, _ = analysis.box_image(net, box)
    assert report.margin == np.min(np.minimum(box.nu - hi, lo - box.mu))
    assert int(np.argmin(box.nu - hi)) == 33
    # the certified path reports its margin too
    sealed = one_step_invariance_test(net, Box(box.mu, box.nu * 2.0), 10_000)
    assert 0.0 < sealed.margin < math.inf


def test_trial_rejects_a_negative_sample_count(anchored_net):
    with pytest.raises(ValueError, match="samples must be nonnegative, got -1"):
        one_step_invariance_test(anchored_net, nonneg_box(anchored_net), -1)


@pytest.fixture
def draws(monkeypatch):
    """One entry per ``Box.sample`` call since the list was last cleared."""
    sizes = []
    sample = analysis.Box.sample

    def counting(box, rng, size):
        sizes.append(size)
        return sample(box, rng, size)

    monkeypatch.setattr(analysis.Box, "sample", counting)
    return sizes


def _certified(net, box, samples, seed, draws):
    """The trial's report, and whether it came from the box image (no draws)."""
    draws.clear()
    report = one_step_invariance_test(net, box, samples, seed=seed)
    return report, not draws


def test_box_image_encloses_every_step_and_only_certifies_sealed_boxes(draws):
    """On random networks, each sampled point's batched step lies within
    ``err`` of the image bounds, the bounds are attained to rounding at the
    terms' extreme points, and the trial's report is the full-array oracle's
    whether or not the certificate fired.  The mirrored box puts the larger
    square at the lower bound."""
    relay = analysis.RULES["ra"].relay
    rng = np.random.default_rng(13)
    fired = leaked = 0
    for k in range(48):
        n = int(rng.integers(2, 61))
        net = random_network(rng, n)
        base = two_sided_box(net)
        mirrored = Box(-base.nu, -base.mu)
        for j, box in enumerate((nonneg_box(net), base, Box(base.mu, base.nu * 1.5), Box(base.mu, base.nu * 2.0),
                                 mirrored)):
            lo, hi, err = analysis.box_image(net, box)
            assert np.all(err > 0.0) and np.all(lo <= hi)
            Q = analysis._batch_step_ra(net, box.sample(np.random.default_rng(k), 2000))
            assert np.all(Q >= lo - err) and np.all(Q <= hi + err), (k, j)
            # coordinate i's bound is reached with p_i at the extreme of its square
            # and every other p_j at the extreme of its relay
            r_mu, r_nu = relay(net.a, None, box.mu), relay(net.a, None, box.nu)
            for own, others, bound in (
                (np.where(-box.mu > box.nu, box.mu, box.nu), np.clip(0.5, box.mu, box.nu), hi),
                (np.clip(0.0, box.mu, box.nu), np.where(r_mu <= r_nu, box.mu, box.nu), lo),
            ):
                P = np.tile(others, (n, 1))
                np.fill_diagonal(P, own)
                reached = np.diagonal(analysis._batch_step_ra(net, P))
                np.testing.assert_allclose(reached, bound, rtol=1e-12, atol=1e-12)
            got, certified = _certified(net, box, 2000, k, draws)
            want = _full_array_trial(net, box, 2000, seed=k)
            assert _fields(got) == _fields(want), (k, j)
            if certified:
                assert want.exit_count == 0, (k, j)
                assert got.margin >= -analysis.EXIT_SLACK, (k, j)
            fired += certified
            leaked += want.exit_count > 0
    # both paths ran
    assert fired and leaked


def test_certificate_clears_the_conditioned_boxes_and_no_inflated_control(draws):
    """Criterion 6's networks, drawn in its order: the exact image proves both
    constructed boxes invariant on every network and clears no control box."""
    rng = np.random.default_rng(0)
    counts = [0, 0, 0]
    for k in range(20):
        net = _conditioned_net(rng, require_volatility_cap=False)
        counts[0] += _certified(net, nonneg_box(net), 1000, k, draws)[1]
        net = _conditioned_net(rng, require_volatility_cap=True)
        box = two_sided_box(net)
        counts[1] += _certified(net, box, 1000, 500 + k, draws)[1]
        counts[2] += _certified(net, Box(box.mu, box.nu * 2.0), 1000, 700 + k, draws)[1]
    assert counts == [20, 20, 0]


def test_tight_star_box_is_not_invariant_under_the_heavy_load(four_settings):
    """The wheel-like star's load sits beyond the center cap, and the tight
    box leaks: a corner state steps out through the center coordinate."""
    _, net_a, _ = four_settings[0]
    box = star_invariant_box(net_a)
    corner = np.array([2.5, 0.3125, 0.5, 0.5])
    assert box.contains(corner)
    stepped = step_perception_ra(net_a, corner)
    assert stepped[0] == pytest.approx(2.716666666666667, abs=1e-12)
    assert not Box(box.mu - 1e-9, box.nu + 1e-9).contains(stepped)
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


def test_contraction_diagnostic_cross_checks_finite_differences(anchored_net, monkeypatch):
    contraction_diagnostic(anchored_net, np.array([0.2, -0.4, 1.3]))  # no raise
    monkeypatch.setattr(analysis, "FD_RTOL", 1e-14)
    with pytest.raises(FJPowerError, match="mismatch"):
        contraction_diagnostic(anchored_net, np.array([0.2, -0.4, 1.3]))


def test_the_contraction_norm_is_one_at_the_corners_of_the_two_sided_box():
    """The column sums a_j (2|p_j| + |1 - 2p_j|) equal 1 at both corners of
    ``two_sided_box``, so criterion 8's "< 1" holds on the open box only: it
    passes because 200 samples per box never land on the boundary."""
    rng = np.random.default_rng(9)
    for _ in range(50):  # criterion 8's family: both incoming caps hold
        net = _conditioned_net(rng, require_volatility_cap=True)
        box = two_sided_box(net)
        for corner in (box.mu, box.nu):
            norm = contraction_diagnostic(net, corner, verify_fd=False)
            assert abs(norm - 1.0) <= 8 * np.finfo(float).eps, norm


@pytest.mark.parametrize("block_entries", [
    pytest.param(None, id="default"), pytest.param(1, id="block1"), pytest.param(100, id="block100"),
])
def test_blocked_jacobian_check_gives_the_same_verdicts(anchored_net, monkeypatch, block_entries):
    """The finite-difference check steps blocks of ``BLOCK_ENTRIES // n``
    coordinates (one per block, ragged blocks of 2 at n = 45, or one block);
    the value, the passes and the raises are those of the whole-matrix check."""
    if block_entries is not None:
        monkeypatch.setattr(perception, "BLOCK_ENTRIES", block_entries)
    p = np.array([0.2, -0.4, 1.3])
    assert contraction_diagnostic(anchored_net, p) == contraction_diagnostic(
        anchored_net, p, verify_fd=False)
    net = random_network(np.random.default_rng(3), 45)
    q = np.random.default_rng(4).uniform(-0.5, 1.5, size=45)
    assert contraction_diagnostic(net, q) == contraction_diagnostic(net, q, verify_fd=False)
    # a wrong derivative in the first or the last column is caught in its block
    jacobian = analysis.perception_jacobian
    for col in (0, 44):
        def skewed(net, p, col=col):
            J = jacobian(net, p)
            J[7, col] += 1e-3
            return J
        with monkeypatch.context() as mp:
            mp.setattr(analysis, "perception_jacobian", skewed)
            with pytest.raises(FJPowerError, match="mismatch"):
                contraction_diagnostic(net, q)
    monkeypatch.setattr(analysis, "FD_RTOL", 1e-14)
    with pytest.raises(FJPowerError, match="mismatch"):
        contraction_diagnostic(anchored_net, p)


def test_the_jacobian_check_allocates_no_bumped_square():
    """At n = 300 the check holds J and cache-sized blocks, not the 5 MB of
    n × n bumps, stepped points and differences."""
    net = random_network(np.random.default_rng(5), 300)
    p = solve_equilibrium(net, multistarts=0).p_star
    contraction_diagnostic(net, p)  # warm every lazy attribute of net
    _, _, peak = traced(lambda: contraction_diagnostic(net, p))
    assert peak < 3 << 20, peak


# ---------------------------------------------------------------------------
# star monotonicity
# ---------------------------------------------------------------------------

def _leaf_directions(net, p0, band=1e-10):
    """Run a fully-stubborn-center star from ``p0`` and check every partially
    stubborn leaf's approach to its closed form: its gap shrinks strictly at
    every step without changing sign until it is within ``band``, and then
    stays there.  Returns each leaf's side as "down", "up" or "constant"."""
    target = star_equilibrium_closed_form(net)
    traj = run_to_convergence(lambda v: step_perception_ra(net, v), p0)
    assert traj.converged
    directions = {}
    for j in net.partially_stubborn:
        gap = traj.path[:, j] - target[j]
        inside = np.abs(gap) <= band
        k = int(np.argmax(inside)) if inside.any() else len(gap)
        assert np.all(np.diff(np.abs(gap[:k + 1])) < 0), j
        assert np.all(np.sign(gap[:k]) == np.sign(gap[0])), j
        assert np.all(inside[k:]), j
        directions[int(j)] = "constant" if k == 0 else ("down" if gap[0] > 0 else "up")
    return directions


def test_monotone_approach_from_above(star3_net):
    assert _leaf_directions(star3_net, np.array([0.3, 0.4, 0.5])) == {1: "down", 2: "down"}


def test_monotone_approach_from_below(star3_net):
    assert _leaf_directions(star3_net, np.array([0.8, 0.2, 0.0])) == {1: "up", 2: "up"}


def test_a_leaf_starting_at_its_limit_is_constant(star3_net):
    """A leaf relays only its own estimate's terms, so from its closed-form
    value it stays there; the other leaf still has a side."""
    p0 = np.array([0.3, star_equilibrium_closed_form(star3_net)[1], 0.5])
    assert _leaf_directions(star3_net, p0) == {1: "constant", 2: "down"}


def test_star_leaves_approach_their_limits_monotonically():
    """A fully stubborn center relays nothing, so each partially stubborn leaf
    follows p' = (1-a)/n + a p²: from any start in [0, 1] it approaches its
    closed form from one side.  One start per network puts a leaf at its limit."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        net = random_star_network(rng, int(rng.integers(2, 9)), center_fully_stubborn=True)
        for p0 in rng.uniform(size=(3, net.n)):
            _leaf_directions(net, p0)
        leaf = int(net.partially_stubborn[0])
        p0[leaf] = star_equilibrium_closed_form(net)[leaf]
        assert _leaf_directions(net, p0)[leaf] == "constant", seed
