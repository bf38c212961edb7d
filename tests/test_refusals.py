"""Every library call fjpower refuses, one row each, with its one message."""
import re
from operator import setitem
from types import SimpleNamespace

import numpy as np
import pytest

from fjpower import (
    CONVERGED,
    Box,
    InfluenceNetwork,
    NoConvergenceError,
    SingularSystemError,
    Trajectory,
    ViewViolationError,
    WrongTopologyError,
    build_local_views,
    check_condition,
    check_dominance_necessary,
    compute_social_power,
    contraction_diagnostic,
    enumerate_stubborn_cycles,
    final_opinions,
    influence_matrix,
    influence_resolvent,
    make_agents,
    nonneg_box,
    one_step_invariance_test,
    perception_jacobian,
    resolvent_diag_from_cycles,
    run_distributed,
    run_stack_to_convergence,
    run_to_convergence,
    solve_equilibrium,
    star_equilibrium_closed_form,
    star_invariant_box,
    step_fj_opinions,
    step_pagerank_ra,
    step_perception_no_ra,
    step_perception_ra,
    step_power_evolution,
    step_power_evolution_single,
)
from fjpower import analysis, perception
from fjpower.perception import local_step

from conftest import carrier
from test_fj_core import ANCHORED_POWER_EQ


@pytest.fixture
def nets(triad_net, triad_gamma, pair_net, anchored_net, star3_net, four_settings):
    """The conftest networks a row's call takes, by name; ``wheel_d`` is the
    last of ``four_settings``, whose center accords weight to a partially
    stubborn node."""
    return SimpleNamespace(triad=triad_net, triad_gamma=triad_gamma, pair=pair_net,
                           anchored=anchored_net, star3=star3_net, wheel_d=four_settings[3][1])


ONE = np.array([0.3])  # numpy would stretch a one-entry vector over every node
THIRD = np.full(3, 1 / 3)
UNIT = Box(np.zeros(3), np.ones(3))
WIDE = Box(mu=np.array([0.0, -1e308]), nu=np.array([1.0, 1e308]))
# self-weight vectors of a three-node network's wrong shape, by id
GAMMAS = (("5", np.array([0.2, 0.3, 0.4, 0.9, 0.9])), ("2", np.full(2, 0.5)),
          ("3x1", np.full((3, 1), 0.5)))
PAIR = [0.5, 0.5]
# what no argument may hold where a number belongs, by id: the entry and the
# words after its name and place; numpy would read None as NaN and True as 1.0
HOSTILE = (("none", None, "= None is not a number"), ("boolean", True, "= True is not a number"),
           ("text", "0.5", "= '0.5' is not a number"), ("list", [0.5], "must be a number, got [0.5]"),
           ("huge", 10 ** 400, "= 100000000000000000...0000000000000000000 is too large for a float"))
# every argument of the exported functions that takes numbers, by id: the call
# on the pair network with ``v``, 0.5 and then a hostile entry, in its place,
# and the name and place of that entry
READERS = {
    "power_gamma": (lambda pair, v: compute_social_power(pair, v), "gamma[2]"),
    "opinions_gamma": (lambda pair, v: final_opinions(pair, v, PAIR), "gamma[2]"),
    "opinions_y0": (lambda pair, v: final_opinions(pair, PAIR, v), "y0[2]"),
    "fj_step_gamma": (lambda pair, v: step_fj_opinions(pair, v, PAIR, PAIR), "gamma[2]"),
    "fj_step_y": (lambda pair, v: step_fj_opinions(pair, PAIR, v, PAIR), "y[2]"),
    "fj_step_y0": (lambda pair, v: step_fj_opinions(pair, PAIR, PAIR, v), "y0[2]"),
    "power_step_x": (lambda pair, v: step_power_evolution(pair, v), "x[2]"),
    "single_V": (lambda pair, v: step_power_evolution_single(pair, [[1.0, 0.0], v], PAIR),
                 "V[2,2]"),
    "single_x": (lambda pair, v: step_power_evolution_single(pair, np.eye(2), v), "x[2]"),
    "resolvent_x": (lambda pair, v: influence_resolvent(pair, v), "x[2]"),
    "cycle_resolvent_x": (lambda pair, v: resolvent_diag_from_cycles(pair, 0, v), "x[2]"),
    "influence_weights": (lambda pair, v: influence_matrix(pair.C, v), "weights[2]"),
    "influence_C": (lambda pair, v: influence_matrix([[0.0, 1.0], v], PAIR), "C[2,2]"),
    "no_ra_gamma": (lambda pair, v: step_perception_no_ra(pair, v, PAIR), "gamma[2]"),
    "no_ra_p": (lambda pair, v: step_perception_no_ra(pair, PAIR, v), "p[2]"),
    "ra_p": (lambda pair, v: step_perception_ra(pair, v), "p[2]"),
    "pagerank_p": (lambda pair, v: step_pagerank_ra(pair, v), "p[2]"),
    "run_p0": (lambda pair, v: run_to_convergence(lambda p: p, v), "p0[2]"),
    "stack_starts": (lambda pair, v: run_stack_to_convergence(lambda P: P, [PAIR, v]),
                     "starts[2,2]"),
    "trajectory_path": (lambda pair, v: Trajectory(path=[v], status=CONVERGED), "path[1,2]"),
    "views_gamma": (lambda pair, v: build_local_views(pair, "no_ra", v), "gamma[2]"),
    "jacobian_p": (lambda pair, v: perception_jacobian(pair, v), "p[2]"),
    "contraction_p": (lambda pair, v: contraction_diagnostic(pair, v), "p[2]"),
    "dominance_p_star": (lambda pair, v: check_dominance_necessary(pair, v, 0, 0.5), "p_star[2]"),
    "box_mu": (lambda pair, v: Box(v, [1.0, 1.0]), "mu[2]"),
    "box_nu": (lambda pair, v: Box(PAIR, v), "nu[2]"),
    "contains_point": (lambda pair, v: Box(np.zeros(2), np.ones(2)).contains(v), "point[2]"),
    "agents_p0": (lambda pair, v: make_agents(pair, "ra", v), "p0[2]"),
    "agents_gamma": (lambda pair, v: make_agents(pair, "no_ra", PAIR, v), "gamma[2]"),
    "distributed_p0": (lambda pair, v: run_distributed(pair, "ra", v), "p0[2]"),
    "distributed_gamma": (lambda pair, v: run_distributed(pair, "no_ra", PAIR, v), "gamma[2]"),
}
READ_ONLY = re.compile("assignment destination is read-only")  # numpy's words
SINGULAR = re.compile("Singular matrix")  # numpy's words, kept by SingularSystemError
MIXED_A = "homogeneous update needs one shared susceptibility; found values from 0.0 to 0.6"

# Each library call fjpower refuses, by id: the call on the conftest networks,
# the exception that refuses it (its exact type) and that exception's text, a
# re.fullmatch pattern only where numpy words it.
REFUSED = {
    # network: the constructor raises the validation report
    "network_row_sum": (
        lambda nets: InfluenceNetwork(C=[[0.0, 0.99], [1.0, 0.0]], a=[0.3, 0.2]),
        ValueError, "invalid network: row_stochastic: row 1 of C sums to 0.99, not 1 within 1e-12"),
    "network_nan_C": (
        lambda nets: InfluenceNetwork(C=[[0.0, 0.5, np.nan], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]],
                                      a=[0.3, 0.2, 0.1]),
        ValueError, "invalid network: finite: C[1,3] = nan is not finite"),
    "network_subnormal_a": (
        lambda nets: InfluenceNetwork(C=[[0.0, 1.0], [1.0, 0.0]], a=[1e-320, 0.5]),
        ValueError, "invalid network: susceptibility_range: a[1] = 1e-320 is subnormal: "
                    "a positive a_i must be at least 2.2250738585072014e-308"),
    "network_ragged_C": (
        lambda nets: InfluenceNetwork(C=[[0.0, 1.0], [1.0]], a=[0.5, 0.5]),
        ValueError, "invalid network: shape: C[2] must be a row of 2 numbers, got [1.0]"),
    "network_nested_a": (
        lambda nets: InfluenceNetwork(C=[[0.0, 1.0], [1.0, 0.0]], a=[0.5, [0.5]]),
        ValueError, "invalid network: shape: a[2] must be a number, got [0.5]"),
    "network_huge_C": (
        lambda nets: InfluenceNetwork(C=[[0, 10 ** 400], [1, 0]], a=[0.5, 0.5]),
        ValueError, "invalid network: finite: C[1,2] = 100000000000000000...0000000000000000000 "
                    "is too large for a float"),
    "frozen_C": (lambda nets: setitem(nets.anchored.C, (0, 1), 0.5), ValueError, READ_ONLY),
    "frozen_a": (lambda nets: setitem(nets.anchored.a, 0, 0.5), ValueError, READ_ONLY),
    "frozen_adjacency": (lambda nets: setitem(nets.anchored.adjacency.weights, 0, 1.0),
                         ValueError, READ_ONLY),
    "cycle_anchor_past_the_last_node": (lambda nets: enumerate_stubborn_cycles(nets.pair, 2),
                                        IndexError, "anchor 2 out of range for n=2"),
    # fj_core: a singular system
    "opinions_singular": (
        lambda nets: final_opinions(carrier([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]), np.ones(2),
                                    np.zeros(2)),
        SingularSystemError, SINGULAR),
    # self-weights (2, 1) give I - W^T A = [[0, 0], [0.5, 0.5]]
    "power_singular": (lambda nets: compute_social_power(nets.pair, np.array([2.0, 1.0])),
                       SingularSystemError, SINGULAR),
    "power_stack_singular": (
        lambda nets: run_stack_to_convergence(lambda X: step_power_evolution(nets.pair, X),
                                              np.array([[0.5, 0.5], [2.0, 1.0]])),
        SingularSystemError, SINGULAR),
    # fj_core: a 1-D V broadcast into a (3, 3) state whose x summed to 1.667,
    # and a stack of x came back as (3, 3, 3) arrays
    "single_V_vector": (lambda nets: step_power_evolution_single(nets.anchored, np.ones(3), THIRD),
                        ValueError, "V must have shape (3, 3), got (3,)"),
    "single_V_rows": (lambda nets: step_power_evolution_single(nets.anchored, np.eye(3)[:2], THIRD),
                      ValueError, "V must have shape (3, 3), got (2, 3)"),
    "single_x_square": (
        lambda nets: step_power_evolution_single(nets.anchored, np.eye(3), np.full((3, 3), 0.3)),
        ValueError, "x must have shape (3,), got (3, 3)"),
    "single_x_stack": (
        lambda nets: step_power_evolution_single(nets.anchored, np.eye(3), np.full((2, 3), 0.3)),
        ValueError, "x must have shape (3,), got (2, 3)"),
    # fj_core and analysis: every per-node vector must hold n entries
    "single_one_x": (lambda nets: step_power_evolution_single(nets.anchored, np.eye(3), ONE),
                     ValueError, "x must have shape (3,), got (1,)"),
    "power_one_gamma": (lambda nets: compute_social_power(nets.anchored, ONE),
                        ValueError, "gamma must have 3 entries on their last axis, got shape (1,)"),
    "opinions_one_gamma": (lambda nets: final_opinions(nets.anchored, ONE, THIRD), ValueError,
                           "gamma must have 3 entries on their last axis, got shape (1,)"),
    "opinions_one_y0": (lambda nets: final_opinions(nets.anchored, THIRD, ONE),
                        ValueError, "y0 must have shape (3,), got (1,)"),
    "fj_step_one_y": (lambda nets: step_fj_opinions(nets.anchored, THIRD, ONE, THIRD),
                      ValueError, "y must have shape (3,), got (1,)"),
    "fj_step_one_y0": (lambda nets: step_fj_opinions(nets.anchored, THIRD, THIRD, ONE),
                       ValueError, "y0 must have shape (3,), got (1,)"),
    "power_step_one_x": (lambda nets: step_power_evolution(nets.anchored, ONE),
                         ValueError, "x must have 3 entries on their last axis, got shape (1,)"),
    "resolvent_one_x": (lambda nets: influence_resolvent(nets.anchored, ONE),
                        ValueError, "x must have 3 entries on their last axis, got shape (1,)"),
    "cycle_resolvent_one_x": (lambda nets: resolvent_diag_from_cycles(nets.anchored, 0, ONE),
                              ValueError,
                              "x must have 3 entries on their last axis, got shape (1,)"),
    "influence_one_weight": (lambda nets: influence_matrix(nets.anchored.C, ONE), ValueError,
                             "weights must have 3 entries on their last axis, got shape (1,)"),
    "influence_stack_of_one_weight": (
        lambda nets: influence_matrix(nets.anchored.C, np.full((2, 1), 0.3)),
        ValueError, "weights must have 3 entries on their last axis, got shape (2, 1)"),
    "contraction_one_p": (lambda nets: contraction_diagnostic(nets.anchored, ONE),
                          ValueError, "p must have shape (3,), got (1,)"),
    "dominance_one_p_star": (lambda nets: check_dominance_necessary(nets.anchored, ONE, 0, 0.5),
                             ValueError, "p_star must have shape (3,), got (1,)"),
    # analysis: boxes; NaN passes the mu <= nu test, so it has its own check
    "box_inverted": (lambda nets: Box(mu=[0.0, 1.0], nu=[1.0, 0.5]),
                     ValueError, "lower bound exceeds upper at coordinate 2"),
    "box_nan_mu": (lambda nets: Box(mu=[np.nan, 0.0], nu=[1.0, 1.0]),
                   ValueError, "a bound is NaN at coordinate 1"),
    "box_nan_nu": (lambda nets: Box(mu=[0.0, 0.0], nu=[1.0, np.nan]),
                   ValueError, "a bound is NaN at coordinate 2"),
    "box_unequal_lengths": (lambda nets: Box([0.0, 0.0], [1.0]),
                            ValueError, "bounds must be equal-length vectors, got (2,) and (1,)"),
    **{f"contains_{case}": (lambda nets, point=point: UNIT.contains(point),
                            ValueError, f"point must have shape (3,), got {np.shape(point)}")
       for case, point in (("one_entry", [0.3]), ("two_entries", [0.3, 0.3]),
                           ("stack", np.full((2, 3), 0.3)), ("scalar", 0.3))},
    "sample_infinite": (lambda nets: Box(mu=[0.0], nu=[np.inf]).sample(np.random.default_rng(0), 4),
                        ValueError, "cannot sample a box with infinite bounds"),
    "sample_too_wide": (lambda nets: WIDE.sample(np.random.default_rng(0), 4),
                        OverflowError, "cannot sample a box whose width exceeds the float range"),
    "trial_infinite_box": (
        lambda nets: one_step_invariance_test(nets.pair, Box(mu=[0.0, 0.0], nu=[1.0, np.inf]), 4),
        ValueError, "cannot sample a box with infinite bounds"),
    "trial_too_wide_box": (lambda nets: one_step_invariance_test(nets.pair, WIDE, 4), OverflowError,
                           "cannot sample a box whose width exceeds the float range"),
    "trial_box_size": (
        lambda nets: one_step_invariance_test(nets.anchored, Box(np.zeros(2), np.ones(2)), 10),
        ValueError, "box has 2 coordinates, the network 3 nodes"),
    "trial_negative_samples": (
        lambda nets: one_step_invariance_test(nets.anchored, nonneg_box(nets.anchored), -1),
        ValueError, "samples must be nonnegative, got -1"),
    **{f"trial_samples_{case}": (
        lambda nets, samples=samples: one_step_invariance_test(nets.pair, nonneg_box(nets.pair),
                                                               samples),
        ValueError, f"samples must be a whole number, got {samples!r}")
       for case, samples in (("fractional", 2.5), ("none", None))},
    # analysis and perception: a network without the structure a computation
    # needs raises one error type, saying what it needs and what it got
    "star_box_general": (lambda nets: star_invariant_box(nets.anchored), WrongTopologyError,
                         "star box needs a star with partially stubborn center, got general"),
    "star_box_full_center": (lambda nets: star_invariant_box(nets.star3), WrongTopologyError,
                             "star box needs a star with partially stubborn center, "
                             "got star_fully_stubborn_center(1)"),
    "star_center_load_general": (
        lambda nets: check_condition(nets.anchored, "star_center_load"), WrongTopologyError,
        "star_center_load applies to stars with partially stubborn center, got general"),
    "star_center_load_full_center": (
        lambda nets: check_condition(nets.star3, "star_center_load"), WrongTopologyError,
        "star_center_load applies to stars with partially stubborn center, "
        "got star_fully_stubborn_center(1)"),
    "closed_form_general": (lambda nets: star_equilibrium_closed_form(nets.anchored),
                            WrongTopologyError, "closed form needs a star topology, got general"),
    "closed_form_center_row": (
        lambda nets: star_equilibrium_closed_form(nets.wheel_d), WrongTopologyError,
        "center 1 accords weight to partially stubborn node(s) 4; "
        "the closed form needs those weights to be zero"),
    "homogeneous_cap_mixed_a": (
        lambda nets: check_condition(nets.anchored, "homogeneous_susceptibility_cap"),
        WrongTopologyError, MIXED_A),
    "pagerank_mixed_a": (lambda nets: step_pagerank_ra(nets.anchored, THIRD),
                         WrongTopologyError, MIXED_A),
    "views_homogeneous_mixed_a": (lambda nets: build_local_views(nets.anchored, "homogeneous"),
                                  WrongTopologyError, MIXED_A),
    "agents_homogeneous_mixed_a": (lambda nets: make_agents(nets.anchored, "homogeneous", THIRD),
                                   WrongTopologyError, MIXED_A),
    # analysis: conditions and equilibria; a negative node index would
    # evaluate a node counted from the end but label it with its raw index
    "condition_unknown": (
        lambda nets: check_condition(nets.pair, "no_such_condition"), ValueError,
        "unknown condition 'no_such_condition'; expected one of incoming_influence_cap, "
        "incoming_volatility_cap, star_center_load, homogeneous_susceptibility_cap, democracy, "
        "uniform_gain_cap (dominance has its own entry point: check_dominance_necessary)"),
    **{f"timescale_{timescale or 'empty'}": (
        lambda nets, timescale=timescale: check_condition(nets.anchored, "uniform_gain_cap",
                                                          timescale),
        ValueError, f"unknown timescale '{timescale}'; expected 'issue' or 'step'")
       for timescale in ("Issue", "STEP", "steps", "")},
    **{f"dominance_sigma_{sigma}": (
        lambda nets, sigma=sigma: check_dominance_necessary(nets.anchored, ANCHORED_POWER_EQ, 0,
                                                            sigma),
        ValueError, f"sigma must be in [1/2, 1), got {sigma}") for sigma in (0.4, 1.0)},
    **{f"dominance_node_{node}": (
        lambda nets, node=node: check_dominance_necessary(nets.anchored, ANCHORED_POWER_EQ, node,
                                                          0.5),
        ValueError, f"node must be in 0..2, got {node}") for node in (-1, -3, 3)},
    "multistarts_negative": (lambda nets: solve_equilibrium(nets.anchored, multistarts=-3),
                             ValueError, "multistarts must be nonnegative, got -3"),
    "multistarts_fractional": (lambda nets: solve_equilibrium(nets.pair, multistarts=2.5),
                               ValueError, "multistarts must be a whole number, got 2.5"),
    "equilibrium_budget": (
        lambda nets: solve_equilibrium(nets.anchored, multistarts=2, max_iter=1),
        NoConvergenceError, "no start converged within 1 iterations at tol 1e-12"),
    # the barycenter takes 17 steps, three seed-0 starts 16
    "equilibrium_report_budget": (
        lambda nets: analysis.equilibrium_report(nets.anchored, max_iter=15),
        NoConvergenceError, "no start converged within 15 iterations at tol 1e-12"),
    # perception: the stop-rule loop, which fails at the first step, not
    # after broadcast steps, and the steppers
    "run_tol_zero": (lambda nets: run_to_convergence(lambda p: p, np.zeros(2), tol=0.0),
                     ValueError, "tol must be positive, got 0.0"),
    "run_tol_nan": (lambda nets: run_to_convergence(lambda p: p, np.zeros(2), tol=np.nan),
                    ValueError, "tol must be positive, got nan"),
    "run_tol_none": (lambda nets: run_to_convergence(lambda p: p, np.zeros(2), tol=None),
                     ValueError, "tol must be positive, got None"),
    "run_max_iter_fractional": (
        lambda nets: run_to_convergence(lambda p: p, np.zeros(2), max_iter=2.5),
        ValueError, "max_iter must be a whole number, got 2.5"),
    "run_max_iter_zero": (lambda nets: run_to_convergence(lambda p: p, np.zeros(2), max_iter=0),
                          ValueError, "max_iter must be at least 1, got 0"),
    "run_p0_2d": (lambda nets: run_to_convergence(lambda p: p, np.zeros((2, 2))),
                  ValueError, "p0 must be 1-D (nodes), got shape (2, 2)"),
    "run_one_entry_start": (
        lambda nets: run_to_convergence(lambda q: step_perception_ra(nets.anchored, q), ONE),
        ValueError, "p must have shape (3,), got (1,)"),
    "stack_1d": (lambda nets: run_stack_to_convergence(lambda P: P * P, np.zeros(3)),
                 ValueError, "starts must be 2-D (starts x nodes), got shape (3,)"),
    "no_ra_one_gamma": (lambda nets: step_perception_no_ra(nets.anchored, ONE, THIRD),
                        ValueError, "gamma must have shape (3,), got (1,)"),
    "no_ra_short_p": (lambda nets: step_perception_no_ra(nets.anchored, THIRD, np.full(2, 0.5)),
                      ValueError, "p must have shape (3,), got (2,)"),
    "ra_short_p": (lambda nets: step_perception_ra(nets.anchored, np.full(2, 0.5)),
                   ValueError, "p must have shape (3,), got (2,)"),
    "trajectory_1d": (lambda nets: Trajectory(path=np.zeros(3), status=CONVERGED),
                      ValueError, "path must be 2-D (states x nodes), got shape (3,)"),
    "trajectory_frozen": (
        lambda nets: setitem(Trajectory(path=np.zeros((2, 2)), status=CONVERGED).path, (0, 0), 9.0),
        ValueError, READ_ONLY),
    # perception: per-node views; one without the self-weight its rule reads
    # would end its first local_step in a TypeError
    "views_unknown_mode": (lambda nets: build_local_views(nets.anchored, "bogus"), ValueError,
                           "unknown mode 'bogus'; expected one of ['homogeneous', 'no_ra', 'ra']"),
    "views_no_ra_without_gamma": (lambda nets: build_local_views(nets.anchored, "no_ra"),
                                  ValueError, "no_ra mode needs a self-weight vector gamma"),
    "views_ra_with_gamma": (lambda nets: build_local_views(nets.anchored, "ra", nets.triad_gamma),
                            ValueError, "ra mode takes no gamma"),
    **{f"views_gamma_{shape}": (
        lambda nets, gamma=gamma: build_local_views(nets.anchored, "no_ra", gamma),
        ValueError, f"gamma must have shape (3,), got {gamma.shape}") for shape, gamma in GAMMAS},
    "view_without_its_gamma": (
        lambda nets: perception.LocalView(rule=perception.RULES["no_ra"], node=0, n=2, a=0.5,
                                          gamma=None, in_edges=((1, 0.5, 1.0, None),)),
        ValueError, "node 1's view needs its self-weight gamma under its rule"),
    "view_with_a_stray_gamma": (
        lambda nets: perception.LocalView(rule=perception.RULES["ra"], node=1, n=2, a=0.5,
                                          gamma=0.3, in_edges=()),
        ValueError, "node 2's view takes no gamma under its rule"),
    "local_step_missing_sender": (
        lambda nets: local_step(build_local_views(nets.anchored, "ra")[1], 0.3, {0: 0.1}),
        ViewViolationError, "node 2 inbox mismatch: unexpected senders [], missing senders [3]"),
    "local_step_unexpected_sender": (
        lambda nets: local_step(build_local_views(nets.anchored, "ra")[1], 0.3,
                                {0: 0.1, 1: 0.4, 2: 0.2}),
        ViewViolationError, "node 2 inbox mismatch: unexpected senders [2], missing senders []"),
    # simkit: agents and distributed runs; the centralized twin raises on a
    # start of the wrong length too, and agents must not truncate or overrun
    "agents_unknown_mode": (lambda nets: make_agents(nets.triad, "bogus", THIRD), ValueError,
                            "unknown mode 'bogus'; expected one of ['homogeneous', 'no_ra', 'ra']"),
    "agents_no_ra_without_gamma": (lambda nets: make_agents(nets.triad, "no_ra", THIRD),
                                   ValueError, "no_ra mode needs a self-weight vector gamma"),
    "agents_ra_with_gamma": (
        lambda nets: make_agents(nets.anchored, "ra", THIRD, gamma=nets.triad_gamma),
        ValueError, "ra mode takes no gamma"),
    **{f"agents_p0_{k}": (lambda nets, k=k: make_agents(nets.anchored, "ra", np.full(k, 0.2)),
                          ValueError, f"p0 must have shape (3,), got ({k},)") for k in (5, 2)},
    **{f"distributed_p0_{k}": (
        lambda nets, k=k: run_distributed(nets.anchored, "ra", np.full(k, 0.2)),
        ValueError, f"p0 must have shape (3,), got ({k},)") for k in (5, 2)},
    "distributed_tol_zero": (lambda nets: run_distributed(nets.anchored, "ra", THIRD, tol=0.0),
                             ValueError, "tol must be positive, got 0.0"),
    "distributed_max_iter_zero": (
        lambda nets: run_distributed(nets.anchored, "ra", THIRD, max_iter=0),
        ValueError, "max_iter must be at least 1, got 0"),
    **{f"distributed_gamma_{shape}": (
        lambda nets, gamma=gamma: run_distributed(nets.anchored, "no_ra", THIRD, gamma=gamma),
        ValueError, f"gamma must have shape (3,), got {gamma.shape}") for shape, gamma in GAMMAS},
    # every argument that takes numbers: each hostile entry is named where it stands
    **{f"{arg}_{case}": (lambda nets, call=call, entry=entry: call(nets.pair, [0.5, entry]),
                         ValueError, f"{place} {words}")
       for arg, (call, place) in READERS.items() for case, entry, words in HOSTILE},
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_refused_call_raises_its_one_message(nets, case):
    call, kind, message = REFUSED[case]
    with pytest.raises(Exception) as err:
        call(nets)
    assert type(err.value) is kind
    if isinstance(message, re.Pattern):
        assert message.fullmatch(str(err.value)), str(err.value)
    else:
        assert str(err.value) == message
