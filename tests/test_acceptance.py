"""Acceptance gate: one test per shipped guarantee, seeded and tolerance-pinned.

Every test prints a detail line (shown on failure) and the session summary
prints one PASS/FAIL row per criterion.
"""
import time

import numpy as np
import pytest

from fjpower import (
    CONVERGED,
    DIVERGED,
    InfluenceNetwork,
    check_condition,
    check_dominance_necessary,
    compute_social_power,
    contraction_diagnostic,
    influence_resolvent,
    load_scenario,
    nonneg_box,
    one_step_invariance_test,
    resolvent_diag_from_cycles,
    run_batch,
    run_distributed,
    run_to_convergence,
    solve_equilibrium,
    star_equilibrium_closed_form,
    star_invariant_box,
    step_pagerank_ra,
    step_perception_no_ra,
    step_perception_ra,
    step_power_evolution,
    step_power_evolution_single,
    two_sided_box,
)

from conftest import (
    SCENARIO_DIR,
    random_doubly_stochastic_ring,
    random_network,
    random_star_network,
)


def test_criterion_01_fixed_weight_perception_reaches_the_direct_solve(
    triad_net, triad_gamma
):
    target = compute_social_power(triad_net, triad_gamma)
    start = time.perf_counter()
    for p0 in ([0.2, 0.3, 0.5], [0.9, 0.8, 0.7], [2.0, -3.0, 5.0]):
        traj = run_to_convergence(
            lambda p: step_perception_no_ra(triad_net, triad_gamma, p), np.array(p0)
        )
        assert traj.converged, f"start {p0} did not converge"
        assert traj.iterations <= 5000, f"start {p0} took {traj.iterations} iterations"
        gap = float(np.max(np.abs(traj.final - target)))
        assert gap <= 1e-8, f"start {p0} limit off by {gap:.3e}"
    elapsed = time.perf_counter() - start
    print(f"three starts converged to the direct solve in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_02_shared_equilibrium_boxes_and_sufficient_conditions(anchored_net):
    limits = []
    traj = run_to_convergence(
        lambda p: step_perception_ra(anchored_net, p), np.array([-0.5, -0.3, 0.5])
    )
    assert traj.converged
    limits.append(traj.final)
    traj = run_to_convergence(
        lambda x: step_power_evolution(anchored_net, x), np.array([0.3, 0.5, 0.2])
    )
    assert traj.converged
    limits.append(traj.final)
    state = {"V": np.eye(3)}

    def per_step(x):
        state["V"], nxt = step_power_evolution_single(anchored_net, state["V"], x)
        return nxt

    traj = run_to_convergence(per_step, np.array([0.1, 0.2, 0.7]))
    assert traj.converged
    limits.append(traj.final)
    spread = max(
        float(np.max(np.abs(a - b))) for a in limits for b in limits
    )
    print(f"three dynamics agree to {spread:.3e}")
    assert spread <= 1e-8

    box = two_sided_box(anchored_net)
    want_mu = np.array([3 / 16, -3 / 8, -1 / 6])
    want_nu = np.array([25 / 48, 7 / 8, 2 / 3])
    assert np.max(np.abs(box.mu - want_mu)) <= 1e-15, "box floor off the exact fractions"
    assert np.max(np.abs(box.nu - want_nu)) <= 1e-15, "box ceiling off the exact fractions"

    assert check_condition(anchored_net, "incoming_influence_cap").holds
    assert check_condition(anchored_net, "incoming_volatility_cap").holds


def test_criterion_03_batch_divergence_statuses_and_center_load_condition(tmp_path):
    scenarios = [
        load_scenario(SCENARIO_DIR / "star_partial" / f"star_partial_{tag}.yaml")
        for tag in "abcd"
    ]
    results = run_batch(scenarios, out_dir=tmp_path)
    for r in results:
        if r.status == DIVERGED:
            assert r.iterations < 10_000, f"{r.name} diverged too slowly"
    problems = []
    required_status = [CONVERGED, CONVERGED, DIVERGED, CONVERGED]
    for r, want in zip(results, required_status):
        if r.status != want:
            problems.append(f"{r.name}: status {r.status}, required {want}")
    # a converged run lands on the social-power equilibrium
    for scn, r in zip(scenarios, results):
        if r.status == CONVERGED:
            gap = float(np.max(np.abs(r.final - solve_equilibrium(scn.net).p_star)))
            if gap > 1e-9:
                problems.append(f"{scn.name}: limit off the equilibrium by {gap:.3e}")
    # the center-load margin is the documented worst-leaf-load formula; the
    # condition reads only the network, so b and c (same C and a) share it
    reports = [check_condition(scn.net, "star_center_load") for scn in scenarios]
    for scn, r, report in zip(scenarios, results, reports):
        a, n, c = scn.net.a, scn.net.n, 0
        load = sum(a[j] / (1.0 - a[j]) for j in range(n) if j != c and a[j] > 0.0)
        want = 1.0 / (a[c] * (1.0 - a[c])) - 4.0 / n - load
        head = report.detail[0]
        if head.label != "center_load" or abs(head.margin - want) > 1e-12:
            problems.append(
                f"{scn.name}: center_load margin {head.margin:.12g}, formula {want:.12g}"
            )
        if report.holds and r.status != CONVERGED:
            problems.append(f"{scn.name}: star_center_load holds but the run {r.status}")
    if reports[1].holds != reports[2].holds:
        problems.append("star_partial_b and star_partial_c differ in star_center_load verdict")
    # setting d relays the center to partially stubborn node 4
    offenders = [row.node for row in reports[3].detail if row.label == "center_row_weight"]
    if reports[3].holds or reports[3].margin != -np.inf or offenders != [3]:
        problems.append(
            f"star_partial_d: margin {reports[3].margin}, offenders {offenders}, "
            "required a structural failure at node 4"
        )
    # b and c differ only in the start: b's lies in the convergence basin
    # of the loose star box, c's center starts above its ceiling 1/(2 a_c)
    basin = [
        star_invariant_box(scn.net, loose=True).contains(scn.starts[0])
        for scn in scenarios[1:3]
    ]
    if basin != [True, False]:
        problems.append(f"starts in the loose star box (b, c): {basin}, required [True, False]")
    print("statuses:", [r.status for r in results])
    print("star_center_load margins:", [f"{rep.margin:.6g}" for rep in reports])
    assert not problems, "; ".join(problems)


def test_criterion_04_star_closed_forms_match_iteration():
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(3, 11))
        net = random_star_network(rng, n, center_fully_stubborn=True)
        closed = star_equilibrium_closed_form(net)
        traj = run_to_convergence(
            lambda v: step_perception_ra(net, v), np.full(n, 1.0 / n)
        )
        assert traj.converged, f"star {k} did not converge"
        worst = max(worst, float(np.max(np.abs(traj.final - closed))))
        for leaf in net.partially_stubborn:
            lo = (1.0 - net.a[leaf]) / n
            assert lo < closed[leaf] < 1.0 / n, f"star {k} leaf {leaf + 1} out of interval"
    print(f"worst closed-form vs iteration gap: {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_05_multistart_uniqueness_evidence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for k in range(100):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        report = solve_equilibrium(net, multistarts=20, seed=k)
        assert report.starts_agreeing == report.total_starts, (
            f"net {k}: only {report.starts_agreeing}/{report.total_starts} starts agree"
        )
        assert report.in_simplex and report.interior, f"net {k}: consensus not interior"
        assert abs(report.p_star.sum() - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    print(f"100 networks x 21 starts in {elapsed:.2f}s")
    assert elapsed < 60.0


def _conditioned_net(rng, require_volatility_cap):
    """Rejection-sample a network whose box preconditions hold."""
    for _ in range(500):
        n = int(rng.integers(3, 7))
        net = random_network(rng, n, fully_stubborn_prob=0.3, a_range=(0.2, 0.7))
        if not check_condition(net, "incoming_influence_cap").holds:
            continue
        if require_volatility_cap and not check_condition(net, "incoming_volatility_cap").holds:
            continue
        return net
    raise RuntimeError("rejection sampling exhausted")


def test_criterion_06_invariance_of_constructed_boxes():
    rng = np.random.default_rng(0)
    control_hits = 0
    for k in range(20):
        net = _conditioned_net(rng, require_volatility_cap=False)
        report = one_step_invariance_test(net, nonneg_box(net), 10_000, seed=k)
        assert report.exit_count == 0, (
            f"nonnegative box leaked on net {k}: {report.exit_count} exits"
        )
        net = _conditioned_net(rng, require_volatility_cap=True)
        box = two_sided_box(net)
        report = one_step_invariance_test(net, box, 10_000, seed=500 + k)
        assert report.exit_count == 0, (
            f"two-sided box leaked on net {k}: {report.exit_count} exits"
        )
        control = one_step_invariance_test(net, box.inflated(2.0), 10_000, seed=700 + k)
        control_hits += control.exit_count >= 1
    print(f"inflated control box leaked on {control_hits}/20 networks")
    assert control_hits >= 15


def test_criterion_07_resolvent_identities():
    rng = np.random.default_rng(7)
    worst_cycle_err = 0.0
    for k in range(50):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        for _ in range(10):
            x = rng.dirichlet(np.ones(n))
            Phi = influence_resolvent(net, x)
            assert np.all(Phi >= -1e-14), f"net {k}: negative resolvent entry"
            assert np.all(np.diag(Phi) > 0)
            rows = (Phi @ np.diag(1.0 - net.a)).sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) <= 1e-10, f"net {k}: row sums off"
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert Phi[i, i] > Phi[j, i], f"net {k}: diagonal not dominant"
        x = rng.dirichlet(np.ones(n))
        Phi = influence_resolvent(net, x)
        for i in range(n):
            rebuilt = resolvent_diag_from_cycles(net, i, x)
            worst_cycle_err = max(
                worst_cycle_err, abs(rebuilt - Phi[i, i]) / abs(Phi[i, i])
            )
    print(f"worst cycle-reconstruction relative error: {worst_cycle_err:.3e}")
    assert worst_cycle_err <= 1e-10, (
        f"cycle reconstruction off by {worst_cycle_err:.3e} relative "
        "(exact only when the anchor's partially stubborn interior is acyclic)"
    )


def test_criterion_08_jacobian_against_finite_differences_and_box_contraction():
    rng = np.random.default_rng(8)
    for k in range(100):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        p = rng.uniform(-1.0, 2.0, size=n)
        contraction_diagnostic(net, p)  # raises beyond 1e-6 relative FD mismatch

    rng = np.random.default_rng(9)
    checked = 0
    sup_norm = 0.0
    while checked < 50:
        n = int(rng.integers(3, 7))
        net = random_network(rng, n, fully_stubborn_prob=0.3, a_range=(0.2, 0.7))
        if not (
            check_condition(net, "incoming_influence_cap").holds
            and check_condition(net, "incoming_volatility_cap").holds
        ):
            continue
        for row in two_sided_box(net).sample(rng, 200):
            value = contraction_diagnostic(net, row, verify_fd=False)
            assert value < 1.0, f"norm {value} >= 1 inside the box"
            sup_norm = max(sup_norm, value)
        checked += 1
    print(f"sup transformed-Jacobian 1-norm over sampled boxes: {sup_norm:.6f}")


def test_criterion_09_homogeneous_total_recursion_and_uniform_limit():
    rng = np.random.default_rng(9)
    worst_drift = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = float(rng.uniform(0.05, 0.9))
        net = InfluenceNetwork(C=random_doubly_stochastic_ring(rng, n), a=np.full(n, a))
        for _ in range(10):
            p = rng.uniform(-3.0, 3.0, size=n)
            nxt = step_pagerank_ra(net, p)
            worst_drift = max(
                worst_drift, abs(float(nxt.sum()) - (a * float(p.sum()) + 1.0 - a))
            )
    print(f"worst one-step total drift at arbitrary real states: {worst_drift:.3e}")
    assert worst_drift <= 1e-14

    rng = np.random.default_rng(13)
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        cap = (5.0 * n - 7.0) / (8.0 * (n - 1.0))
        a = float(rng.uniform(0.05, cap))
        net = InfluenceNetwork(C=random_doubly_stochastic_ring(rng, n), a=np.full(n, a))
        traj = run_to_convergence(
            lambda p: step_pagerank_ra(net, p), rng.dirichlet(np.ones(n))
        )
        assert traj.converged
        sums = traj.path.sum(axis=1)
        drift = float(np.max(np.abs(sums[1:] - (a * sums[:-1] + 1.0 - a))))
        assert drift <= 1e-14, f"per-step total drift {drift:.3e}"
        worst_gap = max(worst_gap, float(np.max(np.abs(traj.final - 1.0 / n))))
    print(f"worst gap to the uniform split: {worst_gap:.3e}")
    assert worst_gap <= 1e-10


def test_criterion_10_distributed_runs_match_centralized_steppers():
    twins = {
        "perception_no_ra": "no_ra",
        "perception_ra": "ra",
        "perception_ra_single": "ra",
        "pagerank_ra": "homogeneous",
        "distributed_no_ra": "no_ra",
        "distributed_ra": "ra",
    }
    checked = 0
    worst = 0.0
    for path in sorted(SCENARIO_DIR.rglob("*.yaml")):
        scn = load_scenario(path)
        mode = twins.get(scn.mode)
        if mode is None:
            continue
        for p0 in scn.starts:
            gamma = scn.gamma if mode == "no_ra" else None
            dist = run_distributed(
                scn.net, mode, p0, gamma, tol=scn.tol, max_iter=scn.max_iter
            )
            if mode == "no_ra":
                stepper = lambda v: step_perception_no_ra(scn.net, scn.gamma, v)
            elif mode == "homogeneous":
                stepper = lambda v: step_pagerank_ra(scn.net, v)
            else:
                stepper = lambda v: step_perception_ra(scn.net, v)
            cent = run_to_convergence(stepper, p0, tol=scn.tol, max_iter=scn.max_iter)
            assert dist.status == cent.status, f"{scn.name}: status mismatch"
            assert dist.path.shape == cent.path.shape, f"{scn.name}: length mismatch"
            worst = max(worst, float(np.max(np.abs(dist.path - cent.path))))
            assert worst <= 1e-12, f"{scn.name}: per-step gap {worst:.3e}"
            checked += 1
    print(f"{checked} scenario runs matched to {worst:.3e}")
    assert checked >= 8


def test_criterion_11_dominance_necessary_condition_never_violated():
    rng = np.random.default_rng(11)
    dominant_cases = 0
    counterexamples = []
    for k in range(100):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        report = solve_equilibrium(net, multistarts=3, seed=k)
        for sigma in (0.5, 0.6, 0.75):
            for i in range(n):
                if report.p_star[i] > sigma:
                    dominant_cases += 1
                    check = check_dominance_necessary(net, report.p_star, i, sigma)
                    if not check.holds:
                        counterexamples.append((k, i, sigma))
    print(f"dominance occurrences checked: {dominant_cases}")
    assert dominant_cases > 0  # the sweep must actually exercise the condition
    assert not counterexamples, f"necessary condition violated at {counterexamples}"
