"""Network validation, topology classing, and stubborn-cycle search."""
import itertools
import warnings

import numpy as np
import pytest

from fjpower import (
    CONVERGED,
    GENERAL,
    STAR_FULL_CENTER,
    STAR_PARTIAL_CENTER,
    Box,
    CycleBudgetExceededError,
    InfluenceNetwork,
    Trajectory,
    classify_topology,
    enumerate_stubborn_cycles,
    validate_arrays,
)
from fjpower import network

from conftest import random_doubly_stochastic_ring, random_network, random_star_network


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_minimal_two_node_pair_is_valid():
    report = validate_arrays([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.0])
    assert report.ok
    assert str(report) == "valid"


def test_nonzero_diagonal_is_reported_with_one_based_index():
    report = validate_arrays([[0.5, 0.5], [1.0, 0.0]], [0.3, 0.0])
    assert not report.ok
    names = [v.name for v in report.violations]
    assert "zero_diagonal" in names
    bad = next(v for v in report.violations if v.name == "zero_diagonal")
    assert bad.index == 0
    assert "C[1,1]" in bad.message


def test_row_sum_off_by_one_percent_is_reported():
    report = validate_arrays([[0.0, 0.99], [1.0, 0.0]], [0.3, 0.2])
    assert [v.name for v in report.violations] == ["row_stochastic"]
    assert str(report) == "row_stochastic: row 1 of C sums to 0.99, not 1 within 1e-12"


def test_a_finite_row_whose_sum_overflows_is_reported_without_a_warning():
    C = [[0.0, 1e308, 1e308], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_arrays(C, [0.3, 0.2, 0.1])
    assert [v.name for v in report.violations] == ["row_stochastic"]
    assert report.violations[0].index == 0
    assert "row 1 of C sums to inf" in str(report)


def test_negative_entry_is_reported():
    report = validate_arrays([[0.0, 1.5, -0.5], [1, 0, 0], [1, 0, 0]], [0.3, 0.2, 0.1])
    assert "nonnegative" in [v.name for v in report.violations]


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_susceptibility_outside_half_open_unit_interval(bad):
    report = validate_arrays([[0.0, 1.0], [1.0, 0.0]], [0.3, bad])
    assert "susceptibility_range" in [v.name for v in report.violations]


def test_subnormal_susceptibility_is_out_of_range():
    """A positive a_i below the smallest normal float would overflow the
    1/a_i of the box and load formulas; it is reported in index order with
    the other range violations, under its own text."""
    tiny = np.finfo(float).tiny
    ring = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    assert str(validate_arrays(ring, [1.0, 5e-324, -1e-320])) == (
        "susceptibility_range: a[1] = 1.0 outside [0, 1); "
        f"susceptibility_range: a[2] = 5e-324 is subnormal: a positive a_i must be at least {tiny}; "
        "susceptibility_range: a[3] = -1e-320 outside [0, 1)"
    )
    # the smallest normal value and -0.0 stay legal
    assert validate_arrays(ring, [tiny, -0.0, 0.5]).ok


def test_all_fully_stubborn_vector_is_rejected():
    report = validate_arrays([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
    assert [v.name for v in report.violations] == ["not_all_fully_stubborn"]


def test_violations_of_several_invariants_come_out_invariant_by_invariant():
    C = [[0.25, 0.75, -0.5], [0.5, 0.0, 0.25], [-0.5, 1.5, 0.5]]
    report = validate_arrays(C, [1.0, 0.5, -0.25])
    assert str(report) == (
        "zero_diagonal: C[1,1] = 0.25 is nonzero; "
        "zero_diagonal: C[3,3] = 0.5 is nonzero; "
        "nonnegative: C[1,3] = -0.5 is negative; "
        "nonnegative: C[3,1] = -0.5 is negative; "
        "row_stochastic: row 1 of C sums to 0.5, not 1 within 1e-12; "
        "row_stochastic: row 2 of C sums to 0.75, not 1 within 1e-12; "
        "row_stochastic: row 3 of C sums to 1.5, not 1 within 1e-12; "
        "susceptibility_range: a[1] = 1.0 outside [0, 1); "
        "susceptibility_range: a[3] = -0.25 outside [0, 1)"
    )
    assert [v.index for v in report.violations] == [0, 2, 0, 2, 0, 1, 2, 0, 2]


def test_shape_and_size_violations():
    assert "shape" in [v.name for v in validate_arrays([[0.0, 1.0]], [0.3]).violations]
    assert "size" in [v.name for v in validate_arrays([[0.0]], [0.3]).violations]
    report = validate_arrays([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.2, 0.1])
    assert "shape" in [v.name for v in report.violations]


@pytest.mark.parametrize("C, a, want", [
    pytest.param(np.zeros((0, 0)), [], "size: need at least 2 nodes, got 0; "
                 "not_all_fully_stubborn: a is the zero vector; at least one a_i > 0 required",
                 id="empty"),
    pytest.param([[0.0]], [0.3], "size: need at least 2 nodes, got 1; "
                 "row_stochastic: row 1 of C sums to 0.0, not 1 within 1e-12", id="1x1"),
    pytest.param([[-1.0]], [0.3], "size: need at least 2 nodes, got 1; "
                 "zero_diagonal: C[1,1] = -1.0 is nonzero; nonnegative: C[1,1] = -1.0 is negative; "
                 "row_stochastic: row 1 of C sums to -1.0, not 1 within 1e-12", id="1x1-negative"),
    pytest.param([[0.0, 1.0], [-0.0, -0.0]], [0.3, 0.2],
                 "row_stochastic: row 2 of C sums to 0.0, not 1 within 1e-12", id="negative-zero"),
    # numpy would read a None as NaN and a boolean as 1.0; a numpy scalar is a number
    pytest.param([[0.0, True], [1.0, 0.0]], [0.5, 0.5], "number: C[1,2] = True is not a number",
                 id="boolean"),
    pytest.param([[0.0, None], [np.int64(1), 0.0]], [np.float32(0.5), None],
                 "number: C[1,2] = None is not a number; number: a[2] = None is not a number",
                 id="none"),
    # numpy would raise: a ragged row, a nested entry, a whole number past the float range
    pytest.param([[0.0, 1.0], [1.0]], [0.5, 0.5], "shape: C[2] must be a row of 2 numbers, "
                 "got [1.0]", id="ragged"),
    pytest.param([[0.0, 1.0], [1.0, 0.0]], [0.5, [0.5]], "shape: a[2] must be a number, got [0.5]",
                 id="nested"),
    pytest.param([[0, 10 ** 400], [1, 0]], [0.5, 0.5], "finite: C[1,2] = "
                 "100000000000000000...0000000000000000000 is too large for a float", id="huge"),
    # one violation for each array: the first entry, in index order, that breaks the read
    pytest.param([[0.0, None], [None, 0.0]], [0.5, 0.5], "number: C[1,2] = None is not a number",
                 id="two-nones"),
    pytest.param([[0.0, 1.0], [1.0], [None, 0.0]], [0.5, 0.5, 0.5],
                 "shape: C[2] must be a row of 2 numbers, got [1.0]", id="none-after-ragged"),
])
def test_degenerate_matrices_get_every_report(C, a, want):
    """The negative-entry scan runs only under a negative minimum; empty and
    1×1 matrices, and -0.0 entries (not negative), keep their full reports,
    which the constructor raises."""
    assert str(validate_arrays(C, a)) == want
    with pytest.raises(ValueError) as err:
        InfluenceNetwork(C=C, a=a)
    assert str(err.value) == f"invalid network: {want}"


def test_non_finite_interaction_weight_is_reported():
    nan_edge = [[0.0, 0.5, float("nan")], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]
    report = validate_arrays(nan_edge, [0.3, 0.2, 0.1])
    assert [v.name for v in report.violations] == ["finite"]
    assert report.violations[0].index == 0
    assert "C[1,3]" in report.violations[0].message


def test_non_finite_susceptibility_is_reported():
    report = validate_arrays([[0.0, 1.0], [1.0, 0.0]], [0.3, float("inf")])
    assert [v.name for v in report.violations] == ["finite"]
    assert report.violations[0].index == 1
    assert "a[2]" in report.violations[0].message


def test_array_holding_types_compare_by_identity(anchored_net):
    twin = InfluenceNetwork(C=anchored_net.C, a=anchored_net.a)
    box = Box(np.zeros(3), np.ones(3))
    traj = Trajectory(path=np.zeros((2, 3)), status=CONVERGED)
    pairs = [(anchored_net, twin), (box, Box(box.mu, box.nu)),
             (traj, Trajectory(path=traj.path, status=CONVERGED))]
    for obj, same_arrays in pairs:
        assert obj == obj and obj != same_arrays
        assert obj in [same_arrays, obj] and obj not in [same_arrays]
        assert len({obj, same_arrays, obj}) == 2


def test_neighbor_queries(anchored_net):
    assert anchored_net.in_neighbors(1) == (0, 2)
    assert anchored_net.out_neighbors(2) == (0, 1)
    assert anchored_net.partially_stubborn == (1, 2)


def test_adjacency_is_built_on_first_use_and_kept(anchored_net):
    assert "adjacency" not in vars(anchored_net)
    adj = anchored_net.adjacency
    assert anchored_net.adjacency is adj
    # edges j -> i sorted by (receiver i, sender j), with per-receiver offsets
    assert adj.receivers.tolist() == [0, 1, 1, 2, 2]
    assert adj.senders.tolist() == [2, 0, 2, 0, 1]
    assert adj.offsets.tolist() == [0, 1, 3, 5]
    assert adj.weights.tolist() == [0.5, 0.6, 0.5, 0.4, 1.0]
    assert len(adj.senders) == 5


# ---------------------------------------------------------------------------
# topology classes
# ---------------------------------------------------------------------------

def test_triad_is_star_with_partially_stubborn_center(triad_net):
    topo = classify_topology(triad_net)
    assert topo.kind == STAR_PARTIAL_CENTER
    assert topo.center == 0
    assert topo.is_star
    assert str(topo) == f"{STAR_PARTIAL_CENTER}(1)"


def test_fully_stubborn_center_star(star3_net):
    topo = classify_topology(star3_net)
    assert topo.kind == STAR_FULL_CENTER and topo.center == 0


def test_general_topology(anchored_net):
    topo = classify_topology(anchored_net)
    assert topo.kind == GENERAL and topo.center is None and not topo.is_star


def test_two_node_center_tie_breaks_to_lowest_index(pair_net):
    assert classify_topology(pair_net).center == 0


# ---------------------------------------------------------------------------
# stubborn cycles
# ---------------------------------------------------------------------------

def test_single_cycle_through_loop_node(anchored_net):
    cycles = enumerate_stubborn_cycles(anchored_net, 2)
    assert len(cycles) == 1
    (cyc,) = cycles
    assert cyc.nodes == (2, 1, 2)
    assert cyc.value == pytest.approx(0.5, abs=1e-15)


def test_fully_stubborn_anchor_may_have_partially_stubborn_interior(anchored_net):
    cycles = enumerate_stubborn_cycles(anchored_net, 0)
    got = {(c.nodes, round(c.value, 12)) for c in cycles}
    assert got == {((0, 1, 2, 0), 0.3), ((0, 2, 0), 0.2)}


def test_leaf_of_fully_stubborn_center_star_has_no_cycles(star3_net):
    assert enumerate_stubborn_cycles(star3_net, 1) == []


def test_two_node_loop_has_unit_value(pair_net):
    (cyc,) = enumerate_stubborn_cycles(pair_net, 0)
    assert cyc.nodes == (0, 1, 0) and cyc.value == 1.0


def _brute_force_cycles(net, anchor):
    """All simple cycles through ``anchor`` with partially stubborn interiors,
    by trying every permutation of candidate interior nodes."""
    interior_pool = [v for v in range(net.n) if net.a[v] > 0.0 and v != anchor]
    found = []
    for k in range(1, len(interior_pool) + 1):
        for interior in itertools.permutations(interior_pool, k):
            seq = (anchor, *interior, anchor)
            value = 1.0
            for u, v in zip(seq[:-1], seq[1:]):
                value *= net.C[u, v]
            if value > 0.0:
                found.append((seq, value))
    return sorted(found)


def test_enumeration_matches_brute_force_on_random_networks():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        net = random_network(rng, n, density=float(rng.uniform(0.4, 1.0)))
        for anchor in range(n):
            cycles = enumerate_stubborn_cycles(net, anchor)
            got = sorted((c.nodes, c.value) for c in cycles)
            want = _brute_force_cycles(net, anchor)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert np.allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)


def test_cycles_come_out_in_lexicographic_order():
    rng = np.random.default_rng(3)
    net = random_network(rng, 5, fully_stubborn_prob=0.0)
    cycles = enumerate_stubborn_cycles(net, 0)
    assert len(cycles) > 2
    assert [c.nodes for c in cycles] == sorted(c.nodes for c in cycles)


def test_cycle_budget_is_enforced(monkeypatch, pair_net):
    monkeypatch.setattr(network, "CYCLE_BUDGET", 1)
    assert len(enumerate_stubborn_cycles(pair_net, 0)) == 1
    monkeypatch.setattr(network, "CYCLE_BUDGET", 0)
    with pytest.raises(CycleBudgetExceededError, match="node 1"):
        enumerate_stubborn_cycles(pair_net, 0)
    try:
        enumerate_stubborn_cycles(pair_net, 0)
    except CycleBudgetExceededError as exc:
        assert exc.anchor == 0 and exc.budget == 0


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_random_networks_are_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        net = random_network(rng, int(rng.integers(2, 9)))
        assert validate_arrays(net.C, net.a).ok


def test_random_star_networks_classify_as_stars():
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = random_star_network(rng, int(rng.integers(3, 9)))
        topo = classify_topology(net)
        assert topo.kind == STAR_FULL_CENTER and topo.center == 0
        assert validate_arrays(net.C, net.a).ok
    loose = random_star_network(rng, 5, center_fully_stubborn=False)
    assert classify_topology(loose).kind == STAR_PARTIAL_CENTER


def test_doubly_stochastic_ring_mixture():
    rng = np.random.default_rng(2)
    for n in (2, 3, 6):
        C = random_doubly_stochastic_ring(rng, n)
        assert np.allclose(C.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(C.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(C) == 0.0)
