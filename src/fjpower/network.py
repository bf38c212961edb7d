"""Influence-network data model, validation, topology classing and cycle search.

A network couples a row-stochastic, zero-diagonal, nonnegative interaction
matrix ``C`` with a susceptibility vector ``a`` (``0 <= a_i < 1``, not all
zero).  Node ``i`` is *fully stubborn* when ``a_i == 0`` and *partially
stubborn* when ``0 < a_i < 1``.  Indices are 0-based everywhere inside the
package; user-facing output (reports, messages) adds 1.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .errors import CycleBudgetExceededError

ROW_SUM_TOL = 1e-12
CYCLE_BUDGET = 1_000_000  # most cycles enumerate_stubborn_cycles returns before it raises

STAR_FULL_CENTER = "star_fully_stubborn_center"
STAR_PARTIAL_CENTER = "star_partially_stubborn_center"
GENERAL = "general"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Violation:
    """One failed invariant: machine-readable name plus a 1-based location."""

    name: str
    message: str
    index: Optional[int] = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.name}: {v.message}" for v in self.violations)


def _non_numbers(name: str, values, index: tuple = ()) -> list[Violation]:
    """One violation for each entry of ``values`` that is no number (None, a
    boolean, a string), in index order, where numpy would read None as NaN
    and a boolean as 1.0 or 0.0.  A numeric ndarray is not walked."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return []
    if isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim:
        return [v for k, x in enumerate(values) for v in _non_numbers(name, x, index + (k,))]
    if isinstance(values, (bool, np.bool_)) or not isinstance(values, numbers.Real):
        place = f"[{','.join(str(k + 1) for k in index)}]" if index else ""
        return [Violation("number", f"{name}{place} = {values!r} is not a number",
                          index[0] if index else None)]
    return []


def validate_arrays(C, a) -> ValidationReport:
    """Check a candidate (C, a) pair against every network invariant.

    Never raises: all failures are collected into the report.  An entry
    that is no number is reported first, alone; rows of C must sum to 1
    within ``ROW_SUM_TOL``.

    Parameters
    ----------
    C : (n, n) array_like
        Candidate interaction matrix.
    a : (n,) array_like
        Candidate susceptibilities.
    """
    out = _non_numbers("C", C) + _non_numbers("a", a)
    if out:
        return ValidationReport(tuple(out))
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        out.append(Violation("shape", f"C must be square, got {C.shape}"))
        return ValidationReport(tuple(out))
    n = C.shape[0]
    if n < 2:
        out.append(Violation("size", f"need at least 2 nodes, got {n}"))
    if a.shape != (n,):
        out.append(Violation("shape", f"a must have length {n}, got {a.shape}"))
        return ValidationReport(tuple(out))
    # NaN slips past every comparison below, so non-finite input stops here.
    # A row holding inf or NaN has a non-finite sum: only those rows are scanned.
    # A finite row may overflow to inf, which row_stochastic then reports.
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums = C.sum(axis=1)
    nonfinite = [
        Violation("finite", f"C[{i + 1},{j + 1}] = {C[i, j]} is not finite", int(i))
        for i in np.nonzero(~np.isfinite(row_sums))[0]
        for j in np.nonzero(~np.isfinite(C[i]))[0]
    ]
    nonfinite += [
        Violation("finite", f"a[{i + 1}] = {a[i]} is not finite", int(i))
        for i in np.nonzero(~np.isfinite(a))[0]
    ]
    if nonfinite:
        return ValidationReport(tuple(out + nonfinite))
    # one mask per invariant; each emits its violations in index order
    out += [Violation("zero_diagonal", f"C[{i + 1},{i + 1}] = {C[i, i]} is nonzero", i)
            for i in np.flatnonzero(np.diagonal(C) != 0.0).tolist()]
    # the n² mask only when some entry is negative: the min is a sixth of its cost
    if C.size and C.min() < 0.0:
        out += [Violation("nonnegative", f"C[{i + 1},{j + 1}] = {C[i, j]} is negative", i)
                for i, j in np.argwhere(C < 0).tolist()]
    out += [Violation("row_stochastic", f"row {i + 1} of C sums to {float(row_sums[i])!r}, "
                      f"not 1 within {ROW_SUM_TOL}", i)
            for i in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL).tolist()]
    # a positive a_i below the smallest normal float overflows the 1/a_i of
    # the box and load formulas, so it is out of range too, with its own text
    tiny = np.finfo(float).tiny
    out += [Violation("susceptibility_range", f"a[{i + 1}] = {a[i]} " + (
                f"is subnormal: a positive a_i must be at least {tiny}" if 0.0 < a[i] < tiny
                else "outside [0, 1)"), i)
            for i in np.flatnonzero((a < 0.0) | (a >= 1.0) | ((a > 0.0) & (a < tiny))).tolist()]
    if np.all(a == 0.0):
        out.append(
            Violation("not_all_fully_stubborn", "a is the zero vector; at least one a_i > 0 required")
        )
    return ValidationReport(tuple(out))


@dataclass(frozen=True, eq=False)
class Adjacency:
    """The positive entries of C: the one edge list every reader slices.

    Edge ``j -> i`` (``C[j, i] > 0``, node j accords weight to node i) sits
    at one position of ``senders`` / ``receivers`` / ``weights``; edges are
    sorted by (receiver, sender), so the edges into node ``i`` fill
    ``offsets[i]:offsets[i + 1]``.  All four arrays are read-only, and there
    is no second copy of the edges in another order.
    """

    offsets: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_matrix(cls, C: np.ndarray) -> "Adjacency":
        """One O(n²) scan of C; its transpose's nonzeros come out in edge order."""
        receivers, senders = np.nonzero(C.T > 0.0)  # sorted by (receiver, sender)
        offsets = np.searchsorted(receivers, np.arange(C.shape[0] + 1))
        weights = C[senders, receivers]
        for arr in (offsets, senders, receivers, weights):
            arr.setflags(write=False)
        return cls(offsets=offsets, senders=senders, receivers=receivers, weights=weights)


@dataclass(frozen=True, eq=False)
class InfluenceNetwork:
    """Validated (C, a) pair.  Immutable; safe to share across threads."""

    C: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        report = validate_arrays(self.C, self.a)  # before _freeze reads a None as NaN
        if not report.ok:
            raise ValueError(f"invalid network: {report}")
        object.__setattr__(self, "C", _freeze(self.C))
        object.__setattr__(self, "a", _freeze(self.a))

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def partially_stubborn(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.a > 0.0)[0])

    @cached_property
    def adjacency(self) -> Adjacency:
        """Edge list of C, built on first use and kept (C never changes)."""
        return Adjacency.from_matrix(self.C)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes j with C[j, i] > 0, ascending."""
        adj = self.adjacency
        return tuple(adj.senders[adj.offsets[i]:adj.offsets[i + 1]].tolist())

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes j with C[i, j] > 0, ascending: an O(n) scan of row i, since
        the edge list is grouped by receiver."""
        return tuple(np.flatnonzero(self.C[i] > 0.0).tolist())


def node_vector(net: InfluenceNetwork, name: str, values) -> np.ndarray:
    """``values`` as a float array, which must hold one entry per node."""
    values = np.asarray(values, dtype=float)
    if values.shape != (net.n,):
        raise ValueError(f"{name} must have shape ({net.n},), got {values.shape}")
    return values


@dataclass(frozen=True)
class TopologyClass:
    """Structural class. ``center`` is 0-based; only set for star variants."""

    kind: str
    center: Optional[int] = None

    @property
    def is_star(self) -> bool:
        return self.kind in (STAR_FULL_CENTER, STAR_PARTIAL_CENTER)

    def __str__(self) -> str:
        if self.center is None:
            return self.kind
        return f"{self.kind}({self.center + 1})"


def classify_topology(net: InfluenceNetwork) -> TopologyClass:
    """Classify as a star (every edge incident to one center) or general.

    When several nodes qualify as center (only possible for n = 2) the
    lowest-index one wins.
    """
    adj = net.adjacency
    senders, receivers = adj.senders, adj.receivers
    # a center touches every edge, so only the ends of one edge can qualify
    for c in sorted({int(senders[0]), int(receivers[0])}):
        if np.all((senders == c) | (receivers == c)):
            if net.a[c] == 0.0:
                return TopologyClass(STAR_FULL_CENTER, c)
            return TopologyClass(STAR_PARTIAL_CENTER, c)
    return TopologyClass(GENERAL)


@dataclass(frozen=True)
class StubbornPath:
    """A simple cycle through an anchor with all interior nodes partially stubborn.

    ``nodes`` lists the visited node sequence, the anchor first and last.
    ``value`` is the product of the edge weights along the sequence.
    """

    nodes: tuple[int, ...]
    value: float


def enumerate_stubborn_cycles(net: InfluenceNetwork, anchor: int) -> list[StubbornPath]:
    """All simple cycles through ``anchor`` whose other nodes are partially stubborn.

    The search walks the subgraph induced by the partially stubborn nodes plus
    the anchor, emitting cycles in lexicographic order of their node sequence.
    Raises :class:`CycleBudgetExceededError` beyond ``CYCLE_BUDGET`` cycles.
    """
    n = net.n
    if not (0 <= anchor < n):
        raise IndexError(f"anchor {anchor} out of range for n={n}")
    partial = net.a > 0.0
    C = net.C
    found: list[StubbornPath] = []
    path = [anchor]
    on_path = np.zeros(n, dtype=bool)
    on_path[anchor] = True
    succ = [np.flatnonzero(row > 0.0).tolist() for row in C]  # sorted out-neighbors
    # iterative DFS; each stack frame is an iterator over one successor list
    stack: list[Iterator[int]] = [iter(succ[anchor])]
    while stack:
        advanced = False
        for nxt in stack[-1]:
            if nxt == anchor:
                nodes = (*path, anchor)
                value = math.prod(C[u, v] for u, v in zip(nodes, nodes[1:]))
                found.append(StubbornPath(nodes=nodes, value=value))
                if len(found) > CYCLE_BUDGET:
                    raise CycleBudgetExceededError(anchor, CYCLE_BUDGET)
                continue
            if partial[nxt] and not on_path[nxt]:
                on_path[nxt] = True
                path.append(nxt)
                stack.append(iter(succ[nxt]))
                advanced = True
                break
        if not advanced:
            stack.pop()
            dropped = path.pop()
            on_path[dropped] = False
    return found
