"""Ground-truth engine: opinion updates, social power, resolvent identities.

Conventions
-----------
* ``gamma`` (self-appraisal weights) and perceived-power vectors are plain
  float ndarrays.
* ``W(w) = diag(w) + (I - diag(w)) C`` blends self-weight ``w_i`` with the
  interaction row of ``C``; its rows sum to 1 for any real ``w`` because
  ``C`` is row-stochastic.
* Social power of a group discussing one issue with fixed ``gamma``:
  ``x = (I - A)(I - W(gamma)^T A)^{-1} 1/n`` — nonnegative, sums to 1.
* All ``(I - M)^{-1} b`` computations go through LU solves; their systems
  ``I - A W(x)`` are written in one array each, without building W first.
* :func:`influence_matrix`, :func:`compute_social_power` and
  :func:`step_power_evolution` also take a ``(k, n)`` stack of weight vectors
  (the last axis is nodes); the power maps solve it in bounded chunks of
  rows.  Each row is bit-identical to the call on that row alone.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularSystemError
from .network import InfluenceNetwork, enumerate_stubborn_cycles, node_vector

STACK_ENTRIES = 1 << 17  # matrix entries (1 MB) one stacked power solve may hold


def _blend_operands(C: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(C, w)`` as float arrays, with one weight per node on w's last axis."""
    w = np.asarray(weights, dtype=float)
    # C order whatever C's layout, so products with W sum in one order
    C = np.ascontiguousarray(C, dtype=float)
    if w.shape[-1:] != C.shape[:1]:  # a shorter vector would broadcast silently
        raise ValueError(f"weights must have {len(C)} entries on their last axis, "
                         f"got shape {w.shape}")
    return C, w


def influence_matrix(C: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """W = diag(weights) + (I - diag(weights)) @ C, for any real weights; a
    (k, n) stack of weight vectors gives the (k, n, n) stack of their W."""
    C, w = _blend_operands(C, weights)
    # + 0.0 is the 0.0 + x of diag(w) + ...: -0.0 becomes +0.0 off the diagonal
    W = (1.0 - w)[..., :, None] * C + 0.0
    # the diagonal is w + x, whatever the sign of a zero x
    np.add(w, (1.0 - w) * np.diagonal(C), out=np.einsum("...ii->...i", W))
    return W


def _solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


def _system(net: InfluenceNetwork, x: np.ndarray) -> np.ndarray:
    """I - A W(x) in one array; a (k, n) stack of x gives k systems.

    Off the diagonal an entry is 0.0 - a_i (1 - x_i) C_ij.  W's + 0.0 only
    turns a -0.0 product into +0.0, and 0.0 - y is +0.0 for either zero, so
    skipping it keeps the bits of I - A W(x), signed zeros included.
    """
    C, w = _blend_operands(net.C, x)
    a = net.a
    M = (1.0 - w)[..., :, None] * C
    M *= a[:, None]
    np.subtract(0.0, M, out=M)
    np.subtract(1.0, a * (w + (1.0 - w) * np.diagonal(C)), out=np.einsum("...ii->...i", M))
    return M


def fj_opinion_map(net: InfluenceNetwork, gamma: np.ndarray, y0: np.ndarray):
    """The opinion update y -> A W(gamma) y + (I - A) y0, with W built once."""
    W = influence_matrix(net.C, gamma)
    a, anchor = net.a, (1.0 - net.a) * node_vector(net, "y0", y0)
    return lambda y: a * (W @ y) + anchor


def step_fj_opinions(
    net: InfluenceNetwork, gamma: np.ndarray, y: np.ndarray, y0: np.ndarray
) -> np.ndarray:
    """One opinion update: y' = A W(gamma) y + (I - A) y0."""
    return fj_opinion_map(net, gamma, y0)(y)


def final_opinions(net: InfluenceNetwork, gamma: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Discussion limit (I - A W(gamma))^{-1} (I - A) y0, by direct solve."""
    return _solve(_system(net, gamma), (1.0 - net.a) * node_vector(net, "y0", y0))


def _power(net: InfluenceNetwork, gamma: np.ndarray) -> np.ndarray:
    """compute_social_power with every row of ``gamma`` in one stacked solve."""
    M = _system(net, gamma)  # I - A W, whose transpose I - W^T A is solved
    # the right-hand side is a column, (n, 1) or (k, n, 1): numpy 1.x and 2.x
    # read a 1-D or (k, n) b differently, and (k, n) is ambiguous when k == n
    b = np.full(M.shape[:-1] + (1,), 1.0 / net.n)
    u = _solve(np.swapaxes(M, -1, -2), b)[..., 0]
    return (1.0 - net.a) * u


def compute_social_power(net: InfluenceNetwork, gamma: np.ndarray) -> np.ndarray:
    """Social power x = (I - A)(I - W(gamma)^T A)^{-1} 1/n.

    Each x_i is the normalized total weight of node i's initial opinion in
    everyone's final opinion.  Nonnegative with unit sum.  A (k, n) stack of
    ``gamma`` rows gives the (k, n) stack of their powers, solved in chunks of
    ``max(1, STACK_ENTRIES // n²)`` rows: rows solve independently, so the
    chunks give the same bits and hold the stack's memory near one n x n
    system's at large n.
    """
    gamma = np.asarray(gamma, dtype=float)
    rows = max(1, STACK_ENTRIES // (net.n * net.n))
    if gamma.ndim < 2:
        return _power(net, gamma)
    return np.concatenate([_power(net, gamma[i:i + rows]) for i in range(0, len(gamma), rows)])


def influence_resolvent(net: InfluenceNetwork, x: np.ndarray) -> np.ndarray:
    """Resolvent (I - A W(x))^{-1}: cumulative susceptibility-weighted flows.

    Nonnegative with strictly positive diagonal for x in the open simplex;
    multiplying by (I - A) on the right gives a row-stochastic matrix.
    """
    return _solve(_system(net, x), np.eye(net.n))


def resolvent_diag_from_cycles(net: InfluenceNetwork, anchor: int, x: np.ndarray) -> float:
    """Diagonal resolvent entry ``Phi_ii`` rebuilt from the cycles through ``anchor``.

    With ``M = A W(x)`` (so ``Phi = (I - M)^{-1}``) and ``D_S`` the principal
    minor of ``I - M`` with the rows and columns in ``S`` removed, expanding
    ``det(I - M)`` over permutations gives, exactly,

        1 / Phi_ii = (1 - M_ii) - sum_{q through i} w(q) D_{V(q)} / D_{i}

    over simple cycles q through the anchor, where ``w(q)`` is the product of
    ``M``'s entries along the edges of q and ``V(q)`` its node set (Fomin,
    *Loop-erased walks and total positivity*, Trans. AMS 2001).  The entry is
    returned as ``1 / (1 - M_ii - phi)`` with ``phi`` that sum.

    Only cycles from :func:`enumerate_stubborn_cycles` enter: a fully
    stubborn node has a zero row in ``M``, so any cycle through it weighs 0.
    With no such cycle the entry collapses to ``1 / (1 - a_i x_i)``, and to 1
    for a fully stubborn anchor.  When the rest of the network is acyclic,
    ``D_{V(q)} / D_{i}`` is ``prod_{interior l} 1 / (1 - a_l x_l)``, so the
    term reduces to the interior product ``a_i (1 - x_i)`` times the edge
    weights of q in ``C`` times ``prod_{interior l} a_l (1 - x_l) / (1 - a_l
    x_l)``; with loops in the interior that product undercounts.  In general
    the ratio is,
    by Jacobi's complementary-minor identity, the determinant of
    ``G = ((I - M)_{-i})^{-1}`` restricted to the cycle's interior: one
    inverse per anchor, then one small ``(|q| - 1)``-square determinant per
    cycle.
    """
    i = anchor
    S = _system(net, x)  # I - M; off its diagonal, -S is M
    cycles = enumerate_stubborn_cycles(net, anchor)
    phi = 0.0
    if cycles and net.a[i] > 0.0:
        rest = np.delete(np.arange(net.n), i)
        G = _solve(S[np.ix_(rest, rest)], np.eye(net.n - 1))
        for cyc in cycles:
            nodes = np.array(cyc.nodes)
            w = float(np.prod(-S[nodes[:-1], nodes[1:]]))
            interior = nodes[1:-1]
            interior = interior - (interior > i)  # positions in G, which skips i
            phi += w * float(np.linalg.det(G[np.ix_(interior, interior)]))
    return 1.0 / (S[i, i] - phi)


def step_power_evolution(net: InfluenceNetwork, x: np.ndarray) -> np.ndarray:
    """Issue-to-issue power update: next power when self-appraisals equal x.

    x' = (I - A)(I - W(x)^T A)^{-1} 1/n.  Maps the simplex into itself.  A
    (k, n) stack of powers steps every row, in the chunks of
    :func:`compute_social_power`.
    """
    return compute_social_power(net, x)


def step_power_evolution_single(
    net: InfluenceNetwork, V: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step variant tracking the contribution matrix V alongside x.

    V' = A W(x) V + (I - A);  x' = V'^T 1/n.  Start from V = I; x may be any
    simplex point (it only seeds the first blend).  Raises ValueError unless
    ``x`` has shape (n,) and ``V`` shape (n, n).
    """
    n = net.n
    V = np.asarray(V, dtype=float)
    if V.shape != (n, n):  # a 1-D V would broadcast into a wrong (n, n) state
        raise ValueError(f"V must have shape ({n}, {n}), got {V.shape}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:  # influence_matrix takes stacks of x, and checks x's length
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    W = influence_matrix(net.C, x)
    V_next = net.a[:, None] * (W @ V)
    V_next[np.diag_indices(n)] += 1.0 - net.a
    x_next = V_next.T @ np.full(n, 1.0 / n)
    return V_next, x_next
