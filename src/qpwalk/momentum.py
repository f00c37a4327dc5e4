"""Momentum-space form of the regrouped walk: blocks, trace formula, dispersion.

Conventions
-----------
The Fourier transform used is psi_hat(k) = sum_x exp(i*k*x) psi(x, s), under
which the shift S|x,s> = |x+s,s> becomes the diagonal block
S(k) = diag(exp(ik), exp(-ik)). A walk step is then the 2x2 block
W(t, k) = S(k) * M(t) (matrix-before-shift rules) or M(t) * S(k)
(shift-before-matrix rules), and the regrouped product over one field period
m is time-independent for rational fields.

Blocks over many momenta are composed entry by entry (``_compose``): each
block entry is a contiguous (P, K) array over P problems of K momenta each,
held in buffers allocated once per call, and each step writes its products
and sums into them, so no step allocates a temporary or broadcasts over an
axis of length 2. Callers see the usual k.shape + (2, 2) stack.
``_compose`` takes several problems at once, each with its own momenta and
step matrices, and ``regrouped_block`` is its one-problem case: a revival
search composes the zoom brackets of all of a call's reports in one pass,
each report's block keeping the bits it has alone.

Trace formula
-------------
For a 2x2 matrix M and a unitary R whose eigenvalues form a conjugate pair of
primitive m-th roots of unity, the cyclic product trace

    tau_m(M) = tr(M R^0 M R^1 ... M R^(m-1))

has the closed form (with a~ and d~ the diagonal entries of M in R's
eigenbasis):

    m odd:  tau_m = a~^m + d~^m
    m even: tau_m = -(a~^m + d~^m) + 2*(-1)^(m/2) * ((a~ d~)^(m/2) - det(M)^(m/2))

The primitivity requirement is essential: R = I with m = 3, or any R whose
order is a proper divisor of m, satisfies R^m = I yet breaks the closed form,
so ``trace_formula`` validates it and raises otherwise. The degenerate orders
m = 1 (R = I) and m = 2 (R = -I) are valid and basis-independent.

For the walk's own M = C S(k), with coin C = [[a, b], [-conj(b), conj(a)]],
det(M) = 1 and d~ = conj(a~), where (``alpha_tilde``, for scalar or array k)

    RX_FIELD (Hadamard basis):  a~ = u e^(ik) + v e^(-ik),
                                u = (a - conj(b))/2,  v = (conj(a) + b)/2;
    GAUGED_SZ (standard basis): a~ = a e^(ik).
"""

from __future__ import annotations

import cmath
import math
from math import gcd

import numpy as np

from .spinops import eigenbasis_unitary2, is_unitary
from .walk import TimeRule, WalkParams

TWO_PI = 2.0 * math.pi


def regrouped_block(k, params: WalkParams, m: int, t_from: int = 1) -> np.ndarray:
    """Momentum block of W(t_from+m-1) ... W(t_from): m steps composed in time order.

    ``k`` is a scalar, giving one (2, 2) block, or an array of momenta, giving
    a stack of shape k.shape + (2, 2) composed in one pass over the steps
    (``_compose``, one problem); the stack is a view of its entry-major
    buffer.
    """
    if m < 1:
        raise ValueError("m must be positive")
    mats = params.step_matrices(t_from, t_from + m - 1)
    return _compose(np.exp(1j * np.asarray(k, dtype=float))[None], mats[..., None],
                    params.matrix_before_shift)[0]


def _compose(phase: np.ndarray, mats, before: bool) -> np.ndarray:
    """Products W(T_p) ... W(1) for P problems at once, each over its own momenta.

    ``phase`` is exp(i*k) of shape (P,) + s, problem p's momenta being k[p]
    (a search takes it once for a grid it scans many times). ``mats`` is a
    sequence over the steps t = 1, 2, ... of (2, 2, n_t) arrays, where column
    p is problem p's matrix M(t). The problems are sorted longest first, so
    the n_t never grow: problem p has T_p steps and leaves the product when
    n_t drops to p or below. ``before`` is ``WalkParams.matrix_before_shift``
    for every problem: W = S(k) M if true, else M S(k).

    Each problem's momenta are flattened to one axis of length K. One
    preallocated (5, 2, 2, P, K) buffer holds the shift stack, the block,
    a scratch and two running products that swap roles each step. A step
    writes the four block entries in one call, with the shift as the first
    factor and each problem's matrix broadcast over its momenta. It then
    forms block @ product entry by entry on contiguous (P, K) entry views,
    made once per active-problem count (``_step_operands``):
    block[i, 0] * product[0, j] into the next
    product, block[i, 1] * product[1, j] into the scratch, then one sum of
    the two. No step allocates or broadcasts over a 2-axis, and the operand
    order is that of the 2x2-last composition ``tests/conftest.py`` keeps,
    so the bits are too. When problems leave, their blocks are copied out
    and the rest go on compacted to the front of the buffer, which keeps
    every operand contiguous. The result is a view of shape
    (P,) + s + (2, 2).
    """
    flat = phase.reshape(phase.shape[0], -1)
    # work[0] is the shift stack, [1] the block, [2] the scratch, and [3] and
    # [4] the running products
    store = np.empty(20 * flat.size, dtype=complex)
    work = store.reshape((5, 2, 2) + flat.shape)
    # diag(S(k)) scales the rows of M (S(k) M) or its columns (M S(k))
    rows = work[0] if before else work[0].swapaxes(0, 1)
    rows[0] = flat
    np.conjugate(flat, out=rows[1])
    work[3] = np.eye(2)[:, :, None, None]
    multiply, add = np.multiply, np.add
    done = None
    src = 3  # work[src] is the running product
    shift, block, scratch, steps = _step_operands(work)
    for mat in mats:
        n = mat.shape[2]
        if n < work.shape[3]:
            # problems n, n+1, ... are complete: keep their blocks, then move the
            # shift and product of the rest to the front of the store, compact
            # (numpy copies a source that overlaps its destination first)
            if done is None:
                done = np.empty((2, 2) + flat.shape, dtype=complex)
            done[:, :, n:work.shape[3]] = work[src, :, :, n:]
            kept = work
            work = store[:20 * n * flat.shape[1]].reshape((5, 2, 2, n) + flat.shape[1:])
            work[0], work[src] = kept[0, :, :, :n], kept[src, :, :, :n]
            shift, block, scratch, steps = _step_operands(work)
        multiply(shift, mat[..., None], block)
        products, out = steps[src]
        for x, a, dst in products:
            multiply(x, a, dst)
        add(out, scratch, out)
        src = 7 - src
    out = work[src]
    if done is not None:
        done[:, :, :out.shape[2]] = out
        out = done
    out = out.reshape((2, 2) + phase.shape)
    return out.transpose(tuple(range(2, out.ndim)) + (0, 1))


# The (x, a, dst) of the eight products x * a of a step from the product
# work[src], src = 3 or 4, as indices of work's 20 entries (entry (i, j) of
# work[w] is 4 w + 2 i + j): block[i, l] * product[l, j] goes to entry (i, j)
# of the next product work[7 - src] for l = 0 and of the scratch for l = 1.
_PRODUCTS = {src: [(4 + 2 * i + l, 4 * src + 2 * l + j, 4 * (7 - src, 2)[l] + 2 * i + j)
                   for i in (0, 1) for j in (0, 1) for l in (0, 1)]
             for src in (3, 4)}


def _step_operands(work: np.ndarray):
    """(shift, block, scratch, steps) of ``_compose``'s steps on ``work``, (5, 2, 2, n, K).

    The first three are work[0], [1] and [2]. steps[src] is (products, out)
    for a step from the product work[src] to out = work[7 - src]: the
    ``_PRODUCTS`` as contiguous (n, K) entry views, and the array that
    out + scratch is summed into.
    """
    entries = list(work.reshape((20,) + work.shape[3:]))
    steps = {src: ([(entries[x], entries[a], entries[d]) for x, a, d in products],
                   work[7 - src])
             for src, products in _PRODUCTS.items()}
    return work[0], work[1], work[2], steps


def alpha_tilde(params: WalkParams, k):
    """a~(k), the first diagonal entry of C S(k) in the kick's eigenbasis.

    ``k`` is a scalar or an array of momenta; the result has its shape:
    u e^(ik) + v e^(-ik) (``_alpha_tilde_terms``). Both rules give d~ = conj(a~).
    """
    phase = np.exp(1j * np.asarray(k, dtype=float))
    u, v = _alpha_tilde_terms(params)
    return u * phase + v * phase.conj()


def _alpha_tilde_terms(params: WalkParams) -> tuple[complex, complex]:
    """(u, v) of a~: ((a - conj(b))/2, (conj(a) + b)/2) under RX_FIELD, (a, 0) under GAUGED_SZ."""
    a, b = complex(params.coin_a), complex(params.coin_b)
    if params.time_rule is TimeRule.RX_FIELD:
        return (a - b.conjugate()) / 2.0, (a.conjugate() + b) / 2.0
    return a, 0j


def alpha_tilde_sup(a: complex, b: complex) -> float:
    """sup over k of |a~(k)| for the x-rotation rule, in closed form.

    It is |u| + |v| in the (u, v) form of ``alpha_tilde``, computed as
    sqrt(1/2 + |a^2 - conj(b)^2|/2) since |u|^2 + |v|^2 = 1/2 and
    |u v| = |a^2 - conj(b)^2|/4. Balanced coins (|a|=|b|=1/sqrt 2 with
    a^2 = conj(b)^2) give 1/sqrt(2); a = i/sqrt(2), b = 1/sqrt(2) gives 1.
    """
    a, b = complex(a), complex(b)
    return math.sqrt(0.5 + 0.5 * abs(a * a - np.conj(b) ** 2))


def _primitive_order_check(eigenvalue: complex, m: int) -> None:
    angle = cmath.phase(eigenvalue)
    j = round(angle * m / TWO_PI) % m
    approx = TWO_PI * j / m
    diff = abs(cmath.exp(1j * approx) - eigenvalue)
    if diff > 1e-8:
        raise ValueError(
            f"R's eigenphase {angle!r} is not an m-th root of unity for m={m}")
    if gcd(j, m) != 1 and not (j == 0 and m == 1):
        raise ValueError(
            f"R's eigenvalues must be primitive {m}-th roots of unity; "
            f"got exp(2*pi*i*{j}/{m}) whose order divides m properly")


def trace_formula(M: np.ndarray, R: np.ndarray, m: int) -> complex:
    """Closed form for tr(M R^0 M R^1 ... M R^(m-1)); see module docstring.

    R is validated and diagonalized by ``_rotation_frame``; the closed form in
    its eigenbasis is ``_closed_trace``. Callers with many M for one R (the
    ``trace-check`` experiment) call the two separately, the first once.

    Raises
    ------
    ValueError
        If R is not unitary, R^m != I within 1e-10, or R's eigenvalues are
        not primitive m-th roots of unity (the formula's validity domain).
    """
    if m < 1:
        raise ValueError("m must be positive")
    M = np.asarray(M, dtype=complex)
    basis = _rotation_frame(R, m)
    mt = basis @ M @ basis.conj().T
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return _closed_trace(mt[0, 0], mt[1, 1], det, m)


def _rotation_frame(R: np.ndarray, m: int) -> np.ndarray:
    """The eigenbasis B of R (B R B^dagger diagonal) after every check ``trace_formula`` makes.

    Raises the ValueError ``trace_formula`` documents when R is outside the
    formula's validity domain for this m (``m`` itself must be positive).
    """
    R = np.asarray(R, dtype=complex)
    if not is_unitary(R, tol=1e-10):
        raise ValueError("R must be unitary within 1e-10")
    basis, lam1, lam2 = eigenbasis_unitary2(R)
    _primitive_order_check(lam1, m)
    _primitive_order_check(lam2, m)
    if abs(lam1 * lam2 - 1.0) > 1e-8 and abs(lam1 - lam2) > 1e-8:
        raise ValueError("R's eigenvalues must form a conjugate pair")
    return basis


def _closed_trace(at, dt, det, m: int):
    """tau_m from the diagonal entries a~, d~ of M in R's eigenbasis and det(M).

    The arithmetic runs on whatever scalars it is given; ``trace_formula``
    passes numpy complex scalars, and the result's bits depend on that.
    """
    if m % 2 == 1:
        return at ** m + dt ** m
    half = m // 2
    return -(at ** m + dt ** m) + 2.0 * (-1) ** half * ((at * dt) ** half - det ** half)


def regrouped_trace(k, params: WalkParams, m: int):
    """tr W^{[m,1]}(k) via the closed trace formula (no m-fold product).

    ``k`` is a scalar or an array of momenta. Raises ValueError unless the
    field is rational with denominator m, the only fields the form holds for.
    """
    if not params.field.is_rational or params.field.denominator != m:
        raise ValueError("the regrouped trace requires a rational field with denominator m")
    at = alpha_tilde(params, k)
    # det = 1: special-unitary coin and unit-determinant shift block
    return _closed_trace(at, np.conj(at), 1.0, m)


def dispersion(k, params: WalkParams, m: int):
    """Eigenphases (omega_plus, omega_minus) of the regrouped block W^{[m,1]}(k).

    The block is special-unitary, so its eigenvalues are exp(+/- i*omega) with
    2*cos(omega) = tr W^{[m,1]}(k), taken from ``regrouped_trace``; ``k`` is a
    scalar or an array of momenta. In terms of a~ = |a~| e^(i*theta):

        m odd:  cos(omega) = |a~|^m cos(m*theta)
        m even: cos(omega) = -|a~|^m cos(m*theta) + (-1)^(m/2+1) (1 - |a~|^m)

    As |a~|^m -> 0 the block tends to -I (m odd, after squaring to 2m steps)
    or (-1)^(m/2+1) I (m even), which is the revival mechanism.

    Raises
    ------
    ValueError
        If the field is not rational with denominator m (``regrouped_trace``),
        or a cosine leaves [-1, 1] by more than 1e-9 (implementation
        inconsistency: the trace of a special-unitary matrix cannot).
    """
    c = regrouped_trace(k, params, m).real / 2.0
    worst = float(np.max(np.abs(c)))
    if worst > 1.0 + 1e-9:
        raise ValueError(f"dispersion cosine modulus {worst!r} exceeds 1: inconsistent inputs")
    omega = np.arccos(np.clip(c, -1.0, 1.0))
    return (omega, -omega)
