"""Wigner D-matrices, spin matrices and Clebsch-Gordan coefficients.

Spins are passed as doubled integers (``two_s = 2s``) so half-integer
values stay exact.  Magnetic indices are ordered descending: row/column
``i`` of a ``(2s+1) x (2s+1)`` matrix carries ``mu = s - i``.

The D-matrix is the degree-``2s`` matrix polynomial in the entries of its
2x2 argument; it is evaluated for arbitrary unimodular complex arguments,
not just SU(2) ones, which is what makes the analytically continued group
law and coupling identities checkable.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .report import worst_of

MAX_TWO_S = 20

#: exact integer factorials, index up to 2 * MAX_TWO_S
_FACT = [math.factorial(n) for n in range(2 * MAX_TWO_S + 2)]


def dim(two_s: int) -> int:
    return two_s + 1


def magnetic_indices(two_s: int) -> list[int]:
    """Doubled magnetic quantum numbers, descending from +2s to -2s."""
    return list(range(two_s, -two_s - 2, -2))


def _check_two_s(two_s: int):
    if not isinstance(two_s, (int, np.integer)) or two_s < 0:
        raise ValueError("two_s must be a nonnegative integer")
    if two_s > MAX_TWO_S:
        raise ValueError(f"two_s = {two_s} exceeds factorial-table bound "
                         f"{MAX_TWO_S}")


def wigner_d_entries(two_s: int, a, b, c, d) -> np.ndarray:
    """D-matrix from the four entries of ``[[a, b], [c, d]]``.

    The entries may be scalars or broadcasting arrays; the result has shape
    ``(2s+1, 2s+1) + shape(a)``.  Terms whose factorial arguments would be
    negative vanish; integer powers use the convention ``0**0 = 1``, which
    holds because a zeroth power is never multiplied in: the power tables
    start at power 1.  Each entry's alternating sum is Kahan-compensated
    from its first term on, so an entry with one term (every spin-1/2
    entry) is that term with no summation arithmetic.
    """
    _check_two_s(two_s)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    n = dim(two_s)
    # integer powers 1..2s; index 0 is never read
    pows = []
    for arr in (a, c, b, d):
        acc = [None, arr]
        for _ in range(two_s - 1):
            acc.append(acc[-1] * arr)
        pows.append(acc)
    out = np.zeros((n, n) + a.shape, dtype=complex)
    for i in range(n):
        n_mu = two_s - i          # s + mu in integer units
        for j in range(n):
            n_mup = two_s - j     # s + mu'
            mu_sum = n_mu + n_mup - two_s   # mu + mu' in integer units
            k_lo = max(0, mu_sum)
            k_hi = min(n_mu, n_mup)
            if k_hi < k_lo:
                continue
            norm = math.sqrt(_FACT[n_mu] * _FACT[two_s - n_mu]
                             * _FACT[n_mup] * _FACT[two_s - n_mup])
            acc = comp = None
            for k in range(k_lo, k_hi + 1):
                denom = (_FACT[k] * _FACT[n_mup - k] * _FACT[n_mu - k]
                         * _FACT[k - mu_sum])
                term = norm / denom
                # factors in the order a^k c^(s+mu'-k) b^(s+mu-k) d^(k-mu-mu')
                for table, power in zip(pows, (k, n_mup - k, n_mu - k,
                                               k - mu_sum)):
                    if power:
                        term *= table[power]
                if acc is None:
                    acc = term
                    continue
                # Kahan compensation keeps alternating large terms honest
                y = term if comp is None else term - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
            out[i, j] = acc
    return out


def wigner_d(two_s: int, A) -> np.ndarray:
    """Spin-s representation matrix of a unimodular 2x2 complex matrix."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (2, 2):
        raise ValueError("argument must be a 2x2 matrix")
    if not abs(np.linalg.det(A) - 1.0) <= 1e-10:
        raise ValueError("argument must have unit determinant")
    return wigner_d_entries(two_s, A[0, 0], A[0, 1], A[1, 0], A[1, 1])


def spin_matrices(two_s: int):
    """Angular-momentum matrices (Sx, Sy, Sz) in the descending basis.

    Built from Sz and the raising/lowering ladder so that
    ``[Si, Sj] = i eps_ijk Sk`` holds entrywise and Sz is diagonal with
    entries ``s, s-1, ..., -s``.
    """
    _check_two_s(two_s)
    n = dim(two_s)
    s = 0.5 * two_s
    mus = np.array([s - i for i in range(n)])
    sz = np.diag(mus).astype(complex)
    sp = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        nu = mus[i + 1]
        sp[i, i + 1] = math.sqrt(s * (s + 1) - nu * (nu + 1))
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def clebsch_gordan(two_s1: int, two_mu1: int, two_s2: int, two_mu2: int,
                   two_s: int, two_mu: int) -> float:
    """Condon-Shortley coefficient ``<s1 mu1 s2 mu2 | s mu>``.

    Out-of-range or coupling-forbidden index combinations give 0.0.
    Evaluated from the standard alternating factorial sum with exact
    rational intermediates, so the result is accurate to rounding.
    """
    for ts, tm in ((two_s1, two_mu1), (two_s2, two_mu2), (two_s, two_mu)):
        if ts < 0 or abs(tm) > ts or (ts - tm) % 2 != 0:
            return 0.0
    if two_mu1 + two_mu2 != two_mu:
        return 0.0
    if two_s < abs(two_s1 - two_s2) or two_s > two_s1 + two_s2:
        return 0.0
    if (two_s1 + two_s2 + two_s) % 2 != 0:
        return 0.0

    def f(two_n: int) -> int:
        # factorial of an integer given in doubled units
        return _FACT[two_n // 2]

    pref = Fraction(two_s + 1, 1)
    pref *= Fraction(f(two_s1 + two_s2 - two_s)
                     * f(two_s1 - two_s2 + two_s)
                     * f(-two_s1 + two_s2 + two_s),
                     f(two_s1 + two_s2 + two_s + 2))
    pref *= Fraction(f(two_s + two_mu) * f(two_s - two_mu)
                     * f(two_s1 - two_mu1) * f(two_s1 + two_mu1)
                     * f(two_s2 - two_mu2) * f(two_s2 + two_mu2), 1)

    k_lo = max(0, (two_s2 - two_s - two_mu1) // 2,
               (two_s1 + two_mu2 - two_s) // 2)
    k_hi = min((two_s1 + two_s2 - two_s) // 2,
               (two_s1 - two_mu1) // 2,
               (two_s2 + two_mu2) // 2)
    total = Fraction(0, 1)
    for k in range(k_lo, k_hi + 1):
        denom = (f(2 * k)
                 * f(two_s1 + two_s2 - two_s - 2 * k)
                 * f(two_s1 - two_mu1 - 2 * k)
                 * f(two_s2 + two_mu2 - 2 * k)
                 * f(two_s - two_s2 + two_mu1 + 2 * k)
                 * f(two_s - two_s1 - two_mu2 + 2 * k))
        total += Fraction((-1) ** k, denom)
    return math.sqrt(float(pref)) * float(total)


def coupling_matrix(two_s1: int, two_s2: int) -> np.ndarray:
    """Orthogonal matrix C of the coupling coefficients.

    Row ``i1 * (2 s2 + 1) + i2`` is the product state ``|s1 mu1> |s2 mu2>``
    (the index order of ``np.kron``); the columns run through the total
    spins s = |s1 - s2|, ..., s1 + s2, each block in descending mu.  The
    entries are :func:`clebsch_gordan`, so ``C.T @ kron(D1, D2) @ C`` is
    the block diagonal of the ``D_s``.
    """
    _check_two_s(two_s1)
    _check_two_s(two_s2)
    cols = [(two_s, tm)
            for two_s in range(abs(two_s1 - two_s2), two_s1 + two_s2 + 2, 2)
            for tm in magnetic_indices(two_s)]
    return np.array([[clebsch_gordan(two_s1, tm1, two_s2, tm2, two_s, tm)
                      for two_s, tm in cols]
                     for tm1 in magnetic_indices(two_s1)
                     for tm2 in magnetic_indices(two_s2)])


def check_group_law(two_s: int, A, B) -> float:
    """Max-entry deviation of ``D(A) D(B) - D(A B)``."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return float(np.max(np.abs(wigner_d(two_s, A) @ wigner_d(two_s, B)
                               - wigner_d(two_s, A @ B))))


def check_cg_addition(two_s1: int, two_s2: int, A) -> float:
    """Worst deviation of both angular-momentum coupling identities for D(A).

    With C the :func:`coupling_matrix`, one identity reduces the product
    ``C.T @ kron(D(s1), D(s2)) @ C`` to the block diagonal of total-spin
    matrices, the other reassembles the product ``C @ blocks @ C.T``.
    """
    A = np.asarray(A, dtype=complex)
    C = coupling_matrix(two_s1, two_s2)
    product = np.kron(wigner_d(two_s1, A), wigner_d(two_s2, A))
    blocks = np.zeros_like(product)
    start = 0
    for two_s in range(abs(two_s1 - two_s2), two_s1 + two_s2 + 2, 2):
        stop = start + dim(two_s)
        blocks[start:stop, start:stop] = wigner_d(two_s, A)
        start = stop
    return worst_of(float(np.max(np.abs(C.T @ product @ C - blocks))),
                    float(np.max(np.abs(C @ blocks @ C.T - product))))
