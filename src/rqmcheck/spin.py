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

from .report import CheckReport, make_report, worst_of

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
    negative vanish; integer powers use the convention ``0**0 = 1``.
    """
    _check_two_s(two_s)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    n = dim(two_s)
    # cumulative integer powers up to 2s
    pows = {}
    for name, arr in (("a", a), ("b", b), ("c", c), ("d", d)):
        acc = [np.ones_like(arr)]
        for _ in range(two_s):
            acc.append(acc[-1] * arr)
        pows[name] = acc
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
            acc = np.zeros_like(a)
            comp = np.zeros_like(a)
            for k in range(k_lo, k_hi + 1):
                denom = (_FACT[k] * _FACT[n_mup - k] * _FACT[n_mu - k]
                         * _FACT[k - mu_sum])
                term = (norm / denom) * pows["a"][k] * pows["c"][n_mup - k] \
                    * pows["b"][n_mu - k] * pows["d"][k - mu_sum]
                # Kahan compensation keeps alternating large terms honest
                y = term - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
            out[i, j] = acc
    return out


def wigner_d(two_s: int, A, det_tol: float = 1e-10) -> np.ndarray:
    """Spin-s representation matrix of a unimodular 2x2 complex matrix."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (2, 2):
        raise ValueError("argument must be a 2x2 matrix")
    if abs(np.linalg.det(A) - 1.0) > det_tol:
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


def check_group_law(two_s: int, A, B, tolerance: float = 1e-11) -> CheckReport:
    """Max-entry deviation of ``D(A) D(B) - D(A B)``."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    dev = np.max(np.abs(wigner_d(two_s, A) @ wigner_d(two_s, B)
                        - wigner_d(two_s, A @ B)))
    return make_report("wigner_group_law", dev, tolerance,
                       inputs={"two_s": two_s})


def check_cg_addition(two_s1: int, two_s2: int, A,
                      tolerance: float = 1e-10) -> CheckReport:
    """Deviation of both angular-momentum coupling identities for D(A).

    One identity reassembles each total-spin block from the product
    ``D(s1) x D(s2)`` sandwiched between coupling coefficients, the other
    decomposes the product back into total-spin blocks.
    """
    A = np.asarray(A, dtype=complex)
    d1 = wigner_d(two_s1, A)
    d2 = wigner_d(two_s2, A)
    mus1 = magnetic_indices(two_s1)
    mus2 = magnetic_indices(two_s2)
    worst = 0.0
    for two_s in range(abs(two_s1 - two_s2), two_s1 + two_s2 + 2, 2):
        ds = wigner_d(two_s, A)
        mus = magnetic_indices(two_s)
        recon = np.zeros_like(ds)
        for i, tm in enumerate(mus):
            for j, tmp in enumerate(mus):
                acc = 0.0j
                for i1, tm1 in enumerate(mus1):
                    tm2 = tm - tm1
                    if abs(tm2) > two_s2:
                        continue
                    i2 = mus2.index(tm2)
                    cg_l = clebsch_gordan(two_s1, tm1, two_s2, tm2, two_s, tm)
                    if cg_l == 0.0:
                        continue
                    for j1, tmp1 in enumerate(mus1):
                        tmp2 = tmp - tmp1
                        if abs(tmp2) > two_s2:
                            continue
                        j2 = mus2.index(tmp2)
                        cg_r = clebsch_gordan(two_s1, tmp1, two_s2, tmp2,
                                              two_s, tmp)
                        if cg_r == 0.0:
                            continue
                        acc += cg_l * d1[i1, j1] * d2[i2, j2] * cg_r
                recon[i, j] = acc
        worst = worst_of(worst, float(np.max(np.abs(recon - ds))))
    # product decomposition: D(s1) x D(s2) from total-spin blocks
    ds_cache = {two_s: wigner_d(two_s, A)
                for two_s in range(abs(two_s1 - two_s2),
                                   two_s1 + two_s2 + 2, 2)}
    for i1, tm1 in enumerate(mus1):
        for i2, tm2 in enumerate(mus2):
            for j1, tmp1 in enumerate(mus1):
                for j2, tmp2 in enumerate(mus2):
                    acc = 0.0j
                    tm = tm1 + tm2
                    tmp = tmp1 + tmp2
                    for two_s, ds in ds_cache.items():
                        if abs(tm) > two_s or abs(tmp) > two_s:
                            continue
                        cg_l = clebsch_gordan(two_s1, tm1, two_s2, tm2,
                                              two_s, tm)
                        cg_r = clebsch_gordan(two_s1, tmp1, two_s2, tmp2,
                                              two_s, tmp)
                        if cg_l == 0.0 or cg_r == 0.0:
                            continue
                        mus = magnetic_indices(two_s)
                        acc += cg_l * ds[mus.index(tm), mus.index(tmp)] * cg_r
                    dev = abs(acc - d1[i1, j1] * d2[i2, j2])
                    worst = worst_of(worst, float(dev))
    return make_report("cg_addition", worst, tolerance,
                       inputs={"two_s1": two_s1, "two_s2": two_s2})
