"""Euclidean covariant two-point kernels and measurements of their identities.

Four kernels, one per :class:`~rqmcheck.spacetime.KernelVariant`:

* momentum space: ``D^s(p_e . sigma_variant) / (p_e^2 + m^2)``
* on shell (after the energy contour integral): ``D^s(M_v(p)) / omega`` with
  ``M_v(p)`` the positive Hermitian matrix at ``p_e^0 -> -i omega``, built
  as the RIGHT kernel ``D^s(omega + p.sigma) / omega`` and read for the
  other variants at the same momentum through :func:`variant_kernels`
* position space, every spin: ``kappa (i m^2)^{2s} K_{2s+1}(u) / u^{2s+1}
  D^s(z . sigma_v)`` with ``kappa = 2 m^2 / (2 pi)^2`` and ``u = m |z|``,
  the degree-2s derivative polynomial ``D^s(-i d . sigma_v)`` acting on
  the scalar ``kappa K1(u) / u``

:func:`variant_kernels` and :func:`variant_pair_action` follow from the
variant flags ``dual`` (sigma2-conjugation) and ``left`` (transposition).

The scalar position kernel is the 4D inverse Fourier transform of
``2 / ((2 pi)^4 (p^2 + m^2))``; the prefactor above is fixed by that
identity and enforced by an independent radial-integral oracle in the
acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np

from .spacetime import (KernelVariant, canonical_boost, eucl_to_matrix,
                        euclidean_square, mink_to_matrix, orth_from_pair)
from .spin import dim, wigner_d, wigner_d_entries

#: tail of the K0/K1 trapezoid rule (see _bessel_k01): a point's terms
#: stop where x (cosh t - 1) passes it, dropping under exp(-40) ~ 4e-18 of
#: the sum, and the step pi^2 / (x + 40) holds the discretization error,
#: about exp(x - pi^2 / h), to the same exp(-40)
_K_TAIL = 40.0

#: momenta per block of an on-shell kernel build
POINT_BLOCK = 16384

#: intervals per block of the residue trapezoids: the energy grid and its
#: integrands are formed one block at a time, so the scratch stays under
#: 1 MB whatever the node count
RESIDUE_BLOCK = 4096


def _bessel_k01(x):
    """K0 and K1 at x > 0 by the trapezoid rule in t on
    ``e^x K_nu(x) = int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt``.

    The integrand is analytic in the strip ``|Im t| < pi/2``, where it
    grows at most like ``e^x``, so the rule converges geometrically for
    every x > 0 with error about ``exp(x - pi^2 / h)`` (Trefethen and
    Weideman, SIAM Review 56 (2014) 385).  Each point sums its own terms,
    k h with ``2 x sinh^2(k h / 2) <= _K_TAIL``, so its value does not
    depend on the rest of the batch; the points are sorted by term count
    and term k runs over the points that still need it.  Where
    ``exp(-x)`` is 0 or NaN (x > 745, +inf, NaN) the sum is taken at
    x = 1 and the product keeps the 0 or NaN.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("modified Bessel K requires positive argument")
    decay = np.exp(-x.ravel())
    xs = np.where(decay > 0.0, x.ravel(), 1.0)
    step = np.pi ** 2 / (xs + _K_TAIL)
    # sqrt(2 x) sinh(t / 2), not 2 x sinh^2(t / 2): no overflow at x = 5e-324
    root = np.sqrt(2.0 * xs)
    count = (2.0 * np.arcsinh(np.sqrt(_K_TAIL) / root) / step).astype(int)
    order = np.argsort(count)
    count, step, root = count[order], step[order], root[order]
    sums = np.full((2, xs.size), 0.5)
    starts = np.searchsorted(count, np.arange(1, count.max(initial=0) + 1))
    for k, lo in enumerate(starts, start=1):
        half = np.sinh((0.5 * k) * step[lo:])
        term = np.exp(-np.square(root[lo:] * half))
        sums[0, lo:] += term
        # term cosh t as term (1 + 2 sinh^2(t / 2)), multiplied in so that
        # it stays finite wherever the sum does
        sums[1, lo:] += term + 2.0 * (term * half) * half
    out = np.empty_like(sums)
    out[:, order] = sums * step
    out *= decay
    return out[0].reshape(x.shape), out[1].reshape(x.shape)


def _bessel_at(x, order: int):
    """K of any order n >= 0 at x > 0: a float for a scalar x, else an
    array.  Orders above 1 come from the upward recurrence
    ``K_{j+1} = K_{j-1} + (2 j / x) K_j``, which is stable for K."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    k_prev, k = _bessel_k01(xa)
    if order == 0:
        k = k_prev
    for j in range(1, order):
        k_prev, k = k, k_prev + (2.0 * j / xa) * k
    return float(k[0]) if np.ndim(x) == 0 else k


def bessel_k0(x):
    """Modified Bessel function of the second kind, order 0."""
    return _bessel_at(x, 0)


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1.

    One trapezoid rule for every x > 0 (see ``_bessel_k01``); relative
    error at most 2e-15 against ``scipy.special.k1`` on [1e-6, 600].
    """
    return _bessel_at(x, 1)


def scalar_position_kernel(m: float, r):
    """Scalar position kernel ``(2 m^2/(2 pi)^2) K1(m r)/(m r)`` at radius r."""
    r = np.asarray(r, dtype=float)
    u = m * r
    return 2.0 * m * m / (2.0 * np.pi) ** 2 * bessel_k1(u) / u


def momentum_kernel(variant: KernelVariant, m: float, two_s: int,
                    p_e) -> np.ndarray:
    """Euclidean momentum-space kernel ``D^s(p_e . sigma_v) / (p_e^2 + m^2)``."""
    p_e = np.asarray(p_e, dtype=float)
    denom = euclidean_square(p_e) + m * m
    if denom <= 1e-14:
        raise ValueError("momentum lies on the Euclidean mass sphere pole")
    M = eucl_to_matrix(p_e, variant)
    return wigner_d_entries(two_s, M[0, 0], M[0, 1], M[1, 0], M[1, 1]) / denom


def variant_kernels(right: np.ndarray, variants) -> list:
    """Each of ``variants``' on-shell kernels from the RIGHT one at the same
    momenta, by the variant's two defining involutions: ``left`` transposes
    (u, v), and ``dual`` conjugates by the signed anti-diagonal
    ``D^s(i sigma2)``, which reverses both indices with sign
    ``(-1)^(u + v)``.  Both are exact (index moves and negations), so RIGHT
    and LEFT are views of ``right``, and the dual variants share one signed
    copy, LEFT_DUAL as its transposed view."""
    dual = None
    if any(v.dual for v in variants):
        sign = (-1.0) ** np.arange(len(right))
        dual = right[::-1, ::-1] * np.multiply.outer(sign, sign)[..., None]
    kernels = [dual if v.dual else right for v in variants]
    return [k.swapaxes(0, 1) if v.left else k
            for k, v in zip(kernels, variants)]


def _right_kernel_block(m: float, two_s: int, p: np.ndarray,
                        omega: np.ndarray | None) -> np.ndarray:
    """The RIGHT on-shell kernel at the (N, 3) momenta ``p``, one block,
    with ``omega`` at them formed here when not given."""
    if omega is None:
        omega = np.sqrt(m * m + np.einsum("ni,ni->n", p, p))
    x, y, z = p.T
    # the off-diagonal entries (x -+ i y) / m built from their parts: the
    # same values as the complex expressions, in fewer passes
    upper = np.empty(len(p), dtype=complex)
    upper.real, upper.imag = x, y
    np.negative(upper.imag, out=upper.imag)
    upper /= m
    D = wigner_d_entries(two_s, (omega + z) / m, upper, upper.conj(),
                         (omega - z) / m)
    if m ** two_s != 1.0:
        D *= m ** two_s
    # omega cast once: the same complex division as casting per entry
    D /= omega.astype(complex)
    return D


def onshell_kernel_grid(variant: KernelVariant, m: float, two_s: int,
                        points: np.ndarray, *,
                        omega: np.ndarray | None = None) -> np.ndarray:
    """On-shell kernel ``D^s(M_v(p)) / omega`` at (N, 3) momenta, shape
    ``(2s+1, 2s+1, N)``.  The RIGHT kernel ``D^s(omega + p.sigma) / omega``,
    its entries mass-rescaled, is built :data:`POINT_BLOCK` points at a
    time, so the scratch of the D polynomial and its Kahan sums is
    block-sized, and up to one block is returned as built; the other
    variants are read from it at the same momenta
    (:func:`variant_kernels`).  Those equal ``D^s`` of the RIGHT matrix at
    the reflected momentum (``left`` flips p_y, ``dual`` p_x and p_z) up
    to the rounding of the D polynomial, none at ``2s <= 1``.  ``omega``,
    when given, is ``sqrt(m^2 + |p|^2)`` at the points, as a caller that
    holds it already has it (a grid slab, :func:`hilbert.plane_omega`);
    else it is formed here."""
    points = np.asarray(points, dtype=float)
    if len(points) <= POINT_BLOCK:
        out = _right_kernel_block(m, two_s, points, omega)
    else:
        out = np.empty((two_s + 1, two_s + 1, len(points)), dtype=complex)
        for lo in range(0, len(points), POINT_BLOCK):
            block = slice(lo, lo + POINT_BLOCK)
            out[..., block] = _right_kernel_block(
                m, two_s, points[block],
                None if omega is None else omega[block])
    return variant_kernels(out, (variant,))[0]


def onshell_kernel(variant: KernelVariant, m: float, two_s: int,
                   p) -> np.ndarray:
    """On-shell kernel at one momentum, shape ``(2s+1, 2s+1)``."""
    points = np.reshape(np.asarray(p, dtype=float), (1, 3))
    return onshell_kernel_grid(variant, m, two_s, points)[..., 0]


def position_kernel(variant: KernelVariant, m: float, two_s: int,
                    z) -> np.ndarray:
    """Position-space kernel at the Euclidean point z, every spin:
    ``kappa (i m^2)^{2s} K_{2s+1}(u) / u^{2s+1} D^s(z . sigma_v)``.

    It is ``D^s(-i d . sigma_v)`` acting on the scalar ``kappa K1(u) / u``.
    The entries of ``D^s(z . sigma_v)`` are harmonic polynomials of degree
    2s in z, so by Hobson's theorem the derivative polynomial acts as the
    same polynomial in z times ``(r^-1 d/dr)^{2s}`` of the radial scalar,
    which is ``(-m^2)^{2s} K_{2s+1}(u) / u^{2s+1}`` (DLMF 10.29.4).  The
    polynomial is taken at ``m z / r``, its degree absorbing ``u^{2s}``, so
    the radial factor is ``kappa i^{2s} K_{2s+1}(u) / u`` and overflows
    only where the kernel does.  A kernel entry that is not finite raises
    ``ValueError``: at r = 0, and at any r so small that
    ``K_{2s+1}(u) / u`` passes the float range.
    """
    z = np.asarray(z, dtype=float)
    r = math.hypot(*z)
    u = m * r
    out = None
    if u > 0.0:
        kappa = 2.0 * m * m / (2.0 * np.pi) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            D = wigner_d_entries(
                two_s, *eucl_to_matrix(z * (m / r), variant).ravel())
            out = (1j ** two_s * kappa * _bessel_at(u, two_s + 1) / u) * D
    if out is None or not np.all(np.isfinite(out)):
        raise ValueError(f"position kernel is not finite at r = {r!r}, "
                         f"2s = {two_s}")
    return out


def check_factorization(m: float, two_s: int, p) -> float:
    """Positivity factorization of the on-shell spin matrix.

    Measures ``max |D^s(p.sigma/m) - D^s(Lc(p)) D^s(Lc(p))^dag|`` with the
    canonical boost Lc(p).
    """
    p = np.asarray(p, dtype=float)
    omega = np.sqrt(m * m + np.dot(p, p))
    M = mink_to_matrix(np.array([omega, p[0], p[1], p[2]])) / m
    lhs = wigner_d_entries(two_s, M[0, 0], M[0, 1], M[1, 0], M[1, 1])
    dboost = wigner_d(two_s, canonical_boost(p, m))
    return float(np.max(np.abs(lhs - dboost @ dboost.conj().T)))


def variant_pair_action(variant: KernelVariant, A: np.ndarray,
                        B: np.ndarray):
    """(left, right) factors by which the SU(2) pair (A, B) acts on the
    variant's matrix realization: ``X -> left @ X @ right``."""
    a, b = (B, A) if variant.left else (A, B)
    if variant.dual:
        a, b = a.conj(), b.conj()
    return a, b.T


def check_kernel_covariance(variant: KernelVariant, m: float, two_s: int,
                            A, B, p_e) -> float:
    """Covariance of the momentum kernel under the Euclidean pair action.

    Max-entry deviation of ``D^s`` of the variant-appropriate two-sided
    action on ``p_e . sigma_v`` from ``D^s`` at the rotated momentum
    O(A,B) p_e.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    p_e = np.asarray(p_e, dtype=float)
    O = orth_from_pair(A, B)
    left, right = variant_pair_action(variant, A, B)
    M = left @ eucl_to_matrix(p_e, variant) @ right
    lhs = wigner_d_entries(two_s, M[0, 0], M[0, 1], M[1, 0], M[1, 1])
    Mr = eucl_to_matrix(O @ p_e, variant)
    rhs = wigner_d_entries(two_s, Mr[0, 0], Mr[0, 1], Mr[1, 0], Mr[1, 1])
    return float(np.max(np.abs(lhs - rhs)))


def check_residue_consistency(variant: KernelVariant, m: float, two_s: int,
                              p, tau: float, nodes: int = 200_000) -> float:
    """Energy contour integral of the momentum kernel vs the on-shell one.

    Integrates ``(1/pi) exp(-i p0 tau) D^s(p_e.sigma_v) / (p0^2 + omega^2)``
    over p0 in [-200 m, 200 m] by trapezoid; the value is its max-entry
    deviation from ``onshell_kernel * exp(-omega tau)``, relative to that
    matrix's largest entry.  The polynomial part of the numerator (pure
    contact terms, vanishing for tau > 0) is divided out exactly entry by
    entry, and the slowly decaying 1/p0 and 1/p0^2 tails are corrected
    with sine/cosine integrals so the comparison is uniform in spin.
    """
    from scipy.special import sici

    p = np.asarray(p, dtype=float)
    window = 200.0 * m
    omega2 = m * m + np.dot(p, p)
    omega = np.sqrt(omega2)
    n = dim(two_s)
    # numerator entries as exact polynomials in p0 (degree <= 2s), from
    # their values at p0 = 0, ..., 2s; coeffs[k] multiplies p0^k
    p0 = np.arange(two_s + 1, dtype=float)
    M = eucl_to_matrix(np.stack([p0, *np.outer(p, np.ones_like(p0))]),
                       variant)
    samples = wigner_d_entries(two_s, M[:, 0, 0], M[:, 0, 1], M[:, 1, 0],
                               M[:, 1, 1])
    coeffs = np.linalg.solve(np.vander(p0, increasing=True),
                             samples.reshape(n * n, -1).T)
    # remainder mod p0^2 + omega^2 by p0^2 -> -omega^2, c0 + c1 p0 per
    # entry (the quotient is the distributional part: zero for tau > 0)
    shrink = (-omega2) ** (np.arange(two_s + 1)[:, None] // 2)
    c0, c1 = (np.sum(shrink[r::2] * coeffs[r::2], axis=0).reshape(n, n)
              for r in (0, 1))
    # two trapezoids, of 1 and of p0 over p0^2 + omega^2, then serve every
    # entry, each with its 1/p0 and 1/p0^2 tail corrections; both run over
    # the nodes of np.linspace(-window, window, nodes), block by block,
    # each block's rule ending on the node where the next one starts
    step = 2.0 * window / (nodes - 1)
    integral = np.zeros(2, dtype=complex)
    for lo in range(0, nodes - 1, RESIDUE_BLOCK):
        hi = min(lo + RESIDUE_BLOCK, nodes - 1)
        grid = np.arange(lo, hi + 1) * step - window
        if hi == nodes - 1:
            grid[-1] = window
        weight = np.exp(-1j * grid * tau) / (grid * grid + omega2)
        integral += np.trapezoid([weight, grid * weight], grid)
    si_val, _ = sici(window * tau)
    tail_lin = -2j * (0.5 * np.pi - si_val)
    tail_const = (2.0 * np.cos(window * tau) / window
                  - 2.0 * tau * (0.5 * np.pi - si_val))
    result = (c0 * (integral[0] + tail_const)
              + c1 * (integral[1] + tail_lin)) / np.pi
    target = onshell_kernel(variant, m, two_s, p) * np.exp(-omega * tau)
    scale = np.max(np.abs(target))
    return float(np.max(np.abs(result - target)) / scale)
