"""Covariant kernels, Bessel evaluation, positivity and covariance checks."""

import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import (bessel_k1_integral, onshell_kernel_euclidean,
                     radial_position_kernel, residue_consistency_per_entry)
from rqmcheck import kernels as kr
from rqmcheck import spacetime as st
from rqmcheck import spin
from rqmcheck.spacetime import KernelVariant as KV


def test_bessel_k1_against_integral_oracle():
    assert abs(kr.bessel_k1(1.0) - bessel_k1_integral(1.0)) < 1e-12
    # frozen oracle values
    assert abs(kr.bessel_k1(1.0) - 0.6019072301972346) < 1e-12
    assert abs(kr.bessel_k1(10.0) - 1.8648773453825582e-05) < 1e-16
    rel = abs(kr.bessel_k1(10.0) - bessel_k1_integral(10.0)) \
        / bessel_k1_integral(10.0)
    assert rel < 1e-12


# each Bessel call at a boundary argument prints its value or its
# ValueError; run in a subprocess so that a loop that never ends fails
# on the timeout
_BESSEL_EDGES = """
import sys
from rqmcheck import kernels
for x in map(float, sys.argv[1:]):
    try:
        print(repr(kernels.bessel_k1(x)))
    except ValueError:
        print("ValueError")
"""


def test_bessel_k1_range_accuracy():
    """K0 and K1 against scipy on [1e-6, 600] (worst 1.3e-15 measured),
    each point's value the same alone and in a batch, the order-n helper
    for n = 0, ..., 21 against scipy's kv on the same points (worst
    6.4e-15, at n = 21), and boundary arguments that return or raise."""
    from scipy.special import k0, k1, kv
    xs = np.concatenate([np.geomspace(1e-6, 2.0, 300),
                         np.linspace(2.0, 600.0, 300)])
    for ours, ref in ((kr.bessel_k0, k0(xs)), (kr.bessel_k1, k1(xs))):
        batch = ours(xs)
        assert np.max(np.abs(batch - ref) / ref) < 4e-15
        assert [ours(x) for x in xs[::4]] == list(batch[::4])
    for n in range(22):
        ref = kv(n, xs)
        assert np.max(np.abs(kr._bessel_at(xs, n) - ref) / ref) < 1e-14, n
    edges = ["nan", "inf", "0", "-1", "5e-324", "1e-300", "1e308"]
    src = os.path.dirname(os.path.dirname(kr.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _BESSEL_EDGES, *edges], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    got = dict(zip(edges, proc.stdout.split()))
    assert got["0"] == got["-1"] == "ValueError"
    assert got["nan"] == "nan"
    assert float(got["inf"]) == float(got["1e308"]) == 0.0
    assert float(got["5e-324"]) == np.inf                # 1/x overflows
    assert float(got["1e-300"]) == pytest.approx(1e300, rel=1e-13)


def test_bessel_small_argument_limit():
    assert abs(1e-5 * kr.bessel_k1(1e-5) - 1.0) < 1e-4


def test_bessel_regime_seam_is_continuous():
    below = kr.bessel_k1(2.0 - 1e-12)
    above = kr.bessel_k1(2.0 + 1e-12)
    assert abs(below - above) / above < 1e-11


def test_bessel_rejects_nonpositive():
    with pytest.raises(ValueError):
        kr.bessel_k1(0.0)
    with pytest.raises(ValueError):
        kr.bessel_k0(-1.0)


def test_momentum_kernel_examples():
    val = kr.momentum_kernel(KV.RIGHT, 1.0, 0, [0, 0, 0, 0])
    assert np.allclose(val, [[1.0]])
    val = kr.momentum_kernel(KV.RIGHT, 1.0, 1, [1.0, 0, 0, 0])
    assert np.max(np.abs(val - 0.5j * np.eye(2))) < 1e-15


def test_momentum_kernel_is_wigner_of_matrix():
    rng = np.random.default_rng(0)
    for v in KV:
        pe = rng.normal(size=4)
        denom = st.euclidean_square(pe) + 1.0
        expected = spin.wigner_d_entries(
            2, *st.eucl_to_matrix(pe, v).reshape(-1)) / denom
        got = kr.momentum_kernel(v, 1.0, 2, pe)
        assert np.max(np.abs(got - expected)) == 0.0


def test_momentum_kernel_pole_guard():
    with pytest.raises(ValueError):
        kr.momentum_kernel(KV.RIGHT, 0.0, 0, [0, 0, 0, 0])


def test_onshell_examples():
    p = np.array([0.3, 0.4, 0.5])
    m = 1.3
    omega = np.sqrt(m * m + p @ p)
    assert abs(kr.onshell_kernel(KV.RIGHT, m, 0, p)[0, 0]
               - 1.0 / omega) < 1e-14
    rest = kr.onshell_kernel(KV.RIGHT, 2.7, 1, [0, 0, 0])
    assert np.max(np.abs(rest - np.eye(2))) < 1e-14


def test_onshell_kernel_grid_matches_euclidean_oracle():
    rng = np.random.default_rng(5)
    points = np.vstack([np.zeros(3), rng.normal(size=(6, 3)) * 1.5,
                        10.0 * np.eye(3), [[6.0, 0.0, -8.0]]])
    for v in KV:
        for two_s in range(5):
            for m in (0.7, 1.0, 1.3):
                grid = kr.onshell_kernel_grid(v, m, two_s, points)
                for n, p in enumerate(points):
                    oracle = onshell_kernel_euclidean(v, m, two_s, p)
                    rel = (np.max(np.abs(grid[..., n] - oracle))
                           / np.max(np.abs(oracle)))
                    assert rel < 1e-14, (v, two_s, m, p, rel)


#: largest difference, in units of the point's largest entry, between a
#: variant read from the RIGHT kernel and D^s at the reflected momentum:
#: the D polynomial rounds differently once its entries are sums (2s >= 2);
#: 2.7 ulp measured over 2s = 2-8 and |p| up to 100
VARIANT_ULPS = 4


@pytest.mark.parametrize("two_s", range(9))
def test_variant_kernels_equal_reflected_momentum_builds(two_s):
    """Each variant's kernel, read from the RIGHT one at the same momenta
    through transposition (left) and the signed anti-diagonal (dual),
    equals D^s(omega + p.sigma) / omega at the reflected momentum: left
    flips p_y, dual flips p_x and p_z.  Bit for bit at 2s <= 1."""
    rng = np.random.default_rng(60 + two_s)
    points = np.vstack([np.zeros(3), 10.0 * np.eye(3)]
                       + [rng.normal(size=(200, 3)) * scale
                          for scale in (0.1, 1.0, 5.0, 20.0)])
    m = 1.3
    for v in KV:
        got = kr.onshell_kernel_grid(v, m, two_s, points)
        q = points * [(-1.0) ** v.dual, (-1.0) ** v.left, (-1.0) ** v.dual]
        omega = np.sqrt(m * m + np.einsum("ni,ni->n", q, q))
        x, y, z = q.T
        want = spin.wigner_d_entries(two_s, (omega + z) / m, (x - 1j * y) / m,
                                     (x + 1j * y) / m, (omega - z) / m)
        want *= m ** two_s
        want /= omega
        if two_s <= 1:
            assert np.array_equal(got, want), v
        ulps = (np.max(np.abs(got - want), axis=(0, 1))
                / np.max(np.abs(want), axis=(0, 1)) / np.finfo(float).eps)
        assert np.max(ulps) <= VARIANT_ULPS, (v, np.max(ulps))


def test_onshell_positive_hermitian_all_variants():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = rng.normal(size=3) * 1.5
        two_s = int(rng.integers(0, 5))
        m = float(rng.uniform(0.5, 2.0))
        for v in KV:
            K = kr.onshell_kernel(v, m, two_s, p)
            assert np.max(np.abs(K - K.conj().T)) < 1e-12
            evals = np.linalg.eigvalsh(K)
            assert evals.min() >= -1e-12 * max(evals.max(), 1.0)
            assert evals.min() > 0.0


def test_factorization():
    rng = np.random.default_rng(2)
    assert kr.check_factorization(1.0, 2, [0.0, 0.0, 0.0]) == 0.0
    for _ in range(30):
        p = rng.normal(size=3)
        for two_s in (0, 1, 2, 3, 4):
            assert kr.check_factorization(1.0, two_s, p) <= 1e-10
    assert kr.check_factorization(1.0, 2, [0.0, 0.0, 10.0]) <= 1e-8


def test_kernel_covariance():
    rng = np.random.default_rng(3)
    pe = rng.normal(size=4)
    for v in KV:
        assert kr.check_kernel_covariance(v, 1.0, 1, np.eye(2), np.eye(2),
                                          pe) == 0.0
        A = st.rotation_su2(rng.normal(size=3), rng.uniform(0.3, 2.0))
        B = st.rotation_su2(rng.normal(size=3), rng.uniform(0.3, 2.0))
        assert kr.check_kernel_covariance(v, 1.0, 1, A, B, pe) <= 1e-11
    # rotations leave the rest kernel fixed
    A = st.rotation_su2([0.1, 0.7, -0.3], 1.1)
    pe_rest = np.array([0.8, 0.0, 0.0, 0.0])
    for v in KV:
        before = kr.momentum_kernel(v, 1.0, 2, pe_rest)
        O = st.orth_from_pair(A, A.conj())
        after = kr.momentum_kernel(v, 1.0, 2, O @ pe_rest)
        assert np.max(np.abs(before - after)) < 1e-12


def test_dual_metric_identity():
    rng = np.random.default_rng(4)
    pe = rng.normal(size=4)
    half_r = kr.momentum_kernel(KV.RIGHT, 1.0, 1, pe)
    half_rd = kr.momentum_kernel(KV.RIGHT_DUAL, 1.0, 1, pe)
    assert np.max(np.abs(half_rd - st.SIGMA2 @ half_r @ st.SIGMA2)) < 1e-12
    for two_s in (2, 3, 4):
        rot = spin.wigner_d(two_s, 1j * st.SIGMA2)
        lhs = kr.momentum_kernel(KV.RIGHT_DUAL, 1.0, two_s, pe)
        rhs = ((-1) ** two_s * rot
               @ kr.momentum_kernel(KV.RIGHT, 1.0, two_s, pe) @ rot)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_position_kernel_scalar_value_and_symmetry():
    got = kr.position_kernel(KV.RIGHT, 1.0, 0, [1.0, 0, 0, 0])[0, 0].real
    expected = 2.0 / (2.0 * np.pi) ** 2 * kr.bessel_k1(1.0)
    assert abs(got - expected) < 1e-16
    # frozen radial-oracle value at unit radius
    assert abs(got - 0.030492976503232436) < 1e-12
    z1 = np.array([0.6, 0.0, 0.8, 0.0])
    z2 = np.array([0.0, 1.0, 0.0, 0.0])
    a = kr.position_kernel(KV.RIGHT, 1.3, 0, z1)[0, 0]
    b = kr.position_kernel(KV.RIGHT, 1.3, 0, z2)[0, 0]
    assert abs(a - b) < 1e-14


def test_position_kernel_matches_radial_oracle():
    for r in (0.3, 1.0, 4.0):
        got = kr.position_kernel(KV.RIGHT, 1.0, 0, [r, 0, 0, 0])[0, 0].real
        oracle = radial_position_kernel(1.0, r)
        assert abs(got - oracle) / abs(oracle) < 1e-6


def test_position_kernel_decay():
    near = kr.scalar_position_kernel(1.0, 1.0)
    far = kr.scalar_position_kernel(1.0, 20.0)
    assert far / near < 1e-7


def test_position_kernel_spin_half_matches_finite_differences():
    z = np.array([0.8, 0.3, -0.4, 0.6])
    m = 1.1
    h = 1e-5

    def scalar(zz):
        return kr.scalar_position_kernel(m, np.sqrt(zz @ zz))

    for v in (KV.RIGHT, KV.LEFT, KV.RIGHT_DUAL, KV.LEFT_DUAL):
        got = kr.position_kernel(v, m, 1, z)
        fd = np.zeros((2, 2), dtype=complex)
        for mu in range(4):
            e = np.zeros(4)
            e[mu] = h
            fd += -1j * st.EUCL_SIGMA[v][mu] * (scalar(z + e)
                                                - scalar(z - e)) / (2 * h)
        assert np.max(np.abs(got - fd)) < 1e-9


def test_position_kernel_spin_one_matches_finite_differences():
    z = np.array([0.9, 0.2, -0.3, 0.5])
    m = 1.0
    h = 1e-3

    def scalar(zz):
        return kr.scalar_position_kernel(m, np.sqrt(zz @ zz))

    def d2(mu, nu):
        e1 = np.zeros(4)
        e2 = np.zeros(4)
        e1[mu] = h
        e2[nu] = h
        return (scalar(z + e1 + e2) - scalar(z + e1 - e2)
                - scalar(z - e1 + e2) + scalar(z - e1 - e2)) / (4 * h * h)

    hess = np.array([[d2(mu, nu) for nu in range(4)] for mu in range(4)])
    sqrt2 = np.sqrt(2.0)
    for variant in (KV.RIGHT, KV.LEFT, KV.RIGHT_DUAL, KV.LEFT_DUAL):
        got = kr.position_kernel(variant, m, 2, z)
        sig = st.EUCL_SIGMA[variant]
        la, lb = sig[:, 0, 0], sig[:, 0, 1]
        lc, ld = sig[:, 1, 0], sig[:, 1, 1]
        prods = [[(1, la, la)], [(sqrt2, la, lb)], [(1, lb, lb)],
                 [(sqrt2, la, lc)], [(1, la, ld), (1, lb, lc)],
                 [(sqrt2, lb, ld)], [(1, lc, lc)], [(sqrt2, lc, ld)],
                 [(1, ld, ld)]]
        fd = np.zeros((3, 3), dtype=complex)
        for idx, pairs in enumerate(prods):
            val = 0.0j
            for wgt, u, v in pairs:
                val += -wgt * np.einsum("m,n,mn->", u, v, hess)
            fd[idx // 3, idx % 3] = val
        scale = np.max(np.abs(got))
        assert np.max(np.abs(got - fd)) < 1e-5 * scale


def test_position_kernel_guards():
    """The kernel is finite above 2s = 2; a kernel entry that is not
    finite raises, at r = 0 and where K_{2s+1}(u) / u overflows (below
    r = 2e-13 at 2s = 20 and m = 1)."""
    assert np.all(np.isfinite(kr.position_kernel(KV.RIGHT, 1.0, 3,
                                                 [1.0, 0, 0, 0])))
    with pytest.raises(ValueError, match="r = 0.0, 2s = 0"):
        kr.position_kernel(KV.RIGHT, 1.0, 0, [0.0, 0, 0, 0])
    top = spin.MAX_TWO_S
    assert np.all(np.isfinite(kr.position_kernel(KV.RIGHT, 1.0, top,
                                                 [1e-12, 0, 0, 0])))
    with pytest.raises(ValueError, match=f"r = 1e-14, 2s = {top}"):
        kr.position_kernel(KV.RIGHT, 1.0, top, [1e-14, 0, 0, 0])


def test_position_kernel_covariance_at_every_spin():
    """``D^s(left) G_s(z) D^s(right) = G_s(O(A, B) z)`` for every variant
    and 2s <= MAX_TWO_S; the measured worst over 20 seeds, relative to the
    largest entry, is 4.0e-15 (2s + 1)."""
    rng = np.random.default_rng(11)
    for two_s in range(spin.MAX_TWO_S + 1):
        for v in KV:
            z = rng.normal(size=4)
            A = st.rotation_su2(rng.normal(size=3), rng.uniform(0.3, 2.0))
            B = st.rotation_su2(rng.normal(size=3), rng.uniform(0.3, 2.0))
            left, right = kr.variant_pair_action(v, A, B)
            lhs = (spin.wigner_d(two_s, left)
                   @ kr.position_kernel(v, 1.3, two_s, z)
                   @ spin.wigner_d(two_s, right))
            rhs = kr.position_kernel(v, 1.3, two_s,
                                     st.orth_from_pair(A, B) @ z)
            rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
            assert rel < 1e-14 * (two_s + 1), (two_s, v, rel)


def _onshell_fourier(v, m, two_s, tau, x):
    """``int d^3p / (2 pi)^3 e^{i p.x} e^{-omega tau}`` times the on-shell
    kernel, on a spherical product rule: Gauss-Laguerre in |p| scaled by
    1 / tau, Gauss-Legendre in cos(theta) and the trapezoid rule in phi
    (60 nodes, enough to resolve e^{i p.x} for x with a transverse part)."""
    t, wt = np.polynomial.laguerre.laggauss(80)
    c, wc = np.polynomial.legendre.leggauss(60)
    phi = 2.0 * np.pi * np.arange(60) / 60
    p = t / tau
    sin = np.sqrt(1.0 - c * c)
    pts = np.stack(np.broadcast_arrays(
        p[:, None, None] * sin[:, None] * np.cos(phi),
        p[:, None, None] * sin[:, None] * np.sin(phi),
        p[:, None, None] * c[:, None]), axis=-1).reshape(-1, 3)
    omega = np.sqrt(m * m + p * p)
    # e^{-omega tau} = e^{-t} e^{-(omega - p) tau}, the e^{-t} in the rule
    radial = wt * p * p / tau * np.exp(-m * m / (omega + p) * tau)
    w = (radial[:, None, None] * wc[:, None] * (2.0 * np.pi / 60)
         * np.ones_like(phi)).ravel()
    phase = np.exp(1j * (pts @ x)) / (2.0 * np.pi) ** 3
    return kr.onshell_kernel_grid(v, m, two_s, pts) @ (w * phase)


@pytest.mark.parametrize("two_s", (1, 3, 6))
def test_position_kernel_is_the_fourier_transform_of_the_onshell_kernel(
        two_s):
    """``G_s(-tau, x)`` equals the 3-D Fourier transform of ``e^{-omega
    tau}`` times the on-shell kernel, with no fitted constant (worst
    2.9e-13 relative measured at 2s = 1, 3, 6); the unreflected point
    ``(tau, x)`` does not."""
    m, tau, x = 1.3, 0.9, np.array([0.3, -0.4, 0.5])
    for v in KV:
        got = _onshell_fourier(v, m, two_s, tau, x)
        want = kr.position_kernel(v, m, two_s, [-tau, *x])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale, v
        wrong = kr.position_kernel(v, m, two_s, [tau, *x])
        assert np.max(np.abs(got - wrong)) > 1e-2 * scale, v


def test_residue_consistency():
    for v in KV:
        for two_s in (0, 1, 2):
            dev = kr.check_residue_consistency(v, 1.0, two_s,
                                               [0.3, -0.2, 0.5], 1.0,
                                               nodes=200001)
            assert dev <= 1e-4, (v, two_s, dev)


@pytest.mark.parametrize("two_s", range(5))
def test_residue_shared_integrals_match_per_entry_trapezoids(two_s):
    # both values are deviations relative to the kernel's largest entry,
    # so the bound is 1e-12 relative to that entry
    rng = np.random.default_rng(40 + two_s)
    for v in KV:
        p = rng.normal(size=3) * 0.5
        dev = kr.check_residue_consistency(v, 1.3, two_s, p, 1.0 / 1.3)
        ref = residue_consistency_per_entry(v, 1.3, two_s, p, 1.0 / 1.3)
        assert abs(dev - ref) <= 1e-12, (v, dev, ref)
