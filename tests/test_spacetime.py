"""Four-vector maps, group composition, boosts, polar splits, Wigner rotations."""

import numpy as np
import pytest
from scipy.linalg import expm

from rqmcheck import generators as gn
from rqmcheck import hilbert as hl
from rqmcheck import kernels as kr
from rqmcheck import spacetime as st
from rqmcheck import spin as sp
from rqmcheck.spacetime import KernelVariant as KV


def random_su2(rng):
    return st.rotation_su2(rng.normal(size=3), rng.uniform(0.1, 6.0))


def random_sl2c(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a / np.sqrt(np.linalg.det(a))


def test_mink_matrix_examples():
    assert np.allclose(st.mink_to_matrix([1, 0, 0, 0]), np.eye(2))
    assert np.allclose(st.mink_to_matrix([0, 0, 0, 1]), np.diag([1.0, -1.0]))


def test_mink_det_is_invariant_square():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=4)
        X = st.mink_to_matrix(x)
        square = x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2
        assert abs(np.linalg.det(X) - square) < 1e-12
        assert np.max(np.abs(st.matrix_to_mink(X) - x)) < 1e-15


def test_matrix_to_mink_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0j], [2.0j, 1.0]])
    with pytest.raises(ValueError):
        st.matrix_to_mink(bad)


def test_eucl_matrix_examples():
    assert np.allclose(st.eucl_to_matrix([1, 0, 0, 0], KV.RIGHT),
                       1j * np.eye(2))
    assert np.allclose(st.eucl_to_matrix([0, 0, 0, 1], KV.RIGHT),
                       np.diag([1.0, -1.0]))


def test_eucl_variants_share_determinant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=4)
        for v in KV:
            det = np.linalg.det(st.eucl_to_matrix(x, v))
            assert abs(det + st.euclidean_square(x)) < 1e-12


@pytest.mark.filterwarnings("error")
def test_euclidean_square_at_extreme_scales():
    # an unscaled dot(x, x) raised an overflow warning at |x| = 1e200; the
    # square leaves the float range only at the very end
    assert st.euclidean_square([0.0, 1e200, 0.0, 0.0]) == np.inf
    assert st.euclidean_square([1e-200, 0.0, 0.0, 0.0]) == 0.0
    assert st.euclidean_square([3e150, 0.0, 4e150, 0.0]) == pytest.approx(
        2.5e301, rel=1e-15)
    for scale in (1e200, 1e-200):
        for two_s in (0, 1):
            kernel = kr.momentum_kernel(KV.RIGHT, 1.0, two_s,
                                        [scale, 0.0, scale, 0.0])
            assert np.all(np.isfinite(kernel))


def test_variant_flags_name_the_two_involutions():
    assert [(v.dual, v.left) for v in KV] == [
        (False, False), (True, False), (False, True), (True, True)]
    x = np.random.default_rng(2).normal(size=4)
    right = st.eucl_to_matrix(x, KV.RIGHT)
    assert np.array_equal(st.eucl_to_matrix(x, KV.RIGHT_DUAL),
                          st.SIGMA2 @ right @ st.SIGMA2)
    assert np.array_equal(st.eucl_to_matrix(x, KV.LEFT), right.T)
    assert np.array_equal(st.eucl_to_matrix(x, KV.LEFT_DUAL),
                          st.SIGMA2 @ right.T @ st.SIGMA2)


def test_poincare_composition():
    rng = np.random.default_rng(2)
    ident = st.PoincareElement.identity()
    for _ in range(10):
        g = st.PoincareElement.from_fourvector(random_sl2c(rng),
                                               rng.normal(size=4))
        gi = st.compose_poincare(g, ident)
        assert np.max(np.abs(gi.lam - g.lam)) == 0.0
        assert np.max(np.abs(gi.a - g.a)) == 0.0
        # (L, A)^-1 = (L^-1, -L^-1 A L^-dag)
        lam_inv = np.linalg.inv(g.lam)
        inverse = st.PoincareElement(lam_inv,
                                     -lam_inv @ g.a @ lam_inv.conj().T)
        back = st.compose_poincare(g, inverse)
        assert np.max(np.abs(back.lam - np.eye(2))) < 1e-12
        assert np.max(np.abs(back.a)) < 1e-12


def test_poincare_associativity():
    rng = np.random.default_rng(3)
    gs = [st.PoincareElement.from_fourvector(random_sl2c(rng),
                                             rng.normal(size=4))
          for _ in range(3)]
    left = st.compose_poincare(st.compose_poincare(gs[2], gs[1]), gs[0])
    right = st.compose_poincare(gs[2], st.compose_poincare(gs[1], gs[0]))
    assert np.max(np.abs(left.lam - right.lam)) < 1e-12
    assert np.max(np.abs(left.a - right.a)) < 1e-12


def test_lorentz_from_sl2c_preserves_metric():
    rng = np.random.default_rng(4)
    assert np.allclose(st.lorentz_from_sl2c(np.eye(2)), np.eye(4))
    for _ in range(20):
        lam = st.lorentz_from_sl2c(random_sl2c(rng))
        assert np.max(np.abs(lam.T @ st.ETA @ lam - st.ETA)) < 1e-10
    with pytest.raises(ValueError):
        st.lorentz_from_sl2c(2.0 * np.eye(2))


def test_orth_pair_rotation_blocks():
    lam = 0.37
    A = st.rotation_su2([0, 0, 1], lam)
    expected_rot = np.array([
        [1, 0, 0, 0],
        [0, np.cos(lam), np.sin(lam), 0],
        [0, -np.sin(lam), np.cos(lam), 0],
        [0, 0, 0, 1]])
    assert np.max(np.abs(st.orth_from_pair(A, A.conj())
                         - expected_rot)) < 1e-12
    expected_tz = np.array([
        [np.cos(lam), 0, 0, np.sin(lam)],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [-np.sin(lam), 0, 0, np.cos(lam)]])
    assert np.max(np.abs(st.orth_from_pair(A, A.T) - expected_tz)) < 1e-12
    assert np.allclose(st.orth_from_pair(np.eye(2), np.eye(2)), np.eye(4))


def test_orth_pair_intertwines_every_variant():
    rng = np.random.default_rng(5)
    actions = {
        KV.RIGHT: lambda A, B: (A, B.T),
        KV.RIGHT_DUAL: lambda A, B: (A.conj(), B.conj().T),
        KV.LEFT: lambda A, B: (B, A.T),
        KV.LEFT_DUAL: lambda A, B: (B.conj(), A.conj().T),
    }
    for _ in range(20):
        A, B = random_su2(rng), random_su2(rng)
        O = st.orth_from_pair(A, B)
        assert np.max(np.abs(O @ O.T - np.eye(4))) < 1e-10
        x = rng.normal(size=4)
        for v, act in actions.items():
            left, right = act(A, B)
            lhs = left @ st.eucl_to_matrix(x, v) @ right
            rhs = st.eucl_to_matrix(O @ x, v)
            assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_theta_conjugation_of_rotations():
    rng = np.random.default_rng(6)
    for _ in range(10):
        lam = rng.uniform(0.1, 1.4)
        axis = rng.normal(size=3)
        A = st.rotation_su2(axis, lam)
        O_rot = st.orth_from_pair(A, A.conj())
        O_tz = st.orth_from_pair(A, A.T)
        Th = st.THETA
        assert np.max(np.abs(Th @ O_rot @ Th - O_rot)) < 1e-12
        assert np.max(np.abs(Th @ O_tz.T @ Th - O_tz)) < 1e-12


def test_canonical_boost_rest_and_axis():
    assert np.allclose(st.canonical_boost([0, 0, 0], 1.7), np.eye(2))
    rho = 0.9
    # oracle: exponentiate the z generator directly
    expected = expm(0.5 * rho * np.array([[1.0, 0.0], [0.0, -1.0]]))
    got = st.canonical_boost([0, 0, np.sinh(rho)], 1.0)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_canonical_boost_random_properties():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.normal(size=3) * 2.0
        m = rng.uniform(0.5, 2.0)
        Lc = st.canonical_boost(p, m)
        assert abs(np.linalg.det(Lc) - 1.0) < 1e-12
        evals = np.linalg.eigvalsh(Lc)
        assert evals.min() > 0.0
        omega = np.sqrt(m * m + p @ p)
        target = st.mink_to_matrix([omega, *p]) / m
        assert np.max(np.abs(Lc @ Lc.conj().T - target)) < 1e-12
    with pytest.raises(ValueError):
        st.canonical_boost([1.0, 0, 0], 0.0)


def test_polar_decompose():
    rng = np.random.default_rng(8)
    U = random_su2(rng)
    boost, rot = st.polar_decompose(U)
    assert np.max(np.abs(boost - np.eye(2))) < 1e-12
    assert np.max(np.abs(rot - U)) < 1e-12
    H = st.boost_sl2c([0.3, -0.2, 0.9], 0.8)
    boost, rot = st.polar_decompose(H)
    assert np.max(np.abs(boost - H)) < 1e-12
    assert np.max(np.abs(rot - np.eye(2))) < 1e-12
    for _ in range(20):
        L = random_sl2c(rng)
        boost, rot = st.polar_decompose(L)
        assert np.max(np.abs(boost @ rot - L)) < 1e-11
        assert np.max(np.abs(rot @ rot.conj().T - np.eye(2))) < 1e-11
        assert np.max(np.abs(boost - boost.conj().T)) < 1e-11
    with pytest.raises(ValueError):
        st.polar_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_wigner_rotation_properties():
    rng = np.random.default_rng(9)
    R = random_su2(rng)
    out = st.wigner_rotation(R, [0.0, 0.0, 0.0], 1.3)
    assert np.max(np.abs(out - R)) < 1e-12
    q = rng.normal(size=3)
    out = st.wigner_rotation(st.canonical_boost(q, 1.0), [0.0, 0.0, 0.0], 1.0)
    assert np.max(np.abs(out - np.eye(2))) < 1e-10
    for _ in range(20):
        L = random_sl2c(rng)
        p = rng.normal(size=3)
        m = rng.uniform(0.5, 2.0)
        R1 = st.wigner_rotation(L, p, m)
        R2 = st.wigner_rotation_alt(L, p, m)
        assert np.max(np.abs(R1 @ R1.conj().T - np.eye(2))) < 1e-10
        assert np.max(np.abs(R1 - R2)) < 1e-10
    # an (N, 3) batch equals its one-point calls row by row, up to the
    # rounding of vectorized products
    L = random_sl2c(rng)
    m = 1.3
    ps = rng.normal(size=(25, 3)) * 2.0
    boosts = st.canonical_boost(ps, m)
    moved = st.boost_momentum(L, ps, m)
    rots = st.wigner_rotation(L, ps, m)
    assert boosts.shape == rots.shape == (25, 2, 2)
    assert moved.shape == (25, 3)
    for p, b, q, R in zip(ps, boosts, moved, rots):
        for batch, one in ((b, st.canonical_boost(p, m)),
                           (q, st.boost_momentum(L, p, m)),
                           (R, st.wigner_rotation(L, p, m))):
            assert np.max(np.abs(batch - one)) <= 1e-14 * np.max(np.abs(one))
        assert np.max(np.abs(R - st.wigner_rotation_alt(L, p, m))) < 1e-12
    # a rotation is its own Wigner rotation at every momentum
    U = random_su2(rng)
    assert np.max(np.abs(st.wigner_rotation(U, ps, m) - U)) < 1e-12


def test_det_preservation_under_pair_action():
    rng = np.random.default_rng(10)
    for _ in range(100):
        A, B = random_sl2c(rng), random_sl2c(rng)
        X = st.eucl_to_matrix(rng.normal(size=4))
        assert abs(np.linalg.det(A @ X @ B.T) - np.linalg.det(X)) < 1e-12


NAN = float("nan")
NAN2 = np.full((2, 2), NAN, dtype=complex)
PACKET = hl.gaussian_packet()
NAN_CASES = {
    "laplace_fourier_transform": (
        lambda: hl.laplace_fourier_transform(PACKET, NAN), "mass"),
    "wedge_multiplier": (
        lambda: hl.wedge_multiplier([[1.0, 0.0, 0.0, 0.0]], (1, 0, 0), NAN),
        "eps"),
    "WedgeFunction-nan": (
        lambda: hl.WedgeFunction(PACKET, (1, 0, 0), NAN), "eps"),
    "WedgeFunction-negative": (
        lambda: hl.WedgeFunction(PACKET, (1, 0, 0), -1.0), "eps"),
    "momentum_project": (
        lambda: gn.momentum_project(PACKET, 1.0, (0, 0, 0), NAN, 4), "width"),
    "canonical_boost": (
        lambda: st.canonical_boost([0.1, 0.2, 0.3], NAN), "mass"),
    "PoincareElement-det": (
        lambda: st.PoincareElement(NAN2, np.zeros((2, 2))), "unimodular"),
    "PoincareElement-hermitian": (
        lambda: st.PoincareElement(np.eye(2), NAN2), "Hermitian"),
    "lorentz_from_sl2c": (lambda: st.lorentz_from_sl2c(NAN2), "unimodular"),
    "orth_from_pair": (
        lambda: st.orth_from_pair(np.eye(2), NAN2), "unimodular"),
    "matrix_to_mink": (lambda: st.matrix_to_mink(NAN2), "Hermitian"),
    "polar_decompose": (lambda: st.polar_decompose(NAN2), "singular"),
    "wigner_d": (lambda: sp.wigner_d(1, NAN2), "determinant"),
    "momentum_kernel": (
        lambda: kr.momentum_kernel(KV.RIGHT, NAN, 1, [0.0, 0.1, 0.2, 0.3]),
        "pole"),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_guards_reject_nan(case):
    """Every guard states the condition that must hold, so NaN, for which
    every comparison is false, fails it with the guard's own message."""
    call, message = NAN_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()
