"""Representation matrices, spin operators and coupling coefficients."""

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import wigner_d_power_table
from rqmcheck import spin, suites
from rqmcheck import spacetime as st


def random_su2(rng):
    return st.rotation_su2(rng.normal(size=3), rng.uniform(0.1, 6.0))


def random_sl2c_bounded(rng, bound=2.0):
    while True:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(a)
        if abs(det) < 1e-3:
            continue
        a = a / np.sqrt(det)
        if np.max(np.abs(a)) <= bound:
            return a


def test_half_spin_is_defining_rep():
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = random_sl2c_bounded(rng)
        assert np.max(np.abs(spin.wigner_d(1, A) - A)) == 0.0


def test_identity_argument():
    for two_s in (0, 1, 2, 5, 8):
        D = spin.wigner_d(two_s, np.eye(2))
        assert np.max(np.abs(D - np.eye(two_s + 1))) == 0.0


def test_spin_one_z_rotation_matches_exponential():
    theta = 0.7
    A = st.rotation_su2([0, 0, 1], theta)
    _, _, sz = spin.spin_matrices(2)
    # independent oracle: matrix exponential of the diagonal generator
    assert np.max(np.abs(spin.wigner_d(2, A) - expm(1j * theta * sz))) < 1e-14
    diag = np.diag(spin.wigner_d(2, A))
    assert np.allclose(diag, [np.exp(1j * theta), 1.0, np.exp(-1j * theta)])


def test_wigner_matches_exponential_oracle_generic_axis():
    rng = np.random.default_rng(1)
    for two_s in (1, 2, 3, 4):
        sx, sy, sz = spin.spin_matrices(two_s)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        gen = axis[0] * sx + axis[1] * sy + axis[2] * sz
        lam = rng.uniform(0.2, 1.5)
        rot = spin.wigner_d(two_s, st.rotation_su2(axis, lam))
        assert np.max(np.abs(rot - expm(1j * lam * gen))) < 1e-12
        # entire continuation: the same identity with real exponent
        rho = rng.uniform(0.1, 0.8)
        boost = spin.wigner_d(two_s, st.boost_sl2c(axis, rho))
        assert np.max(np.abs(boost - expm(rho * gen))) < 1e-12


def test_rejects_oversized_spin_and_non_unimodular():
    with pytest.raises(ValueError):
        spin.wigner_d(21, np.eye(2))
    with pytest.raises(ValueError):
        spin.wigner_d(2, 2.0 * np.eye(2))


def test_spin_matrices_basics():
    sx, sy, sz = spin.spin_matrices(1)
    assert np.allclose(sx, 0.5 * st.SIGMA1)
    assert np.allclose(sy, 0.5 * st.SIGMA2)
    assert np.allclose(sz, 0.5 * st.SIGMA3)
    _, _, sz1 = spin.spin_matrices(2)
    assert np.allclose(np.diag(sz1), [1.0, 0.0, -1.0])


def test_spin_matrix_commutators_and_casimir():
    for two_s in (1, 2, 3, 4, 6):
        sx, sy, sz = spin.spin_matrices(two_s)
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12
        s = 0.5 * two_s
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.max(np.abs(casimir - s * (s + 1)
                             * np.eye(two_s + 1))) < 1e-12
        # negative transposes close the same algebra
        tx, ty, tz = -sx.T, -sy.T, -sz.T
        assert np.max(np.abs(tx @ ty - ty @ tx - 1j * tz)) < 1e-12


def test_spin_matrices_are_derivatives_of_wigner_d():
    h = 1e-4
    for two_s in (1, 2, 3):
        sx, sy, sz = spin.spin_matrices(two_s)
        for axis, mat in (((1, 0, 0), sx), ((0, 1, 0), sy), ((0, 0, 1), sz)):
            plus = spin.wigner_d(two_s, st.rotation_su2(axis, h))
            minus = spin.wigner_d(two_s, st.rotation_su2(axis, -h))
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(fd - 1j * mat)) < 1e-6


def test_group_law():
    rng = np.random.default_rng(2)
    A, B = random_su2(rng), random_su2(rng)
    for two_s in (0, 1, 2, 3, 4):
        assert spin.check_group_law(two_s, A, B) <= 1e-11
    As, Bs = random_sl2c_bounded(rng), random_sl2c_bounded(rng)
    for two_s in (0, 1, 2, 3, 4):
        assert spin.check_group_law(two_s, As, Bs) <= 1e-8
    inverse = spin.wigner_d(4, As) @ spin.wigner_d(4, np.linalg.inv(As))
    assert np.max(np.abs(inverse - np.eye(5))) < 1e-10


def _entry_batches(rng, size=40):
    """(name, (a, b, c, d)) batches: generic complex, SU(2), the positive
    Hermitian on-shell form, arguments with exact zeros, and scalars."""
    cplx = tuple(rng.normal(size=size) + 1j * rng.normal(size=size)
                 for _ in range(4))
    su2 = np.stack([random_su2(rng) for _ in range(size)], axis=-1)
    p = rng.normal(scale=2.0, size=(3, size))
    omega = np.sqrt(1.0 + np.sum(p * p, axis=0))
    herm = (omega + p[2], p[0] - 1j * p[1], p[0] + 1j * p[1], omega - p[2])
    zeros = tuple(v.copy() for v in cplx)
    zeros[0][::3] = 0.0                    # a = 0
    zeros[1][1::4] = zeros[2][1::4] = 0.0  # diagonal
    zeros[3][2::5] = 0.0                   # d = 0
    for v in zeros:
        v[-1] = 0.0                        # the zero matrix
    return [("complex", cplx), ("su2", tuple(su2.reshape(4, size))),
            ("hermitian", herm), ("zeros", zeros),
            ("scalar", tuple(v[0] for v in cplx))]


@pytest.mark.parametrize("two_s", [0, 1, 2, 3, 4])
def test_wigner_d_entries_match_power_table_oracle(two_s):
    rng = np.random.default_rng(40 + two_s)
    for name, entries in _entry_batches(rng):
        want = wigner_d_power_table(two_s, *entries)
        got = spin.wigner_d_entries(two_s, *entries)
        assert got.shape == want.shape, name
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, (name, two_s)


def test_wigner_d_entries_zero_power_convention():
    # with 0**0 = 1, D of [[0, 1], [-1, 0]] is antidiagonal with entries
    # (-1)^i, and D^0 of anything is 1
    for two_s in range(5):
        want = np.zeros((two_s + 1, two_s + 1))
        for i in range(two_s + 1):
            want[i, two_s - i] = (-1) ** i
        assert np.array_equal(spin.wigner_d_entries(two_s, 0.0, 1.0, -1.0,
                                                    0.0), want)
    assert np.array_equal(spin.wigner_d_entries(0, np.zeros(3), 1j, 2.0, 0),
                          np.ones((1, 1, 3)))


def test_conjugate_and_transpose_compatibility():
    rng = np.random.default_rng(3)
    A = random_sl2c_bounded(rng)
    for two_s in (1, 2, 3, 4):
        D = spin.wigner_d(two_s, A)
        assert np.max(np.abs(spin.wigner_d(two_s, A.conj())
                             - D.conj())) < 1e-12
        assert np.max(np.abs(spin.wigner_d(two_s, A.T) - D.T)) < 1e-12


def test_su2_argument_gives_unitary():
    rng = np.random.default_rng(4)
    A = random_su2(rng)
    for two_s in (1, 2, 3, 4):
        D = spin.wigner_d(two_s, A)
        assert np.max(np.abs(D @ D.conj().T - np.eye(two_s + 1))) < 1e-10
        assert abs(abs(np.linalg.det(D)) - 1.0) < 1e-10


def coupled_basis_oracle(two_s1, two_s2):
    """Coupling coefficients built independently: diagonalize total spin.

    Constructs S_total^2 and S_total_z on the product space with Kronecker
    products, finds the simultaneous eigenbasis by applying lowering
    operators to highest-weight states, and fixes phases so the
    max-mu1 component of each highest-weight state is positive.
    """
    n1, n2 = two_s1 + 1, two_s2 + 1
    mats1 = spin.spin_matrices(two_s1)
    mats2 = spin.spin_matrices(two_s2)
    total = [np.kron(m1, np.eye(n2)) + np.kron(np.eye(n1), m2)
             for m1, m2 in zip(mats1, mats2)]
    sx, sy, sz = total
    lower = sx - 1j * sy
    s2_tot = sx @ sx + sy @ sy + sz @ sz
    mus1 = spin.magnetic_indices(two_s1)
    mus2 = spin.magnetic_indices(two_s2)
    coeffs = {}
    for two_s in range(two_s1 + two_s2, abs(two_s1 - two_s2) - 2, -2):
        s = 0.5 * two_s
        # highest weight: solve in the mu = s eigenspace of both operators
        mu = s
        idx = [i * n2 + j for i in range(n1) for j in range(n2)
               if mus1[i] + mus2[j] == two_s]
        sub = s2_tot[np.ix_(idx, idx)]
        evals, vecs = np.linalg.eigh(sub)
        pick = int(np.argmin(np.abs(evals - s * (s + 1))))
        assert abs(evals[pick] - s * (s + 1)) < 1e-9
        vec = np.zeros(n1 * n2, dtype=complex)
        vec[idx] = vecs[:, pick]
        # Condon-Shortley: make the largest-mu1 component real positive
        lead = idx[0]
        phase = vec[lead] / abs(vec[lead])
        vec = vec / phase
        two_mu = two_s
        while True:
            for i in range(n1):
                for j in range(n2):
                    if mus1[i] + mus2[j] == two_mu:
                        coeffs[(mus1[i], mus2[j], two_s, two_mu)] = \
                            vec[i * n2 + j].real
            if two_mu == -two_s:
                break
            s_mu = 0.5 * two_mu
            vec = lower @ vec / np.sqrt(s * (s + 1) - s_mu * (s_mu - 1))
            two_mu -= 2
    return coeffs


@pytest.mark.parametrize("two_s1,two_s2", [(1, 1), (2, 1), (2, 2)])
def test_clebsch_gordan_against_ladder_oracle(two_s1, two_s2):
    oracle = coupled_basis_oracle(two_s1, two_s2)
    for (tm1, tm2, ts, tm), expected in oracle.items():
        got = spin.clebsch_gordan(two_s1, tm1, two_s2, tm2, ts, tm)
        assert abs(got - expected) < 1e-10


def test_clebsch_gordan_values_and_edge_cases():
    assert spin.clebsch_gordan(0, 0, 0, 0, 0, 0) == 1.0
    assert abs(spin.clebsch_gordan(1, 1, 1, -1, 0, 0)
               - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(spin.clebsch_gordan(1, -1, 1, 1, 0, 0)
               + 1.0 / np.sqrt(2.0)) < 1e-15
    assert spin.clebsch_gordan(1, 1, 1, 1, 2, 2) == 1.0
    # forbidden couplings are zero, not errors
    assert spin.clebsch_gordan(1, 1, 1, 1, 0, 0) == 0.0
    assert spin.clebsch_gordan(1, 3, 1, -1, 2, 2) == 0.0
    assert spin.clebsch_gordan(1, 1, 2, 0, 5, 1) == 0.0


def test_clebsch_gordan_orthogonality():
    for two_s1, two_s2 in ((1, 1), (1, 2), (2, 2), (3, 2)):
        for two_s in range(abs(two_s1 - two_s2), two_s1 + two_s2 + 2, 2):
            for two_mu in range(-two_s, two_s + 2, 2):
                total = sum(
                    spin.clebsch_gordan(two_s1, tm1, two_s2, two_mu - tm1,
                                        two_s, two_mu) ** 2
                    for tm1 in range(-two_s1, two_s1 + 2, 2))
                assert abs(total - 1.0) < 1e-12
        C = spin.coupling_matrix(two_s1, two_s2)
        n = (two_s1 + 1) * (two_s2 + 1)
        assert C.shape == (n, n)
        assert np.max(np.abs(C.T @ C - np.eye(n))) < 1e-12
        # first column: the lowest total spin at its top magnetic index
        two_s = abs(two_s1 - two_s2)
        assert np.array_equal(C[:, 0], [
            spin.clebsch_gordan(two_s1, tm1, two_s2, tm2, two_s, two_s)
            for tm1 in spin.magnetic_indices(two_s1)
            for tm2 in spin.magnetic_indices(two_s2)])


def test_cg_addition_identities():
    rng = np.random.default_rng(5)
    A = random_su2(rng)
    assert spin.check_cg_addition(1, 1, A) <= 1e-12
    assert spin.check_cg_addition(1, 1, np.eye(2)) <= 1e-12
    boost = st.boost_sl2c([0, 0, 1], 0.5)
    assert spin.check_cg_addition(1, 2, boost) <= 1e-10


def test_flipped_coupling_coefficient_fails_both_checks(monkeypatch):
    original = spin.clebsch_gordan

    def flipped(*args):
        value = original(*args)
        return -value if args == (1, 1, 1, -1, 0, 0) else value

    monkeypatch.setattr(spin, "clebsch_gordan", flipped)
    A = random_su2(np.random.default_rng(5))
    assert spin.check_cg_addition(1, 1, A) > 0.1
    C = spin.coupling_matrix(1, 1)
    assert np.max(np.abs(C.T @ C - np.eye(4))) > 0.1
    cfg = suites.RunConfig(suites=("wigner",), two_spins=(1,))
    reports = {r.name: r for r in suites.suite_wigner(cfg)}
    for name in ("cg_orthogonality", "cg_addition"):
        assert not reports[name].passed and reports[name].measured > 0.1
