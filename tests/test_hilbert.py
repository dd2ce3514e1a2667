"""Test-function family, exact transforms, inner products, wedges, MC."""

import math

import numpy as np
import pytest

from oracles import engine_values, grid_points, transform_quadrature
from rqmcheck import hilbert as hl
from rqmcheck.generators import apply_generator_orbital
from rqmcheck.kernels import onshell_kernel_grid
from rqmcheck.spacetime import KernelVariant as KV


def test_family_closures_stay_in_family():
    rng = np.random.default_rng(0)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=2,
                                min_k=1)
    for g in (f.d_tau(), f.d_x(0), f.d_x(2), f.mul_tau(), f.mul_x(1),
              f.shift_time(0.3), f.spin_mix(np.array([[0, 1], [1, 0]]))):
        assert isinstance(g, hl.TestFunction)
        assert g.two_s == f.two_s
        for terms in g.comps:
            for t in terms:
                assert t.k >= 0 and min(t.powers) >= 0
                assert t.alpha > 0 and t.beta > 0 and t.tau0 >= 0


def test_positive_time_support():
    rng = np.random.default_rng(1)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=3)
    pts = np.column_stack([-rng.uniform(0, 5, 200) - 1e-12,
                           rng.normal(size=(200, 3))])
    assert np.max(np.abs(f.evaluate(pts))) == 0.0


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=2,
                                min_k=2)
    pts = np.column_stack([rng.uniform(0.8, 2.0, 30),
                           rng.normal(size=(30, 3))])
    h = 1e-6
    for axis in range(3):
        e = np.zeros(4)
        e[axis + 1] = h
        fd = (f.evaluate(pts + e) - f.evaluate(pts - e)) / (2 * h)
        assert np.max(np.abs(f.d_x(axis).evaluate(pts) - fd)) < 1e-7
    e = np.zeros(4)
    e[0] = h
    fd = (f.evaluate(pts + e) - f.evaluate(pts - e)) / (2 * h)
    assert np.max(np.abs(f.d_tau().evaluate(pts) - fd)) < 1e-7
    assert np.max(np.abs(f.mul_tau().evaluate(pts)
                         - pts[:, 0] * f.evaluate(pts))) < 1e-12
    assert np.max(np.abs(f.mul_x(2).evaluate(pts)
                         - pts[:, 3] * f.evaluate(pts))) < 1e-12


def test_transform_matches_quadrature_oracle():
    rng = np.random.default_rng(3)
    m = 1.2
    worst = 0.0
    for _ in range(50):
        f = hl.random_test_function(rng, two_s=0, terms_per_component=2)
        mwf = hl.laplace_fourier_transform(f, m)
        for _ in range(10):
            p = rng.normal(size=3)
            got = mwf.evaluate(p[None, :])[0, 0]
            want = transform_quadrature(f, m, p)[0]
            worst = max(worst, abs(got - want)
                        / max(abs(want), 1e-300))
    assert worst < 1e-6


def test_transform_analytic_example():
    alpha, beta, m = 1.3, 0.8, 1.1
    f = hl.gaussian_packet(alpha=alpha, beta=beta)
    got = hl.laplace_fourier_transform(f, m).evaluate(np.zeros((1, 3)))[0, 0]
    expected = (1.0 / (alpha + m)) * (np.pi / beta) ** 1.5 \
        / (2.0 * np.pi) ** 1.5
    assert abs(got - expected) < 1e-15


def test_time_shift_multiplies_by_exponential():
    rng = np.random.default_rng(4)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=2)
    m, dt = 0.9, 0.37
    base = hl.laplace_fourier_transform(f, m)
    shifted = hl.laplace_fourier_transform(f.shift_time(dt), m)
    for _ in range(5):
        p = rng.normal(size=3)
        omega = np.sqrt(m * m + p @ p)
        a = shifted.evaluate(p[None, :])[0, 0]
        b = np.exp(-omega * dt) * base.evaluate(p[None, :])[0, 0]
        assert abs(a - b) < 1e-15 * max(1.0, abs(b))


def test_transform_double_pole_against_1d_laplace():
    alpha, m = 1.1, 1.0
    f = hl.gaussian_packet(alpha=alpha, beta=0.7, k=1)
    mwf = hl.laplace_fourier_transform(f, m)
    x, w = np.polynomial.legendre.leggauss(400)
    for pmag in (0.0, 0.5, 1.0, 1.7, 2.4):
        p = np.array([pmag, 0.0, 0.0])
        omega = np.sqrt(m * m + pmag ** 2)
        span = 60.0 / (alpha + omega)
        u = 0.5 * span * (x + 1.0)
        wu = 0.5 * span * w
        tau_num = np.sum(wu * u * np.exp(-(alpha + omega) * u))
        assert abs(tau_num - 1.0 / (alpha + omega) ** 2) < 1e-8
        got = mwf.evaluate(p[None, :])[0, 0]
        spatial = (np.pi / 0.7) ** 1.5 / (2 * np.pi) ** 1.5 \
            * np.exp(-pmag ** 2 / (4 * 0.7))
        assert abs(got - tau_num * spatial) < 1e-8


def test_inner_product_positivity_and_symmetry():
    rng = np.random.default_rng(5)
    m = 1.0
    for two_s in (0, 1, 2):
        f = hl.random_test_function(rng, two_s=two_s, terms_per_component=2)
        g = hl.random_test_function(rng, two_s=two_s, terms_per_component=2)
        quad_f = hl.MomentumQuadrature((f,), m, 40)
        quad_fg = hl.MomentumQuadrature((f, g), m, 40)
        for v in KV:
            ff = hl.inner_product(quad_f, f, f, v)
            assert ff.real > 0.0
            assert abs(ff.imag) < 1e-12 * ff.real
            fg = hl.inner_product(quad_fg, f, g, v)
            gf = hl.inner_product(quad_fg, g, f, v)
            assert abs(fg - np.conj(gf)) < 1e-12 * max(abs(fg), 1.0)


def test_inner_product_sesquilinearity():
    rng = np.random.default_rng(6)
    f = hl.random_test_function(rng, 0)
    g = hl.random_test_function(rng, 0)
    h = hl.random_test_function(rng, 0)
    quad_fg = hl.MomentumQuadrature((f, g), 1.0, 32)
    a = hl.inner_product(quad_fg, 2.0 * f, g, KV.RIGHT)
    b = 2.0 * hl.inner_product(quad_fg, f, g, KV.RIGHT)
    assert a == b
    quad = hl.MomentumQuadrature((f, g, h), 1.0, 32)
    lhs = hl.inner_product(quad, f, g + h, KV.RIGHT)
    rhs = (hl.inner_product(quad, f, g, KV.RIGHT)
           + hl.inner_product(quad, f, h, KV.RIGHT))
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)
    conj_scale = hl.inner_product(quad, (1.0 + 2.0j) * f, g, KV.RIGHT)
    ref = np.conj(1.0 + 2.0j) * hl.inner_product(quad, f, g, KV.RIGHT)
    assert abs(conj_scale - ref) < 1e-12 * max(abs(ref), 1.0)


def test_inner_product_spin_mismatch():
    rng = np.random.default_rng(7)
    f = hl.random_test_function(rng, 0)
    quad = hl.MomentumQuadrature((f,), 1.0, 8)
    with pytest.raises(ValueError):
        hl.inner_product(quad, f, hl.random_test_function(rng, 1), KV.RIGHT)


def omega_at(points, m):
    """``sqrt(m^2 + |p|^2)`` at (N, 3) momenta, ``|p|^2`` summed in axis
    order."""
    px, py, pz = points.T
    return np.sqrt(m * m + ((px * px + py * py) + pz * pz))


@pytest.mark.parametrize("nodes", [7, 12])
def test_engine_kernels_equal_direct_builds(monkeypatch, nodes):
    # slabs of two planes; at 7 nodes the last slab is one plane.  A
    # slab's rows carry its weights, the dual copy included
    monkeypatch.setattr(hl, "SLAB_POINTS", 2 * nodes ** 2)
    m = 1.3
    for two_s in range(5):
        f = hl.gaussian_packet(two_s=two_s, beta=0.4)
        quad = hl.MomentumQuadrature([f], m, nodes)
        slabs = list(quad.slabs(tuple(KV)))
        assert len(slabs) == (nodes + 1) // 2
        points, weights = grid_points(quad)
        assert np.array_equal(np.concatenate([s.points for s in slabs]),
                              points)
        for i, v in enumerate(KV):
            direct = weights * onshell_kernel_grid(
                v, m, two_s, points, omega=omega_at(points, m))
            rows = np.concatenate([slab.kernels[i] for slab in slabs],
                                  axis=-1)
            assert np.array_equal(rows, direct), (two_s, v)


def test_momentum_quadrature_validation():
    rng = np.random.default_rng(12)
    f0 = hl.random_test_function(rng, 0, beta_range=(0.4, 0.6))
    f1 = hl.random_test_function(rng, 1)
    with pytest.raises(ValueError):
        hl.MomentumQuadrature([], 1.0, 8)
    with pytest.raises(ValueError):
        hl.MomentumQuadrature((f0, f1), 1.0, 8)
    # the trapezoid step needs two nodes
    for nodes in (0, 1):
        with pytest.raises(ValueError):
            hl.MomentumQuadrature((f0,), 1.0, nodes)
    quad = hl.MomentumQuadrature((f0,), 1.0, 8)
    assert quad.two_s == 0
    with pytest.raises(ValueError):
        quad.plan([f1])
    # a larger beta decays slower in momentum than the box was sized for
    with pytest.raises(ValueError):
        quad.plan([f0 + hl.gaussian_packet(beta=0.7)])
    # derivatives and shifts keep every beta, so they stay pairable
    assert engine_values(quad, f0.d_x(0).shift_time(0.3)).shape == (1, 8 ** 3)


def test_function_without_terms_does_not_widen_grid():
    f = hl.gaussian_packet(beta=0.3)
    alone = hl.MomentumQuadrature([f], 1.0, 8)
    with_zero = hl.MomentumQuadrature([f, f - f], 1.0, 8)
    assert with_zero.max_beta == alone.max_beta == 0.3
    assert with_zero.box == alone.box
    assert np.array_equal(with_zero.x, alone.x)
    assert hl.momentum_box([f, f - f], 1.0) == hl.momentum_box([f], 1.0)


def _transform_cases(two_s):
    """Family members with k and axis powers up to 4, tau0 zero and
    positive, distinct centers and envelopes, and generator images."""
    rng = np.random.default_rng(20 + two_s)
    kw = dict(two_s=two_s, terms_per_component=3, min_k=1, max_k=4,
              max_power=4)
    f = (hl.random_test_function(rng, tau0_max=0.0, **kw)
         + hl.random_test_function(rng, tau0_max=0.5, **kw))
    return [f] + [apply_generator_orbital(name, f)
                  for name in ("H", "P2", "J1", "K3")]


def _refuse(*args):
    raise AssertionError("unexpected evaluation path")


@pytest.mark.parametrize("nodes", [8, 32])
@pytest.mark.parametrize("two_s", [0, 1, 2])
def test_tensor_grid_transform_matches_pointwise(monkeypatch, two_s, nodes):
    fs = _transform_cases(two_s)
    quad = hl.MomentumQuadrature(fs, 1.3, nodes)
    points = grid_points(quad)[0]
    for f in fs:
        want = hl.laplace_fourier_transform(f, 1.3).evaluate(points)
        with monkeypatch.context() as patch:
            patch.setattr(hl.MomentumWaveFunction, "_evaluate_pointwise",
                          _refuse)
            got = engine_values(quad, f)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nodes, one_slab", [(2, True), (7, True),
                                             (48, False)])
def test_slabbed_transform_matches_pointwise(nodes, one_slab):
    # 48^2 points a plane give slabs of 7 planes and a last slab of 6
    planes = max(1, hl.SLAB_POINTS // nodes ** 2)
    assert (planes >= nodes) == one_slab
    assert one_slab or nodes % planes != 0
    f = _transform_cases(1)[0]
    quad = hl.MomentumQuadrature([f], 1.3, nodes)
    got = engine_values(quad, f)
    want = hl.laplace_fourier_transform(f, 1.3).evaluate(grid_points(quad)[0])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_term_blocks_split_large_groups(monkeypatch):
    # every term of f shares (tau0, alpha, k), so each component is one
    # group of 12 terms, split into blocks of 5, 5 and 2
    rng = np.random.default_rng(8)
    powers = [(i % 3, i // 3 % 2, i // 6) for i in range(12)]
    f = hl.TestFunction(1, tuple(
        tuple(hl.Term(complex(*rng.normal(size=2)), 2, 0.9, 0.3, p, 0.7,
                      (0.4, -0.2, 0.1)) for p in powers)
        for _ in range(2)))
    assert all(len(ts) == 12 for ts in f.comps)
    quad = hl.MomentumQuadrature([f], 1.3, 20)
    omega = hl.plane_omega(quad.x, 1.3, 0, 20)
    whole = quad.plan([f]).fill(0, 20, omega)
    monkeypatch.setattr(hl, "TERM_BLOCK", 5)
    blocked = quad.plan([f]).fill(0, 20, omega)
    want = hl.laplace_fourier_transform(f, 1.3).evaluate(grid_points(quad)[0])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(blocked - want)) <= 1e-13 * scale
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * scale


@pytest.mark.parametrize("two_s", [0, 1, 2])
def test_stacked_fill_equals_one_function_fills(monkeypatch, two_s):
    # envelopes that differ between functions and within one, generator
    # images, a function whose groups come in the opposite order to the
    # stack's (so its rows add in another order), and a function without
    # terms; slabs of three planes, the last one partial, each filled into
    # a new array that starts as NaNs, so every entry must be written
    monkeypatch.setattr(hl, "SLAB_POINTS", 3 * 20 ** 2)
    rng = np.random.default_rng(30 + two_s)
    kw = dict(two_s=two_s, terms_per_component=3, min_k=1, max_k=4,
              max_power=4)
    a, b = (hl.random_test_function(rng, tau0_max=t, **kw)
            for t in (0.0, 0.8))
    fs = [a + b] + _transform_cases(two_s) + [b + a, a - a]
    quad = hl.MomentumQuadrature(fs, 1.3, 20)
    plan = quad.plan(fs)
    assert plan.dim == len(fs) * (two_s + 1)
    slabs = list(quad.slabs(()))
    assert len(slabs) == 7
    empty, shapes = np.empty, []

    def nan_empty(shape, dtype=float, *args, **kwargs):
        shapes.append(shape)
        values = empty(shape, dtype, *args, **kwargs)
        values.fill(np.nan)
        return values

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", nan_empty)
        stacked = np.concatenate([quad.values(plan, slab) for slab in slabs],
                                 axis=-1)
    assert all((plan.dim, len(slab.weights)) in shapes for slab in slabs)
    rows = stacked.reshape(len(fs), two_s + 1, -1)
    for f, got in zip(fs, rows):
        want = engine_values(quad, f)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("nodes", [2, 7, 48])
def test_engine_grid_equals_recognized_grid(monkeypatch, nodes):
    fs = _transform_cases(2)[:3]
    quad = hl.MomentumQuadrature(fs, 1.3, nodes)
    # the grid read off the points: point i n^2 + j n + k is
    # (x_i, x_j, x_k), and each slab's omega is sqrt(m^2 + |p|^2) there
    points = grid_points(quad)[0]
    x = points[:nodes, 2]
    assert np.array_equal(x, quad.x)
    cube = points.reshape(nodes, nodes, nodes, 3)
    assert (cube[..., 0] == x[:, None, None]).all()
    assert (cube[..., 1] == x[None, :, None]).all()
    assert (cube[..., 2] == x[None, None, :]).all()
    omega = omega_at(points, 1.3).reshape(nodes, -1)
    for slab in quad.slabs(()):
        assert np.array_equal(slab.omega, omega_at(slab.points, 1.3))
    # filled over the engine's slab planes, from omega at the points
    recognized = [np.concatenate([
        hl.TensorPlan(hl.laplace_fourier_transform(f, 1.3), x).fill(
            lo, hi, omega[lo:hi].reshape(-1))
        for lo, hi in hl.slab_planes(nodes, f.dim)], axis=-1) for f in fs]
    # the engine hands its grid over: no pointwise path
    monkeypatch.setattr(hl.MomentumWaveFunction, "_evaluate_pointwise",
                        _refuse)
    for f, want in zip(fs, recognized):
        assert np.array_equal(engine_values(quad, f), want)


def test_shifted_overlap_decreases():
    f = hl.gaussian_packet(alpha=1.0, beta=1.0)
    shifted = [f.shift_time(d) for d in (0.0, 0.5, 1.0)]
    quad = hl.MomentumQuadrature([f] + shifted, 1.0, 48)
    vals = [hl.inner_product(quad, f, h, KV.RIGHT) for h in shifted]
    for v in vals:
        assert abs(v.imag) < 1e-12 * abs(v.real)
    assert vals[0].real > vals[1].real > vals[2].real > 0.0


@pytest.mark.parametrize("m", [0.3, 1.0, 3.0])
def test_tensor_grid_is_the_sinh_mapped_trapezoid_rule(m):
    box = 6.0
    x, w = hl.tensor_grid(box, 48, m)
    assert np.array_equal(x, -x[::-1]) and np.all(w > 0)
    assert np.allclose(x[[0, -1]], [-box, box], rtol=1e-14, atol=0)
    # 1/omega is constant in t = asinh(p/m), so the rule is exact on it
    assert np.sum(w / np.sqrt(m * m + x * x)) == pytest.approx(
        2.0 * math.asinh(box / m), rel=1e-14)
    assert np.sum(w * np.exp(-x * x)) == pytest.approx(
        math.sqrt(math.pi) * math.erf(box), rel=1e-13)
    for nodes in (0, 1):
        with pytest.raises(ValueError):
            hl.tensor_grid(box, nodes, m)
    for mass in (0.0, -m, math.nan):
        with pytest.raises(ValueError):
            hl.tensor_grid(box, 48, mass)


def assert_positive_hermitian(rep):
    """Spectrum nonnegative to 1e-10 of max(1, max_eig), and Hermitian to
    1e-10 of max |G|."""
    assert rep.min_eig >= -1e-10 * max(1.0, rep.max_eig), rep.min_eig
    scale = max(float(np.max(np.abs(rep.matrix))), 1e-300)
    assert rep.hermiticity_defect <= 1e-10 * scale, rep.hermiticity_defect


def test_gram_matrix_basics():
    rng = np.random.default_rng(9)
    f = hl.random_test_function(rng, 0)
    single = hl.gram_matrix(hl.MomentumQuadrature([f], 1.0, 32), [f],
                            KV.RIGHT)
    assert_positive_hermitian(single)
    assert single.min_eig > 0.0
    fs = [hl.random_test_function(rng, 0) for _ in range(6)]
    fs = fs + [fs[0]]
    rep = hl.gram_matrix(hl.MomentumQuadrature(fs, 1.0, 32), fs, KV.RIGHT)
    # duplicated row forces an exact null direction
    assert abs(rep.min_eig) < 1e-9 * max(rep.max_eig, 1.0)
    assert_positive_hermitian(rep)


def test_momentum_quadrature_matches_inner_product_and_gram():
    rng = np.random.default_rng(10)
    fs = [hl.random_test_function(rng, 1) for _ in range(3)]
    quad = hl.MomentumQuadrature(fs, 1.0, nodes=40)
    direct = np.array([[hl.inner_product(quad, f, g, KV.LEFT) for g in fs]
                       for f in fs])
    gram = hl.gram_matrix(quad, fs, KV.LEFT).matrix
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(gram - direct)) <= 1e-14 * scale
    # a pairing alone on a fresh engine gives the same value
    fresh = hl.MomentumQuadrature(fs, 1.0, nodes=40)
    assert hl.inner_product(fresh, fs[0], fs[1], KV.LEFT) == direct[0, 1]


def test_non_finite_parameters_rejected():
    nan, inf = float("nan"), float("inf")
    for bad in ({"alpha": nan}, {"beta": inf}, {"tau0": nan},
                {"coef": complex(nan, 0.0)}, {"coef": complex(0.0, inf)},
                {"center": (0.0, nan, 0.0)}):
        with pytest.raises(ValueError):
            hl.gaussian_packet(**bad)
    term = hl.gaussian_packet(tau0=0.2).comps[0][0]
    with pytest.raises(ValueError):
        hl.TestFunction(0, ((term._replace(tau0=nan),),))


@pytest.mark.parametrize("fields", [
    {"powers": (1, 0)},
    {"center": (0.0, 0.1, 0.2, 0.3)},
    {"k": 1.5},
    {"powers": (0, 1.5, 0)},
], ids=["powers-length", "center-length", "non-integral-k",
        "non-integral-power"])
def test_malformed_term_rejected(fields):
    term = hl.gaussian_packet(k=1).comps[0][0]
    hl.TestFunction(0, ((term,),))
    with pytest.raises(ValueError):
        hl.TestFunction(0, ((term._replace(**fields),),))


def test_merged_coefficient_overflow_rejected():
    # every term is finite and valid; only the merged sum overflows
    t = hl.Term(1e308, *hl.gaussian_packet(k=1).comps[0][0].key())
    with pytest.raises(ValueError):
        hl.TestFunction(0, ((t, t),))
    h = hl.TestFunction(0, ((t,),))
    with pytest.raises(ValueError):
        h + h
    with pytest.raises(ValueError):
        h.map_terms(lambda u: [u, u])
    assert (h - h).comps == ((),)       # a cancellation is no overflow


def test_term_is_an_immutable_value():
    t = hl.gaussian_packet(k=2, powers=(1, 0, 2),
                           center=(0.1, 0.0, -0.2)).comps[0][0]
    u = hl.Term(complex(t.coef), t.k, t.alpha, t.tau0, tuple(t.powers),
                t.beta, tuple(t.center))
    assert u is not t and u == t and hash(u) == hash(t)
    assert len({t, u}) == 1 and t != t.scaled(2.0)
    for name in hl.Term._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(t, name, 0)
    assert t.key() == (t.k, t.alpha, t.tau0, t.powers, t.beta, t.center)
    f = hl.TestFunction(1, ((t,), (t.scaled(1j), t.mul_x(0)[0])))
    assert hl.TestFunction(f.two_s, f.comps) == f
    # a term is not validated until a function is built from it
    for bad in (t._replace(k=2.0), t._replace(powers=(True, 0, 2)),
                t._replace(coef=complex(float("nan"), 0.0)),
                t._replace(center=(float("inf"), 0.0, -0.2))):
        with pytest.raises(ValueError):
            hl.TestFunction(0, ((bad,),))


def test_negative_spin_rejected():
    with pytest.raises(ValueError):
        hl.TestFunction(-1, ())
    # a boolean is not spin 1/2
    with pytest.raises(ValueError):
        hl.TestFunction(True, ((), ()))
    hl.TestFunction(1, ((), ()))


def test_wedge_multiplier():
    assert hl.wedge_multiplier([[0.0, 0.3, 0.2, 0.1]], (0, 0, 1), 0.5)[0] \
        == 0.0
    val = hl.wedge_multiplier([[50.0, 0.0, 0.0, 0.0]], (0, 0, 1), 0.5)[0]
    assert val > 0.99
    # point violating the wedge condition evaluates exactly to zero
    assert hl.wedge_multiplier([[0.1, 0.0, 0.0, 5.0]], (0, 0, 1), 0.5)[0] \
        == 0.0


def test_wedge_support_inside_both_inequalities():
    rng = np.random.default_rng(14)
    eps = 0.5
    n_hat = np.array([0.3, -0.4, 0.85])
    n_hat /= np.linalg.norm(n_hat)
    w = hl.WedgeFunction(hl.gaussian_packet(alpha=1.0, beta=0.5, k=1),
                         tuple(n_hat), eps)
    probes = np.column_stack([rng.uniform(-1.0, 4.0, 10_000),
                              rng.normal(size=(10_000, 3)) * 2.0])
    vals = w.evaluate(probes)
    live = np.abs(vals) > 0.0
    proj = probes[:, 1:] @ n_hat
    tau = probes[:, 0]
    assert np.all(proj[live] - tau[live] / eps + eps < 0.0)
    assert np.all(proj[live] + tau[live] / eps - eps > 0.0)


def test_rotate_pointwise():
    rng = np.random.default_rng(12)
    w = hl.WedgeFunction(hl.gaussian_packet(alpha=1.0, beta=0.7, k=1),
                         (0.0, 0.0, 1.0), 0.5)
    probe = np.column_stack([rng.uniform(0.1, 3.0, 100),
                             rng.normal(size=(100, 3))])
    zero = hl.rotate_pointwise(w, 0.0)
    assert np.max(np.abs(zero.evaluate(probe) - w.evaluate(probe))) == 0.0
    half = hl.rotate_pointwise(w, np.arctan(0.5) / 2)
    neg = np.column_stack([-rng.uniform(0, 6, 10_000) - 1e-12,
                           rng.normal(size=(10_000, 3)) * 3])
    assert np.max(np.abs(half.evaluate(neg))) == 0.0
    both = hl.rotate_pointwise(hl.rotate_pointwise(w, 0.12), 0.1)
    once = hl.rotate_pointwise(w, 0.22)
    assert np.max(np.abs(both.evaluate(probe)
                         - once.evaluate(probe))) < 1e-12
    with pytest.raises(ValueError):
        hl.rotate_pointwise(w, np.arctan(0.5) + 0.01)


def test_position_mc_agrees_with_momentum_space():
    m = 1.0
    f = hl.gaussian_packet(alpha=1.0, beta=0.6, tau0=0.15,
                           center=(0.2, 0.0, -0.1))
    g = hl.gaussian_packet(alpha=1.2, beta=0.5, tau0=0.1,
                           center=(-0.1, 0.3, 0.2))
    exact = hl.inner_product(hl.MomentumQuadrature((f, g), m, 72), f, g,
                             KV.RIGHT)
    val, se, info = hl.position_inner_product_mc(f, g, m, seed=3,
                                                 points_log2=15,
                                                 scrambles=6)
    assert abs(val - exact) < 3.0 * se
    assert se / abs(exact) < 0.02
    assert info["excluded"] == 0


def test_position_mc_far_separated_centers():
    m = 1.0
    f = hl.gaussian_packet(alpha=1.0, beta=0.6, tau0=0.15,
                           center=(5.0, 0, 0))
    g = hl.gaussian_packet(alpha=1.0, beta=0.6, tau0=0.15,
                           center=(-5.0, 0, 0))
    off, _, _ = hl.position_inner_product_mc(f, g, m, seed=4,
                                             points_log2=14, scrambles=4)
    diag, _, _ = hl.position_inner_product_mc(f, f, m, seed=5,
                                              points_log2=14, scrambles=4)
    assert abs(off) < 1e-3 * abs(diag)


def test_position_mc_shift_decreases():
    m = 1.0
    f = hl.gaussian_packet(alpha=1.0, beta=0.6, tau0=0.1)
    vals = []
    for delta in (0.0, 0.5, 1.0):
        v, _, _ = hl.position_inner_product_mc(
            f.shift_time(delta), f.shift_time(delta), m, seed=6,
            points_log2=14, scrambles=4)
        vals.append(abs(v))
    assert vals[0] > vals[1] > vals[2]


def test_position_mc_requires_scalar():
    rng = np.random.default_rng(13)
    f = hl.random_test_function(rng, two_s=1)
    with pytest.raises(Exception):
        hl.position_inner_product_mc(f, f, 1.0)


@pytest.mark.parametrize("two_s", [0, 1, 2])
def test_rotate_is_the_pointwise_pullback(two_s):
    rng = np.random.default_rng(40 + two_s)
    f = hl.random_test_function(rng, two_s=two_s, terms_per_component=2,
                                max_power=4)
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    pts = np.column_stack([rng.uniform(0.0, 2.0, 40),
                           rng.normal(size=(40, 3))])
    pulled = pts.copy()
    pulled[:, 1:] = pts[:, 1:] @ rot        # rows rot^T x
    want = f.evaluate(pulled)
    got = f.rotate(rot)
    assert np.max(np.abs(got.evaluate(pts) - want)) \
        <= 1e-13 * np.max(np.abs(want))
    # same Gaussians, same total degrees, centers moved to rot c
    assert ({(t.beta, sum(t.powers)) for ts in got.comps for t in ts}
            <= {(t.beta, sum(t.powers)) for ts in f.comps for t in ts})
    centers = {tuple(rot @ t.center) for ts in f.comps for t in ts}
    assert all(min(np.max(np.abs(np.subtract(t.center, c))) for c in centers)
               < 1e-15 for ts in got.comps for t in ts)


def test_rotate_rejects_non_orthogonal_matrices():
    f = hl.gaussian_packet(powers=(1, 0, 2), center=(0.3, 0.0, -0.1))
    for bad in (np.diag([1.0, 1.0, 1.001]), np.eye(2), np.ones((3, 3)),
                np.full((3, 3), np.nan)):
        with pytest.raises(ValueError):
            f.rotate(bad)
    assert f.rotate(np.eye(3)) == f
