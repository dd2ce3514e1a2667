"""Generator actions, commutators, hermiticity, semigroup, irrep, projections."""

import itertools
import math

import numpy as np
import pytest

from oracles import (apply_generator_chain, apply_generator_orbital_chain,
                     commutator_residual_by_construction, grid_points)
from rqmcheck import generators as gn
from rqmcheck import hilbert as hl
from rqmcheck import spacetime as st
from rqmcheck import spin as sp
from rqmcheck import suites as su
from rqmcheck.report import worst_of
from rqmcheck.spacetime import KernelVariant as KV

PAIRS = list(itertools.combinations(gn.GENERATOR_NAMES, 2))


def test_momentum_generator_on_gaussian():
    f = hl.gaussian_packet(alpha=1.0, beta=0.7)
    out = gn.apply_generator("P3", f)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0.1, 2.0, 20),
                           rng.normal(size=(20, 3))])
    expected = 2j * 0.7 * pts[:, 3] * f.evaluate(pts)[0]
    assert np.max(np.abs(out.evaluate(pts)[0] - expected)) < 1e-14


def test_time_generator_product_rule():
    f = hl.gaussian_packet(alpha=1.3, beta=0.7, k=1)
    out = gn.apply_generator("H", f)
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0.1, 2.0, 20),
                           rng.normal(size=(20, 3))])
    env = np.exp(-1.3 * pts[:, 0]) * np.exp(-0.7 * np.sum(pts[:, 1:] ** 2,
                                                          axis=1))
    assert np.max(np.abs(out.evaluate(pts)[0]
                         - (1.0 - 1.3 * pts[:, 0]) * env)) < 1e-14


def test_rotation_annihilates_spherical_scalar():
    f = hl.gaussian_packet(alpha=1.0, beta=0.9)
    out = gn.apply_generator("J3", f)
    assert sum(len(ts) for ts in out.comps) == 0


def test_h_requires_vanishing_edge():
    f = hl.gaussian_packet(alpha=1.0, beta=1.0, k=0)
    with pytest.raises(ValueError):
        gn.apply_generator("H", f)
    with pytest.raises(ValueError):
        gn.apply_generator("K2", f)
    gn.apply_generator("P1", f)
    gn.apply_generator("J1", f)


def test_named_commutators():
    rng = np.random.default_rng(2)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=1,
                                min_k=2, max_k=3)
    assert gn.check_commutator("K3", "H", f) < 1e-13
    assert gn.check_commutator("K1", "K2", f) < 1e-13
    for two_s in (1, 2):
        fs = hl.random_test_function(rng, two_s=two_s,
                                     terms_per_component=1, min_k=2,
                                     max_k=3)
        for v in KV:
            assert gn.check_commutator("J1", "J2", fs, v) < 1e-13
            assert gn.check_commutator("K1", "K2", fs, v) < 1e-13
            assert gn.check_commutator("J2", "K3", fs, v) < 1e-13


def test_full_commutator_table_scalar():
    rng = np.random.default_rng(3)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=1,
                                min_k=2, max_k=2)
    names = gn.GENERATOR_NAMES
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            residual = gn.check_commutator(names[i], names[j], f)
            assert residual <= 1e-13, (names[i], names[j], residual)


def _edge_case_function(two_s):
    """Terms with tau0 != 0, nonzero centers, k >= 2 and a positive power
    on every axis, so that mul_tau's and mul_x's second terms and d_x's
    lowering term all fire."""
    rng = np.random.default_rng(60 + two_s)
    f = hl.random_test_function(rng, two_s=two_s, terms_per_component=2,
                                min_k=2, max_k=3, tau0_max=0.5)
    terms = [t for ts in f.comps for t in ts]
    assert all(t.tau0 > 0 and t.k >= 2 and all(t.center) for t in terms)
    assert all(any(t.powers[ax] for t in terms) for ax in range(3))
    return f


@pytest.mark.parametrize("name", ["X1", "J4", "K", "h"])
def test_unknown_generator_name_rejected(name):
    """A name outside GENERATOR_NAMES raises, never falls through to
    another generator's rule (``X1`` would act as ``K1``)."""
    f = _edge_case_function(1)
    for apply in (gn.apply_generator, gn.apply_generator_orbital):
        with pytest.raises(ValueError, match="unknown generator"):
            apply(name, f)


def _normal_form(f):
    return [{t.key(): t.coef for t in ts} for ts in f.comps]


@pytest.mark.parametrize("two_s", range(5))
def test_one_pass_images_match_method_chains(two_s):
    f = _edge_case_function(two_s)
    for name in gn.GENERATOR_NAMES:
        pairs = [(gn.apply_generator_orbital(name, f),
                  apply_generator_orbital_chain(name, f))]
        pairs += [(gn.apply_generator(name, f, v),
                   apply_generator_chain(name, f, v)) for v in KV]
        for got, want in pairs:
            scale = max(abs(t.coef) for ts in want.comps for t in ts)
            for g, w in zip(_normal_form(got), _normal_form(want)):
                assert g.keys() == w.keys(), name
                assert all(abs(g[key] - w[key]) <= 1e-15 * scale
                           for key in w), name
    edge = hl.gaussian_packet(two_s=two_s, k=0, tau0=0.3)
    for name in ("H", "K1", "K2", "K3"):
        for apply in (gn.apply_generator, gn.apply_generator_orbital):
            with pytest.raises(ValueError):
                apply(name, edge)


def test_each_generator_image_is_one_construction(monkeypatch):
    built = []
    post_init = hl.TestFunction.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(hl.TestFunction, "__post_init__", counting)
    for two_s in (0, 1, 2):
        f = _edge_case_function(two_s)
        for name in gn.GENERATOR_NAMES:
            calls = [(gn.apply_generator_orbital, ())] + [
                (gn.apply_generator, (v,)) for v in KV]
            for apply, variant in calls:
                built.clear()
                image = apply(name, f, *variant)
                assert len(built) == 1 and built[0] is image, (name, variant,
                                                               two_s)


def test_spin_terms_are_built_once_and_read_only(monkeypatch):
    builds = []

    def counting(two_s):
        builds.append(two_s)
        return sp.spin_matrices(two_s)

    monkeypatch.setattr(gn, "spin_matrices", counting)
    monkeypatch.setattr(gn, "_SPIN_TERMS", {})
    for _ in range(3):
        for two_s in (1, 2):
            f = _edge_case_function(two_s)
            for v in KV:
                for name in ("J1", "J2", "J3", "K1", "K2", "K3"):
                    gn.apply_generator(name, f, v)
                    S = gn.generator_spin_matrix(name, two_s, v)
                    assert not S.flags.writeable
                    with pytest.raises(ValueError):
                        S[0, 0] = 0.0
    assert sorted(builds) == [1] * len(KV) + [2] * len(KV)


def _coefficients_by_key(ops, image, variant_index):
    """``{key: coefficient}`` per spin component of one variant's column
    of a :class:`GeneratorMatrices` array, zeros left out."""
    return [{ops.keys[r]: c for r, c in enumerate(image[:, variant_index, u])
             if c != 0.0} for u in range(image.shape[2])]


@pytest.mark.parametrize("two_s", range(5))
def test_generator_matrices_match_apply_generator(two_s):
    """Single images X f and nested images A(X f) from the matrices equal
    the coefficients of apply_generator key by key, to a few ulp of the
    image's largest coefficient: the commutator check and hermiticity
    (which uses apply_generator_orbital) check the same generators."""
    f = _edge_case_function(two_s)
    ops = gn.GeneratorMatrices(f)
    spins = ops.spin_matrices(tuple(KV))
    images = ops.images(spins)
    ulps = 4.0 * np.finfo(float).eps

    def assert_equal(got, want, what):
        scale = max(abs(t.coef) for ts in want.comps for t in ts)
        for g, w in zip(got, _normal_form(want)):
            assert all(abs(g.get(key, 0.0) - w.get(key, 0.0)) <= ulps * scale
                       for key in g.keys() | w.keys()), what

    for idx, v in enumerate(KV):
        for x in gn.GENERATOR_NAMES:
            xf = gn.apply_generator(x, f, v)
            assert_equal(_coefficients_by_key(ops, images[x], idx), xf, (x, v))
            for a in gn.GENERATOR_NAMES:
                nested = ops.apply(a, images[x], spins[a])
                assert_equal(_coefficients_by_key(ops, nested, idx),
                             gn.apply_generator(a, xf, v),
                             (a, x, v))


@pytest.mark.parametrize("two_s", range(5))
def test_lie_algebra_residuals_match_per_pair_checks(two_s):
    """Every pair's residual bit for bit the same as check_commutator,
    at one variant or all four in one call, and within rounding of the
    residual of a term-by-term construction per pair.  Both residuals are
    largest coefficients of a difference of roundings, relative to the
    largest coefficient, so they differ by at most a few eps; 2 eps is
    the bound."""
    f = _edge_case_function(two_s)
    assert gn.lie_algebra_residuals(f, tuple(KV)) == [
        gn.lie_algebra_residuals(f, v) for v in KV]
    for v in KV:
        residuals = gn.lie_algebra_residuals(f, v)
        assert len(residuals) == 45 and any(residuals), v
        assert residuals == [gn.check_commutator(a, b, f, v)
                             for a, b in PAIRS], v
        built = [commutator_residual_by_construction(a, b, f, v)
                 for a, b in PAIRS]
        assert all(abs(r - b) <= 2.0 * np.finfo(float).eps
                   for r, b in zip(residuals, built)), v
        assert worst_of(*residuals) < 1e-13, v


def test_lie_algebra_residuals_build_no_functions(monkeypatch):
    """No TestFunction is constructed, and each generator's rule runs once
    per domain key (f's keys and those of its single orbital images):
    keys x 10 rule calls per function, for any number of variants."""
    built, calls = [], []
    post_init, orbital_rule = hl.TestFunction.__post_init__, gn._orbital_rule

    def counting(self):
        built.append(self)
        post_init(self)

    def counted_rule(name, f):
        rule = orbital_rule(name, f)
        return lambda t: calls.append(name) or rule(t)

    for two_s in (0, 1, 2):
        f = _edge_case_function(two_s)
        domain = {t.key() for g in [f] + [gn.apply_generator_orbital(x, f)
                                          for x in gn.GENERATOR_NAMES]
                  for ts in g.comps for t in ts}
        with monkeypatch.context() as patch:
            patch.setattr(hl.TestFunction, "__post_init__", counting)
            patch.setattr(gn, "_orbital_rule", counted_rule)
            for variants in [KV.LEFT, (KV.RIGHT,), tuple(KV)]:
                built.clear()
                calls.clear()
                gn.lie_algebra_residuals(f, variants)
                assert not built, (two_s, variants)
                assert len(calls) == 10 * len(domain), (two_s, variants)
    with pytest.raises(ValueError):       # every pair's images need k >= 2
        gn.lie_algebra_residuals(hl.gaussian_packet(k=1, tau0=0.2))


def _largest_coefficient(f, largest):
    return f.scale(largest / max(abs(t.coef) for ts in f.comps for t in ts))


@pytest.mark.parametrize("largest", [10.0 ** 307.25, 1e308],
                         ids=["modulus", "images"])
def test_overflowing_coefficients_fail_closed(monkeypatch, largest):
    """Coefficients near the float limit: an image, merged sum or modulus
    beyond the float range raises ValueError, never a finite pass.  At
    1e308 every image of this function overflows; at 10^307.25 only the
    K-K pairs reach a modulus beyond the range."""
    rng = np.random.default_rng(1)
    f = _largest_coefficient(hl.random_test_function(
        rng, two_s=1, terms_per_component=1, min_k=2, max_k=3), largest)
    for v in KV:
        with pytest.raises(ValueError):
            gn.lie_algebra_residuals(f, v)
        for pair in (("K1", "K2"), ("K2", "K3"), ("K3", "K1")):
            with pytest.raises(ValueError):
                gn.check_commutator(*pair, f, v)
    make = hl.random_test_function
    monkeypatch.setattr(hl, "random_test_function", lambda *args, **kwargs:
                        _largest_coefficient(make(*args, **kwargs), largest))
    reports = su.run_suites(su.RunConfig(suites=("generators",),
                                         two_spins=(1,)))
    assert reports and not any(r.passed for r in reports), reports
    assert all(not math.isfinite(r.measured) for r in reports), reports


def test_residual_merge_overflow_raises(monkeypatch):
    """Finite images whose merged difference overflows raise ValueError:
    P1 f is finite at 1e308, and a right-hand side that subtracts it
    twice sums past the float range."""
    f = hl.gaussian_packet(k=2, coef=1e308, beta=0.5)
    assert gn.check_commutator("P1", "P2", f) == 0.0
    monkeypatch.setattr(gn, "commutator_rhs",
                        lambda a, b: [(-1.0, "P1"), (-1.0, "P1")])
    with pytest.raises(ValueError, match="overflows"):
        gn.check_commutator("P1", "P2", f)


def _flipped_left_spin_terms(names, spin_matrix=gn.generator_spin_matrix):
    """``generator_spin_matrix`` with the LEFT spin terms of ``names``
    sign-flipped."""
    def patched(name, two_s, variant):
        S = spin_matrix(name, two_s, variant)
        return -S if variant is KV.LEFT and name in names else S
    return patched


def test_single_boost_sign_flip_breaks_the_algebra(monkeypatch):
    """Negative control: one boost's spin term with the wrong sign, for
    one variant, must make its K-K and J-K commutators fail.  Flipping
    all three boosts' spin terms is an automorphism of the algebra (K ->
    orbital - spin term keeps every bracket), so the control flips K1
    alone."""
    rng = np.random.default_rng(7)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                min_k=2, max_k=3)
    monkeypatch.setattr(gn, "generator_spin_matrix",
                        _flipped_left_spin_terms({"K1"}))
    for v in KV:
        for pair in (("K1", "K2"), ("J3", "K1")):
            residual = gn.check_commutator(*pair, f, v)
            if v is KV.LEFT:
                assert 1e-6 < residual < math.inf, (pair, residual)
            else:
                assert residual < 1e-13, (pair, v, residual)
        # the suite's shared-image path sees the same flip
        worst = worst_of(*gn.lie_algebra_residuals(f, v))
        if v is KV.LEFT:
            assert 1e-2 <= worst < math.inf, worst
        else:
            assert worst < 1e-13, (v, worst)
    monkeypatch.setattr(gn, "generator_spin_matrix",
                        _flipped_left_spin_terms({"K1", "K2", "K3"}))
    assert gn.check_commutator("K1", "K2", f, KV.LEFT) < 1e-13
    for v in KV:      # the documented blind spot: an automorphism
        assert worst_of(*gn.lie_algebra_residuals(f, v)) < 1e-13, v


def test_all_boost_sign_flips_break_hermiticity(monkeypatch):
    """Negative control for the flip the algebra cannot see: every LEFT
    boost's spin term with the wrong sign keeps the commutators exact, so
    hermiticity must catch it.  The pair and grid are the hermiticity
    suite's at seed 0."""
    pairs = su.hermiticity_pairs(np.random.default_rng(0), 1, 1)
    boosts = ("K1", "K2", "K3")

    def defects():
        return [row[-1] for row in gn.hermiticity_defects(
            pairs, 1.0, (KV.LEFT,), boosts, su.GRID_NODES["hermiticity"])]

    unflipped = defects()
    monkeypatch.setattr(gn, "generator_spin_matrix",
                        _flipped_left_spin_terms(set(boosts)))
    for pair in (("K1", "K2"), ("K2", "K3"), ("K3", "K1")):
        assert gn.check_commutator(*pair, pairs[0][0], KV.LEFT) < 1e-13
    flipped = defects()
    assert max(unflipped) <= 1e-7, unflipped
    assert min(flipped) >= 1e-2, flipped


def test_commutator_rhs_antisymmetry():
    for a in gn.GENERATOR_NAMES:
        for b in gn.GENERATOR_NAMES:
            if a == b:
                continue
            forward = {g: c for c, g in gn.commutator_rhs(a, b)}
            backward = {g: c for c, g in gn.commutator_rhs(b, a)}
            assert set(forward) == set(backward)
            for g, c in forward.items():
                assert backward[g] == -c


def hermiticity_defect(name, variant, f, g, nodes):
    """Relative defect |<f|A g> - <A f|g>| / (|.| + |.|) on one grid."""
    ((*_, defect),) = gn.hermiticity_defects([(f, g)], 1.0, (variant,),
                                             (name,), nodes)
    return defect


def test_hermiticity_suite_pairs_at_seed_27():
    """The hermiticity suite's pairs at seed 27 on its grid: every defect
    within the suite's 1e-7 tolerance.  All ten pairs are paired, because
    together they size the engine's box.  88 Gauss-Legendre nodes read
    2.0e-6 at K3 here."""
    pairs = su.hermiticity_pairs(su._rng(27 * 31337), 1, 10)
    rows = gn.hermiticity_defects(pairs, 1.0, su.ALL_VARIANTS,
                                  gn.GENERATOR_NAMES,
                                  su.GRID_NODES["hermiticity"])
    worst = max(rows, key=lambda row: row[-1])
    assert worst[-1] <= 1e-7, worst


def test_hermiticity_small():
    rng = np.random.default_rng(4)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                min_k=2, max_k=2, center_scale=0.3,
                                beta_range=(0.22, 0.3), shared_envelope=True)
    g = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                min_k=2, max_k=2, center_scale=0.3,
                                beta_range=(0.22, 0.3), shared_envelope=True)
    g = g + 0.6 * f
    # momentum-space multipliers are exact at any node count
    assert hermiticity_defect("H", KV.RIGHT, f, g, 32) < 1e-12
    assert hermiticity_defect("P2", KV.LEFT, f, g, 32) < 1e-12
    for v in (KV.RIGHT, KV.LEFT_DUAL):
        for name in ("J3", "K1"):
            defect = hermiticity_defect(name, v, f, g, 48)
            assert defect < 1e-7, (name, v, defect)


def test_rotation_generator_hermiticity_fine():
    # rotations generate a unitary one-parameter group, so the defect can
    # be pushed much below the generic generator tolerance
    rng = np.random.default_rng(16)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                min_k=1, max_k=2, center_scale=0.25,
                                beta_range=(0.22, 0.3),
                                shared_envelope=True)
    g = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                min_k=1, max_k=2, center_scale=0.25,
                                beta_range=(0.22, 0.3),
                                shared_envelope=True)
    g = g + 0.6 * f
    defect = hermiticity_defect("J3", KV.RIGHT, f, g, 112)
    assert defect <= 1e-9, defect


def test_hermiticity_rows_match_inner_products_of_full_images():
    pairs = su.hermiticity_pairs(np.random.default_rng(13), 1, 2)
    names, variants = ("K1", "H", "J2"), (KV.RIGHT, KV.LEFT)
    rows = gn.hermiticity_defects(pairs, 1.0, variants, names, 24)
    assert [r[:3] for r in rows] == [(idx, name, variant) for idx in (0, 1)
                                     for name in names for variant in variants]
    quad = hl.MomentumQuadrature([h for pair in pairs for h in pair], 1.0, 24)
    for idx, name, variant, lhs, rhs, _ in rows:
        f, g = pairs[idx]
        want_lhs = hl.inner_product(
            quad, f, gn.apply_generator(name, g, variant), variant)
        want_rhs = hl.inner_product(
            quad, gn.apply_generator(name, f, variant), g, variant)
        assert abs(lhs - want_lhs) <= 1e-12 * abs(want_lhs)
        assert abs(rhs - want_rhs) <= 1e-12 * abs(want_rhs)


def test_wrong_spin_term_breaks_hermiticity():
    rng = np.random.default_rng(5)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                min_k=2, max_k=2, center_scale=0.2,
                                beta_range=(0.25, 0.35),
                                shared_envelope=True)
    g = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                min_k=2, max_k=2, center_scale=0.2,
                                beta_range=(0.25, 0.35),
                                shared_envelope=True)
    from rqmcheck.spin import spin_matrices
    _, _, sz = spin_matrices(1)
    orb_f = gn.apply_generator_orbital("K3", f)
    orb_g = gn.apply_generator_orbital("K3", g)
    wrong_f = orb_f + f.spin_mix(-1j * sz)   # sign flipped
    wrong_g = orb_g + g.spin_mix(-1j * sz)
    quad = hl.MomentumQuadrature((f, g, wrong_f, wrong_g), 1.0, 48)
    lhs = hl.inner_product(quad, f, wrong_g, KV.RIGHT)
    rhs = hl.inner_product(quad, wrong_f, g, KV.RIGHT)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) > 1e-2


def test_hamiltonian_spectral_lower_bound():
    rng = np.random.default_rng(14)
    m = 1.3
    for _ in range(5):
        f = hl.random_test_function(rng, two_s=0, terms_per_component=2,
                                    min_k=1, max_k=2, center_scale=0.4,
                                    beta_range=(0.3, 0.7))
        h_f = gn.apply_generator("H", f)
        quad = hl.MomentumQuadrature((f, h_f), m, 48)
        norm_sq = hl.inner_product(quad, f, f, KV.RIGHT).real
        hf = hl.inner_product(quad, f, h_f, KV.RIGHT)
        assert abs(hf.imag) < 1e-10 * abs(hf.real)
        assert hf.real >= m * norm_sq * (1.0 - 1e-7)


def test_finite_difference_generator_consistency():
    rng = np.random.default_rng(15)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=1,
                                min_k=2, max_k=2, center_scale=0.3,
                                beta_range=(0.3, 0.5))
    g = hl.random_test_function(rng, two_s=0, terms_per_component=1,
                                min_k=2, max_k=2, center_scale=0.3,
                                beta_range=(0.3, 0.5))
    m = 1.0
    quad = hl.MomentumQuadrature((f, g), m, 64)
    base = hl.inner_product(quad, f, g, KV.RIGHT)
    hg = hl.inner_product(quad, f, gn.apply_generator("H", g), KV.RIGHT)
    defects = []
    for delta in (1e-2, 1e-3):
        shifted = hl.inner_product(quad, f, g.shift_time(delta), KV.RIGHT)
        defects.append(abs((shifted - base) / delta + hg))
    # first-order error: the defect scales linearly in the step
    assert defects[0] / defects[1] == pytest.approx(10.0, rel=0.3)
    assert defects[1] < 1e-2 * abs(hg)


def test_semigroup_contraction():
    rng = np.random.default_rng(6)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=2,
                                min_k=1, max_k=2, center_scale=0.3,
                                beta_range=(0.3, 0.6), shared_envelope=True)
    quad = hl.MomentumQuadrature((f,), 1.0, 48)
    [(violation, details)] = gn.semigroup_contraction_check(
        quad, f, (KV.RIGHT,), [0.0, 0.1, 0.5, 1.0])
    assert violation <= 1e-10, violation
    ratios = details["ratios"]
    assert abs(ratios[0] - 1.0) < 1e-12
    assert ratios[1] > ratios[2] > ratios[3] > 0.0
    assert all(r <= 1.0 + 1e-10 for r in ratios)
    assert details["gap_ratio"] <= 10.0 * np.exp(-10.0)


@pytest.mark.parametrize("rank", [1, 2], ids=["gap-shift", "last-shift"])
def test_negative_shifted_norm_fails_semigroup(monkeypatch, rank):
    """A shifted function whose squared norm reads negative breaks
    reflection positivity: its ratio must be NaN and fail the check,
    never a 0 that passes the contraction, monotonicity and gap tests.
    ``rank`` picks the shift from the largest: the 10/m gap shift or the
    last of the suite's shifts."""
    pairings = hl.MomentumQuadrature.pairings

    def start(h):
        return min(t.tau0 for ts in h.comps for t in ts)

    def negated(self, blocks, variants):
        out = pairings(self, blocks, variants)
        for (bras, _), sums in zip(blocks, out):
            target = sorted({start(h) for h in bras})[-rank]
            for i, h in enumerate(bras):
                if start(h) == target:
                    sums[:, i, i] = -sums[:, i, i]
        return out

    monkeypatch.setattr(hl.MomentumQuadrature, "pairings", negated)
    reports = su.suite_semigroup(su.RunConfig(suites=("semigroup",),
                                              two_spins=(0,)))
    assert len(reports) == len(su.ALL_VARIANTS)
    for r in reports:
        assert r.name == "semigroup_contraction"
        assert math.isnan(r.measured) and not r.passed, r


def test_norm_of_negative_square_is_nan(monkeypatch):
    pairings = hl.MomentumQuadrature.pairings
    monkeypatch.setattr(hl.MomentumQuadrature, "pairings",
                        lambda *args: [-c for c in pairings(*args)])
    f = hl.gaussian_packet(beta=0.5)
    quad = hl.MomentumQuadrature([f], 1.0, 8)
    assert math.isnan(hl.root_norm(
        hl.inner_product(quad, f, f, KV.RIGHT).real))


def test_irrep_norm_of_negative_square_is_nan(monkeypatch):
    # norm still goes through inner (the tracer charges it there), and a
    # negative squared norm reads NaN where a clamp at 0 read 0
    monkeypatch.setattr(gn.IrrepState, "inner", lambda self, other: -1.0)
    state = gn.state_from_test_function(hl.gaussian_packet(beta=0.5), 1.0,
                                        nodes=6)
    assert math.isnan(state.norm())


def test_boost_wedge_check():
    w1 = hl.WedgeFunction(hl.gaussian_packet(alpha=1.0, beta=0.6, k=1),
                          (0.0, 0.0, 1.0), 0.5)
    w2 = hl.WedgeFunction(hl.gaussian_packet(alpha=1.2, beta=0.5, k=1,
                                             center=(0.2, 0.0, 0.1)),
                          (0.0, 0.0, 1.0), 0.5)
    violation, details = gn.boost_wedge_check(
        w1, w2, [0.05, 0.1, 0.2], 1.0, seed=2, points_log2=14, scrambles=4)
    assert violation <= 1.0, violation
    assert details["support_max"] == 0.0
    assert np.isfinite(details["continuity_slope"])
    with pytest.raises(ValueError):
        gn.boost_wedge_check(w1, w2, [0.5], 1.0)


def test_irrep_action_basics():
    rng = np.random.default_rng(7)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                center_scale=0.25, beta_range=(0.3, 0.45),
                                shared_envelope=True)
    state = gn.state_from_test_function(f, 1.0, nodes=40)
    pts = rng.normal(size=(30, 3))
    ident = gn.apply_poincare_irrep(state, st.PoincareElement.identity())
    assert np.max(np.abs(ident.evaluate(pts) - state.evaluate(pts))) < 1e-14
    shift = st.PoincareElement.from_fourvector(np.eye(2),
                                               [0.3, 0.2, -0.4, 0.7])
    moved = gn.apply_poincare_irrep(state, shift)
    assert np.max(np.abs(np.abs(moved.evaluate(pts))
                         - np.abs(state.evaluate(pts)))) < 1e-13


def test_irrep_group_law_and_unitarity():
    rng = np.random.default_rng(8)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                center_scale=0.25, beta_range=(0.3, 0.45),
                                tau0_max=0.3, shared_envelope=True)
    # the irrep suite's grid, for the group law and the norms alike
    state = gn.state_from_test_function(f, 1.0, su.GRID_NODES["irrep"])
    pts, wts = grid_points(state.quad)
    n0 = state.norm()
    for _ in range(3):
        L = (st.rotation_su2(rng.normal(size=3), rng.uniform(0.3, 1.2))
             @ st.boost_sl2c(rng.normal(size=3), rng.uniform(0.1, 0.35)))
        g1 = st.PoincareElement.from_fourvector(L, rng.normal(size=4) * 0.4)
        L2 = st.rotation_su2(rng.normal(size=3), rng.uniform(0.3, 1.2))
        g2 = st.PoincareElement.from_fourvector(L2, rng.normal(size=4) * 0.4)
        lhs = gn.apply_poincare_irrep(gn.apply_poincare_irrep(state, g1),
                                      g2)
        rhs = gn.apply_poincare_irrep(state, st.compose_poincare(g2, g1))
        diff = lhs.evaluate(pts) - rhs.evaluate(pts)
        l2 = np.sqrt(float(np.einsum("un,n->", np.abs(diff) ** 2, wts).real))
        assert l2 / n0 < 1e-6
        moved = gn.apply_poincare_irrep(state, g1)
        assert abs(moved.norm() - n0) / n0 < 1e-6


def test_mass_casimir_and_negative_control():
    rng = np.random.default_rng(9)
    for two_s, variant in ((0, KV.RIGHT), (1, KV.RIGHT), (1, KV.LEFT)):
        f = hl.random_test_function(rng, two_s=two_s, terms_per_component=1,
                                    min_k=2, max_k=3, center_scale=0.3,
                                    beta_range=(0.3, 0.6))
        g = hl.random_test_function(rng, two_s=two_s, terms_per_component=1,
                                    min_k=2, max_k=3, center_scale=0.3,
                                    beta_range=(0.3, 0.6))
        quad = hl.MomentumQuadrature((f, g), 1.0, 48)
        (row,) = gn.casimir_pairings(quad, f, g, (variant,))
        assert gn.casimir_residual(row, 1.0) < 1e-7
        neg = gn.casimir_residual(row, 2.0)
        assert 1e3 * 1e-7 < neg < math.inf


def test_momentum_project():
    rng = np.random.default_rng(10)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=1,
                                beta_range=(0.3, 0.5), center_scale=0.2)
    # the projections suite's windows
    nodes = su.GRID_NODES["projection_window"]
    state = gn.momentum_project(f, 1.0, [0.5, 0.0, 0.0], 0.8, nodes)
    pts = rng.normal(size=(10, 3))
    a4 = np.array([0.0, 0.4, -0.3, 0.2])
    moved = gn.apply_poincare_irrep(
        state, st.PoincareElement.from_fourvector(np.eye(2), a4))
    phase = np.exp(1j * (pts @ a4[1:]))
    assert np.max(np.abs(moved.evaluate(pts)
                         - phase * state.evaluate(pts))) < 1e-12
    wide = gn.momentum_project(f, 1.0, [0.0, 0.0, 0.0], 1e9, nodes)
    mwf = hl.laplace_fourier_transform(f, 1.0)
    assert np.max(np.abs(wide.evaluate(pts) - mwf.evaluate(pts))) < 1e-12
    st_a = gn.momentum_project(f, 1.0, [1.5, 0, 0], 0.3, nodes)
    st_b = gn.momentum_project(f, 1.0, [-1.5, 0, 0], 0.3, nodes)
    assert abs(st_a.inner(st_b)) < 1e-4 * st_a.norm() * st_b.norm()
    with pytest.raises(ValueError):
        gn.momentum_project(f, 1.0, [0, 0, 0], 0.0, nodes)


def test_spin_project():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(8, 3))
    scalar = gn.state_from_test_function(hl.gaussian_packet(alpha=1.0,
                                                            beta=0.5),
                                         1.0, nodes=20)
    projected = gn.spin_project(scalar, 0, euler_nodes=(8, 8, 8))
    assert np.max(np.abs(projected.evaluate(pts)
                         - scalar.evaluate(pts))) < 1e-12

    env = dict(alpha=1.0, beta=0.5, tau0=0.1)
    fspin = (hl.gaussian_packet(two_s=1, component=0, coef=0.8 + 0.3j, **env)
             + hl.gaussian_packet(two_s=1, component=1, coef=0.5 - 0.2j,
                                  **env))
    state = gn.state_from_test_function(fspin, 1.0, nodes=20)
    up = gn.spin_project(state, 1, euler_nodes=(12, 12, 12))
    down = gn.spin_project(state, -1, euler_nodes=(12, 12, 12))
    vals_up = up.evaluate(pts)
    assert np.max(np.abs(vals_up[1])) < 1e-4 * np.max(np.abs(vals_up[0]))
    cross = abs(up.inner(down)) / (up.norm() * down.norm())
    assert cross < 1e-4
    theta = np.pi / 3
    rot = st.PoincareElement(st.rotation_su2([0, 0, 1], theta),
                             np.zeros((2, 2)))
    rotated = gn.apply_poincare_irrep(up, rot).evaluate(pts)
    expected = np.exp(0.5j * theta) * up.evaluate(pts)
    assert np.max(np.abs(rotated - expected)) \
        < 1e-4 * np.max(np.abs(expected))
    with pytest.raises(ValueError):
        gn.spin_project(state, 2)


def _pure_rotation(R):
    return st.PoincareElement(R, np.zeros((2, 2)))


@pytest.mark.parametrize("two_s", [0, 1, 2])
def test_rotate_is_covariant_with_the_irrep_rotation(two_s):
    """Euclidean covariance: rotating the test function and mixing its
    components by D(R) is U(R) on its transform."""
    rng = np.random.default_rng(50 + two_s)
    f = hl.random_test_function(rng, two_s=two_s, terms_per_component=2,
                                max_power=4)
    R = st.rotation_su2(rng.normal(size=3), rng.uniform(0.2, 3.0))
    O = st.lorentz_from_sl2c(R)[1:, 1:]
    q = rng.normal(size=(30, 3))
    lhs = hl.laplace_fourier_transform(
        f.rotate(O).spin_mix(sp.wigner_d(two_s, R)), 1.0).evaluate(q)
    state = gn.state_from_test_function(f, 1.0, nodes=4)
    rhs = gn.apply_poincare_irrep(state, _pure_rotation(R)).evaluate(q)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def _euler_su2(alpha, beta, gamma):
    za = np.diag([np.exp(0.5j * alpha), np.exp(-0.5j * alpha)])
    yb = np.array([[np.cos(0.5 * beta), np.sin(0.5 * beta)],
                   [-np.sin(0.5 * beta), np.cos(0.5 * beta)]])
    zg = np.diag([np.exp(0.5j * gamma), np.exp(-0.5j * gamma)])
    return za @ yb @ zg


@pytest.mark.parametrize("two_s, two_mu", [(0, 0), (1, -1), (2, 2)])
def test_spin_project_is_the_group_average_of_the_irrep_action(two_s,
                                                               two_mu):
    rng = np.random.default_rng(60 + two_s)
    f = hl.random_test_function(rng, two_s=two_s, terms_per_component=2,
                                max_power=4)
    state = gn.state_from_test_function(f, 1.0, nodes=4)
    q = rng.normal(size=(20, 3))
    got = gn.spin_project(state, two_mu, euler_nodes=(3, 4, 3)).evaluate(q)
    mus = list(range(two_s, -two_s - 2, -2))
    row, col = mus.index(two_mu), mus.index(two_s % 2)
    cosb, wb = np.polynomial.legendre.leggauss(4)
    want = np.zeros_like(got)
    for alpha in 2.0 * np.pi * np.arange(3) / 3:
        for beta, w in zip(np.arccos(cosb), wb):
            for gamma in 2.0 * np.pi * np.arange(3) / 3:
                R = _euler_su2(alpha, beta, gamma)
                c = (two_s + 1) * w / 18.0 * np.conj(
                    sp.wigner_d(two_s, R)[row, col])
                want += c * gn.apply_poincare_irrep(
                    state, _pure_rotation(R)).evaluate(q)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_spin_project_needs_a_source():
    f = hl.gaussian_packet(two_s=1, beta=0.5)
    state = gn.state_from_test_function(f, 1.0, nodes=4)
    moved = gn.apply_poincare_irrep(state, _pure_rotation(np.eye(2)))
    window = gn.momentum_project(f, 1.0, [0.5, 0.0, 0.0], 0.8, nodes=4)
    assert state.source == f
    for sourceless in (moved, window):
        assert sourceless.source is None
        with pytest.raises(ValueError):
            gn.spin_project(sourceless, 1, euler_nodes=(2, 2, 2))
    projected = gn.spin_project(state, 1, euler_nodes=(2, 2, 2))
    assert projected.quad is state.quad
    assert projected.source is not None
