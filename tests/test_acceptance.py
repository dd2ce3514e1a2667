"""Acceptance gate: every structural claim at its certified tolerance.

Each test prints one PASS/FAIL line with the measured deviation, the
tolerance it was held to, and the wall time.  Scales (pair counts, grid
sizes, Monte-Carlo budgets) follow the certified defaults.  The library
functions return measurements only; verdicts come from the tolerances
pinned here for this gate and from ``suites.DEFAULT_TOLERANCES`` (through
``RunConfig``) for ``rqmcheck run``.  Every pin here that has a suite
counterpart equals it, through the name table ``PINS`` that
``test_tolerance_pins_match_suite_defaults`` reads; the position-kernel
oracle pin has none.
"""

import ast
import time
from pathlib import Path

import numpy as np
from oracles import grid_points, radial_position_kernel
from rqmcheck import generators as gn
from rqmcheck import hilbert as hl
from rqmcheck import kernels as kr
from rqmcheck import spacetime as st
from rqmcheck import spin as sp
from rqmcheck import suites as su
from rqmcheck.spacetime import KernelVariant as KV

SPINS = (0, 1, 2)          # doubled: s = 0, 1/2, 1
WIGNER_SPINS = (0, 1, 2, 3, 4)

#: each gate's report name -> the suites.DEFAULT_TOLERANCES entries its
#: pinned tolerance must equal; an empty tuple marks a pin with no suite
#: counterpart, whose value is named here instead
PINS = {
    "wigner_group_law_su2": ("group_law_su2",),
    "wigner_group_law_sl2c": ("group_law_sl2c",),
    "cg_addition_identities": ("cg_addition",),
    "kernel_positivity_factorization": ("factorization",),
    "position_kernel_vs_radial_oracle": (),
    "bessel_small_argument_law": ("bessel_small_arg",),
    "reflection_positivity_gram": ("gram_eig",),
    "lie_algebra_commutators": ("commutator",),
    "generator_hermiticity": ("hermiticity",),
    "contraction_semigroup": ("semigroup",),
    "wedge_local_semigroup": ("wedge",),
    "irrep_group_law_unitarity": ("irrep_group_law", "irrep_unitarity"),
    "mass_casimir": ("casimir",),
    "mc_position_crosscheck": ("mc_sigmas",),
}
#: pins without a DEFAULT_TOLERANCES entry, at their pinned values
UNPAIRED_PINS = {"position_kernel_vs_radial_oracle": 1e-6}


def report(name, measured, tolerance, started, budget):
    elapsed = time.time() - started
    ok = measured <= tolerance and elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} {name}: measured {measured:.3e} "
          f"(tolerance {tolerance:.1e}), {elapsed:.1f}s (budget {budget}s)")
    assert measured <= tolerance, (name, measured, tolerance)
    assert elapsed < budget, (name, elapsed, budget)


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


def test_acceptance_wigner_representation_law():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst_su2 = 0.0
    worst_sl2c = 0.0
    for _ in range(100):
        A, B = random_su2(rng), random_su2(rng)
        As, Bs = random_sl2c_bounded(rng), random_sl2c_bounded(rng)
        for two_s in WIGNER_SPINS:
            worst_su2 = max(worst_su2, sp.check_group_law(two_s, A, B))
            worst_sl2c = max(worst_sl2c, sp.check_group_law(two_s, As, Bs))
    report("wigner_group_law_su2", worst_su2, 1e-11, started, 5.0)
    report("wigner_group_law_sl2c", worst_sl2c, 1e-8, started, 5.0)


def test_acceptance_cg_addition():
    started = time.time()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for two_s1, two_s2 in ((1, 1), (1, 2), (2, 2)):
        worst = max(worst, sp.check_cg_addition(two_s1, two_s2,
                                                random_su2(rng)))
        boost = st.boost_sl2c(rng.normal(size=3), rng.uniform(0.3, 0.7))
        worst = max(worst, sp.check_cg_addition(two_s1, two_s2, boost))
    report("cg_addition_identities", worst, 1e-10, started, 5.0)


def test_acceptance_kernel_factorization():
    started = time.time()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        p = rng.normal(size=3) * 1.5
        for two_s in WIGNER_SPINS:
            worst = max(worst, kr.check_factorization(1.0, two_s, p))
    report("kernel_positivity_factorization", worst, 1e-10, started, 5.0)


def test_acceptance_position_kernel_identity():
    started = time.time()
    m = 1.0
    worst = 0.0
    for r in np.geomspace(0.1 / m, 10.0 / m, 20):
        got = kr.position_kernel(KV.RIGHT, m, 0, [r, 0, 0, 0])[0, 0].real
        oracle = radial_position_kernel(m, float(r))
        worst = max(worst, abs(got - oracle) / abs(oracle))
    small = abs(1e-5 * kr.bessel_k1(1e-5) - 1.0)
    report("position_kernel_vs_radial_oracle", worst, 1e-6, started, 10.0)
    report("bessel_small_argument_law", small, 1e-4, started, 10.0)


def test_acceptance_reflection_positivity():
    started = time.time()
    worst = 0.0
    for seed in range(5):
        for two_s in SPINS:
            rng = np.random.default_rng(seed * 7919 + two_s)
            fs = su.positivity_family(rng, two_s, 20)
            quad = hl.MomentumQuadrature(fs, 1.0, 40)
            for rep in hl.gram_matrix(quad, fs, tuple(KV)):
                assert rep.hermiticity_defect <= 1e-10 * max(
                    abs(rep.max_eig), 1.0)
                worst = max(worst, -rep.min_eig / max(1.0, rep.max_eig))
    report("reflection_positivity_gram", worst, 1e-10, started, 120.0)


def test_acceptance_lie_algebra():
    started = time.time()
    worst = 0.0
    for two_s in SPINS:
        rng = np.random.default_rng(3000 + two_s)
        f = hl.random_test_function(rng, two_s=two_s, terms_per_component=1,
                                    min_k=2, max_k=3)
        for row in gn.lie_algebra_residuals(f, tuple(KV)):
            worst = max(worst, *row)
    report("lie_algebra_commutators", worst, 1e-13, started, 30.0)


def test_acceptance_hermiticity():
    started = time.time()
    rng = np.random.default_rng(4000)
    pairs = su.hermiticity_pairs(rng, 1, 10)
    worst = 0.0

    def collect(name, tol_name, measured, inputs):
        nonlocal worst
        worst = max(worst, measured)
        return su.make_report(name, measured, 1e-7, inputs=inputs)

    su.run_hermiticity_matrix(pairs, 1.0, tuple(KV), collect)
    report("generator_hermiticity", worst, 1e-7, started, 120.0)


def test_acceptance_contraction_semigroup():
    started = time.time()
    rng = np.random.default_rng(5000)
    f = hl.random_test_function(rng, two_s=0, terms_per_component=2,
                                min_k=1, max_k=2, center_scale=0.3,
                                beta_range=(0.3, 0.6), shared_envelope=True)
    [(violation, details)] = gn.semigroup_contraction_check(
        hl.MomentumQuadrature((f,), 1.0, 48), f, (KV.RIGHT,),
        [0.0, 0.1, 0.3, 0.5, 1.0])
    ratios = details["ratios"]
    assert all(b < a for a, b in zip(ratios[1:], ratios[2:])), ratios
    report("contraction_semigroup", violation, 1e-10, started, 30.0)


def test_acceptance_wedge_local_semigroup():
    started = time.time()
    w1 = hl.WedgeFunction(hl.gaussian_packet(alpha=1.0, beta=0.6, k=1),
                          (0.0, 0.0, 1.0), 0.5)
    w2 = hl.WedgeFunction(hl.gaussian_packet(alpha=1.2, beta=0.5, k=1,
                                             center=(0.2, 0.0, 0.1)),
                          (0.0, 0.0, 1.0), 0.5)
    violation, details = gn.boost_wedge_check(
        w1, w2, [0.05, 0.1, 0.2], 1.0, seed=11, points_log2=17, scrambles=8)
    assert details["support_max"] == 0.0
    assert np.isfinite(details["continuity_slope"])
    for entry in details["symmetry"]:
        scale = abs(complex(*entry["left"]))
        assert entry["combined_3sigma"] / 3.0 <= 0.02 * scale
    report("wedge_local_semigroup", violation, 1.0, started, 300.0)


def test_acceptance_irrep_group_law_unitarity():
    started = time.time()
    rng = np.random.default_rng(6000)
    f = hl.random_test_function(rng, two_s=1, terms_per_component=1,
                                center_scale=0.25, beta_range=(0.3, 0.45),
                                tau0_max=0.3, shared_envelope=True)
    coarse = gn.state_from_test_function(f, 1.0, nodes=40)
    fine = gn.state_from_test_function(f, 1.0, nodes=72)
    pts, wts = grid_points(coarse.quad)
    n0 = coarse.norm()
    n_fine = fine.norm()
    worst = 0.0
    for _ in range(20):
        L = (st.rotation_su2(rng.normal(size=3), rng.uniform(0.2, 1.5))
             @ st.boost_sl2c(rng.normal(size=3), rng.uniform(0.05, 0.4)))
        g1 = st.PoincareElement.from_fourvector(L, rng.normal(size=4) * 0.5)
        g2 = su._random_poincare(rng)
        left = gn.apply_poincare_irrep(gn.apply_poincare_irrep(coarse, g1),
                                       g2)
        right = gn.apply_poincare_irrep(coarse, st.compose_poincare(g2, g1))
        diff = left.evaluate(pts) - right.evaluate(pts)
        l2 = np.sqrt(float(np.einsum("un,n->", np.abs(diff) ** 2, wts).real))
        worst = max(worst, l2 / n0)
        moved = gn.apply_poincare_irrep(fine, g1)
        worst = max(worst, abs(moved.norm() - n_fine) / n_fine)
    report("irrep_group_law_unitarity", worst, 1e-6, started, 60.0)


def test_acceptance_mass_casimir():
    started = time.time()
    rng = np.random.default_rng(7000)
    worst = 0.0
    control_margin = np.inf
    for two_s, variant in ((0, KV.RIGHT), (1, KV.RIGHT), (1, KV.LEFT_DUAL),
                           (2, KV.LEFT)):
        f = hl.random_test_function(rng, two_s=two_s, terms_per_component=1,
                                    min_k=2, max_k=3, center_scale=0.3,
                                    beta_range=(0.3, 0.6))
        g = hl.random_test_function(rng, two_s=two_s, terms_per_component=1,
                                    min_k=2, max_k=3, center_scale=0.3,
                                    beta_range=(0.3, 0.6))
        quad = hl.MomentumQuadrature((f, g), 1.0, 48)
        (row,) = gn.casimir_pairings(quad, f, g, (variant,))
        worst = max(worst, gn.casimir_residual(row, 1.0))
        neg = gn.casimir_residual(row, 2.0)
        control_margin = min(control_margin, neg / 1e-7)
    assert control_margin >= 1e3, control_margin
    report("mass_casimir", worst, 1e-7, started, 30.0)


def test_acceptance_mc_crosscheck():
    started = time.time()
    m = 1.0
    f = hl.gaussian_packet(alpha=1.0, beta=0.6, tau0=0.15,
                           center=(0.2, 0.0, -0.1))
    g = hl.gaussian_packet(alpha=1.2, beta=0.5, tau0=0.1,
                           center=(-0.1, 0.3, 0.2))
    exact = hl.inner_product(hl.MomentumQuadrature((f, g), m, 72), f, g,
                             KV.RIGHT)
    val, se, info = hl.position_inner_product_mc(f, g, m, seed=9,
                                                 points_log2=17,
                                                 scrambles=8)
    assert info["points"] >= 1_000_000
    assert se / abs(exact) <= 0.02, se / abs(exact)
    sigmas = abs(val - exact) / se
    report("mc_position_crosscheck", sigmas, 3.0, started, 300.0)


def _pinned_tolerances():
    """(report name, tolerance literal) of every ``report`` call in this
    file, plus the literal the hermiticity collector hands to
    ``su.make_report`` under the name of that gate's ``report``."""
    tree = ast.parse(Path(__file__).read_text())
    pins = []
    for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef)
               and n.name.startswith("test_acceptance_")):
        reported = [c for c in ast.walk(fn) if isinstance(c, ast.Call)
                    and isinstance(c.func, ast.Name) and c.func.id == "report"]
        for call in reported:
            pins.append((ast.literal_eval(call.args[0]),
                         ast.literal_eval(call.args[2])))
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "make_report"):
                (name,) = {ast.literal_eval(c.args[0]) for c in reported}
                pins.append((name, ast.literal_eval(call.args[2])))
    return pins


def test_tolerance_pins_match_suite_defaults():
    pins = _pinned_tolerances()
    assert {name for name, _ in pins} == set(PINS)
    for name, tolerance in pins:
        if PINS[name]:
            assert [su.DEFAULT_TOLERANCES[key] for key in PINS[name]] == [
                tolerance] * len(PINS[name]), name
        else:
            assert UNPAIRED_PINS[name] == tolerance, name
    assert set(UNPAIRED_PINS) == {name for name, keys in PINS.items()
                                  if not keys}
