"""Suite bodies: work done per function family and what reports carry."""

import math
from collections import Counter

import pytest

from rqmcheck import generators as gn
from rqmcheck import hilbert as hl
from rqmcheck import kernels as kr
from rqmcheck import spin as sp
from rqmcheck import suites as su
from rqmcheck.report import worst_of
from rqmcheck.spacetime import KernelVariant as KV

# two seeds at one mass and spin: two function families per suite
SMALL = dict(two_spins=(0,), variants=(KV.RIGHT, KV.LEFT), seeds=(0, 1),
             gram_size=3)


@pytest.mark.parametrize("suite, transforms_per_family", [
    ("positivity", SMALL["gram_size"]),
    ("casimir", 3),      # f, g and the wave operator applied to g
    ("semigroup", 5),    # f and its four nonzero time shifts
])
def test_one_engine_per_family(monkeypatch, suite, transforms_per_family):
    """Per family one grid of N points, each function's transform
    evaluated once at each of them, by one ``evaluate`` call per slab for
    all the functions, and the on-shell kernel built at N points in all:
    every variant and pairing shares one walk of the grid."""
    transform_points = Counter()
    kernel_points, grids, calls = [], [], []
    evaluate = hl.MomentumWaveFunction.evaluate
    build_kernel, build_grid = hl.onshell_kernel_grid, hl.tensor_grid

    def counted_evaluate(mwf, points, grid=None, out=None):
        # a stacked transform holds its functions' 2s+1 components each
        calls.append(mwf)
        dim = mwf.two_s + 1
        for j in range(0, len(mwf.comps), dim):
            transform_points[mwf.comps[j:j + dim]] += len(points)
        return evaluate(mwf, points, grid=grid, out=out)

    def counted_kernel(variant, m, two_s, points, **kw):
        kernel_points.append(len(points))
        return build_kernel(variant, m, two_s, points, **kw)

    def counted_grid(box, nodes, *args):
        grids.append(nodes)
        return build_grid(box, nodes, *args)

    monkeypatch.setattr(hl.MomentumWaveFunction, "evaluate",
                        counted_evaluate)
    monkeypatch.setattr(hl, "onshell_kernel_grid", counted_kernel)
    monkeypatch.setattr(hl, "tensor_grid", counted_grid)
    monkeypatch.setitem(su.GRID_NODES, "positivity", 16)
    cfg = su.RunConfig(suites=(suite,), **SMALL)
    reports = su.SUITES[suite][0](cfg)
    assert reports
    families = len(cfg.seeds) * len(cfg.masses) * len(cfg.two_spins)
    nodes = su.GRID_NODES[suite]
    assert grids == [nodes] * families
    assert sum(kernel_points) == families * nodes ** 3
    assert len(transform_points) == families * transforms_per_family
    assert set(transform_points.values()) == {nodes ** 3}
    # one stacked transform per family, filled once per slab of a size
    # for its rows and the kets' kernel products at every variant; casimir
    # has two kets, g and the wave operator, the others pair every function
    kets = 2 if suite == "casimir" else transforms_per_family
    plans = {id(mwf): mwf for mwf in calls}
    assert len(plans) == families
    assert len(calls) == sum(
        len(hl.slab_planes(nodes, mwf.dim + len(cfg.variants) * kets
                           * (mwf.two_s + 1)))
        for mwf in plans.values())


def test_gram_reports_carry_hermiticity_defect(monkeypatch):
    monkeypatch.setitem(su.GRID_NODES, "positivity", 24)
    cfg = su.RunConfig(suites=("positivity",), two_spins=(0, 1), gram_size=4)
    reports = su.suite_positivity(cfg)
    assert len(reports) == 2 * len(cfg.variants)
    for rep in reports:
        defect = rep.details["hermiticity_defect"]
        assert 0.0 <= defect <= 1e-10 * max(abs(rep.details["max_eig"]), 1.0)


@pytest.mark.parametrize("elements", [1, 3])
def test_irrep_family_builds_one_grid(monkeypatch, elements):
    grids = []
    build = hl.tensor_grid

    def counted(box, nodes, *args):
        grids.append((box, nodes))
        return build(box, nodes, *args)
    monkeypatch.setattr(hl, "tensor_grid", counted)
    cfg = su.RunConfig(suites=("irrep",), two_spins=(0,),
                       irrep_elements=elements)
    reports = su.suite_irrep(cfg)
    # the group law and the norms share one grid, which both reports name
    assert grids == [(grids[0][0], su.GRID_NODES["irrep"])]
    assert [(r.details["box"], r.details["nodes"]) for r in reports] == (
        grids * 2)


# the GRID_NODES entries a suite's verdicts are checked under doubling
# at, by suite; the projections suite's spin_projection grid and the
# semigroup grid are left out.  spin_projection moved 2e-26 of its
# tolerance from 20 to 40 nodes.  semigroup's verdict reads 0 at any
# count, and its norm ratios move 8.8e-13 from 48 to 96 nodes at m = 0.3,
# 8.8e-3 of its 1e-10 tolerance, which is above this test's 1e-3 bar
# (4e-16 at m = 1)
DOUBLED = {
    "hermiticity": "hermiticity",
    "casimir": "casimir",
    "positivity": "positivity",
    "irrep": "irrep",
    "projection_window": "projections",
    "mc_reference": "mc-crosscheck",
}


@pytest.mark.parametrize("m", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("entry", sorted(DOUBLED))
def test_grid_converged_under_doubling(monkeypatch, entry, m):
    """At seed 0, on the suite's own family, every measured value with
    the entry's node count n and with 2n differs by at most 1e-3 of its
    check's tolerance, and every check passes at n; at m = 0.3 the
    Gauss-Legendre grid this rule replaced failed hermiticity and
    irrep_unitarity.  gram_positivity reads 0 on a positive Gram matrix
    at any n, so its least eigenvalue is compared too.  One group
    element, the suite's first, keeps the irrep suite short."""
    suite, n = DOUBLED[entry], su.GRID_NODES[entry]

    def run(nodes):
        with monkeypatch.context() as patch:
            patch.setitem(su.GRID_NODES, entry, nodes)
            cfg = su.RunConfig(suites=(suite,), masses=(m,),
                               irrep_elements=1)
            return su.SUITES[suite][0](cfg)

    coarse, fine = run(n), run(2 * n)
    assert coarse and all(r.passed for r in coarse), [
        (r.name, r.measured) for r in coarse if not r.passed]
    for a, b in zip(coarse, fine, strict=True):
        assert (a.name, a.inputs) == (b.name, b.inputs)
        assert abs(a.measured - b.measured) <= 1e-3 * a.tolerance, (
            a.name, a.inputs, a.measured, b.measured)
        if a.name == "gram_positivity":
            assert (abs(a.details["min_eig"] - b.details["min_eig"])
                    <= 1e-3 * b.details["min_eig"])


def test_far_separation_does_not_depend_on_the_mass():
    """mc_far_separation's packets sit 10/m apart with widths in units of
    1/m, so its ratio is the same at every mass.  With widths fixed at
    m = 1 they overlapped at m = 3 and read 0.057 against 1e-3."""
    cfg = su.RunConfig(suites=("mc-crosscheck",), masses=(1.0, 3.0))
    one, three = [r for r in su.suite_mc_crosscheck(cfg)
                  if r.name == "mc_far_separation"]
    assert three.inputs == {"seed": 0, "m": 3.0} and three.passed, three
    assert abs(three.measured - one.measured) <= 1e-12 * one.measured


def test_worst_of_keeps_nan():
    assert worst_of(0.0, 2.0, 1.0) == 2.0
    for values in ((0.0, math.nan), (math.nan, 0.0), (1.0, math.nan, 3.0)):
        assert math.isnan(worst_of(*values))


@pytest.mark.parametrize("module, check, suite, names, first_alone", [
    (sp, "check_group_law", "wigner", ("group_law_su2", "group_law_sl2c"),
     0),
    (kr, "check_factorization", "kernels", ("onshell_factorization",), 0),
    (kr, "check_kernel_covariance", "kernels", ("kernel_covariance",), 0),
    (gn, "_pair_residuals", "generators", ("lie_algebra",), 0),
    # one residual per report: the first report holds the first alone
    (gn, "casimir_residual", "casimir", ("mass_casimir",), 1),
], ids=["wigner", "kernels-factorization", "kernels-covariance",
        "generators", "casimir"])
def test_nan_measurement_inside_a_running_worst_fails(
        monkeypatch, module, check, suite, names, first_alone):
    """A NaN after the first measurement must not vanish into max()."""
    measure = getattr(module, check)
    calls = []

    def nan_after_first(*args, **kwargs):
        calls.append(measure(*args, **kwargs))
        return calls[0] if len(calls) == 1 else math.nan

    monkeypatch.setattr(module, check, nan_after_first)
    cfg = su.RunConfig(suites=(suite,), two_spins=(1,),
                       variants=(KV.RIGHT, KV.LEFT))
    reports = [r for r in su.SUITES[suite][0](cfg) if r.name in names]
    assert len(calls) > 1 and len(reports) > first_alone
    assert {r.name for r in reports} == set(names)
    for r in reports[first_alone:]:
        assert math.isnan(r.measured) and not r.passed, r


def test_kernel_covariance_covers_every_kept_spin(monkeypatch):
    check = kr.check_kernel_covariance
    spins = set()

    def recorded(variant, m, two_s, *args, **kwargs):
        spins.add(two_s)
        return check(variant, m, two_s, *args, **kwargs)

    monkeypatch.setattr(kr, "check_kernel_covariance", recorded)
    cfg = su.RunConfig(suites=("kernels",), two_spins=(0, 1, 2, 3, 4, 5),
                       variants=(KV.RIGHT,))
    su.suite_kernels(cfg)
    assert spins == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("variant", [KV.RIGHT, KV.LEFT_DUAL])
def test_onshell_positivity_sees_a_non_hermitian_kernel(monkeypatch,
                                                        variant):
    # eigvalsh reads the lower triangle only, so an upper-triangle entry
    # moved by 1e-6 of the kernel leaves every eigenvalue as it was; the
    # check must still fail on it
    build = kr.onshell_kernel_grid

    def skewed(variant, m, two_s, points, **kw):
        kernel = build(variant, m, two_s, points, **kw)
        if two_s:
            kernel = kernel.copy()
            kernel[0, -1] += 1e-6 * abs(kernel).max(axis=(0, 1))
        return kernel

    monkeypatch.setattr(kr, "onshell_kernel_grid", skewed)
    cfg = su.RunConfig(suites=("kernels",), two_spins=(0, 1),
                       variants=(variant,))
    reports = [r for r in su.suite_kernels(cfg)
               if r.name == "onshell_positivity"]
    assert reports and all(not r.passed and r.measured > 1e-7
                           for r in reports), reports
    monkeypatch.setattr(kr, "onshell_kernel_grid", build)
    assert all(r.passed for r in su.suite_kernels(cfg)
               if r.name == "onshell_positivity")
