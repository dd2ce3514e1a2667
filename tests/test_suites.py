"""Suite bodies: work done per function family and what reports carry."""

import dataclasses
import math
from collections import Counter

import pytest

from rqmcheck import hilbert as hl
from rqmcheck import spin as sp
from rqmcheck import suites as su
from rqmcheck.report import worst_of
from rqmcheck.spacetime import KernelVariant as KV

# two seeds at one mass and spin: two function families per suite
SMALL = dict(two_spins=(0,), variants=(KV.RIGHT, KV.LEFT), seeds=(0, 1),
             gram_size=3, gram_nodes=16)


@pytest.mark.parametrize("suite, transforms_per_family", [
    ("positivity", SMALL["gram_size"]),
    ("casimir", 3),      # f, g and the wave operator applied to g
    ("semigroup", 5),    # f and its four nonzero time shifts
])
def test_one_engine_per_family(monkeypatch, suite, transforms_per_family):
    counts = Counter()

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(hl.MomentumWaveFunction, "evaluate", "transforms")
    counted(hl, "onshell_kernel_grid", "kernels")
    counted(hl, "tensor_grid", "grids")
    cfg = su.RunConfig(suites=(suite,), **SMALL)
    reports = su.SUITES[suite][0](cfg)
    assert reports
    families = len(cfg.seeds) * len(cfg.masses) * len(cfg.two_spins)
    assert counts == {"transforms": families * transforms_per_family,
                      "kernels": families,
                      "grids": families}


def test_gram_reports_carry_hermiticity_defect():
    cfg = su.RunConfig(suites=("positivity",), two_spins=(0, 1), gram_size=4,
                       gram_nodes=24)
    reports = su.suite_positivity(cfg)
    assert len(reports) == 2 * len(cfg.variants)
    for rep in reports:
        defect = rep.details["hermiticity_defect"]
        assert 0.0 <= defect <= 1e-10 * max(abs(rep.details["max_eig"]), 1.0)


@pytest.mark.parametrize("elements", [1, 3])
def test_irrep_family_builds_two_grids(monkeypatch, elements):
    grids = []
    build = hl.tensor_grid

    def counted(box, nodes):
        grids.append((box, nodes))
        return build(box, nodes)
    monkeypatch.setattr(hl, "tensor_grid", counted)
    cfg = su.RunConfig(suites=("irrep",), two_spins=(0,),
                       irrep_elements=elements)
    reports = su.suite_irrep(cfg)
    # one coarse grid for the group law, one fine grid for the norms, and
    # each report names the grid its check used
    assert [nodes for _, nodes in grids] == [40, 72]
    assert [(r.details["box"], r.details["nodes"]) for r in reports] == grids


def test_worst_of_keeps_nan():
    assert worst_of(0.0, 2.0, 1.0) == 2.0
    for values in ((0.0, math.nan), (math.nan, 0.0), (1.0, math.nan, 3.0)):
        assert math.isnan(worst_of(*values))


def test_nan_measurement_inside_a_running_worst_fails(monkeypatch):
    """A NaN after the first measurement must not vanish into max()."""
    check = sp.check_group_law
    calls = []

    def nan_after_first(*args, **kwargs):
        rep = check(*args, **kwargs)
        calls.append(rep)
        if len(calls) == 1:
            return rep
        return dataclasses.replace(rep, measured=math.nan, passed=False)

    monkeypatch.setattr(sp, "check_group_law", nan_after_first)
    cfg = su.RunConfig(suites=("wigner",), two_spins=(1,))
    reports = {r.name: r for r in su.suite_wigner(cfg)}
    for name in ("group_law_su2", "group_law_sl2c"):
        assert math.isnan(reports[name].measured)
        assert not reports[name].passed
