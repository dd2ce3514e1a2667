"""Pairings streamed through grid slabs against whole-grid products.

``MomentumQuadrature.pairings``, ``gram_matrix``,
``generators.hermiticity_defects`` and ``IrrepState.inner`` and
``.distance`` sum over the grid one slab of first-axis planes at a time.
Each is compared with the one-product oracle in ``oracles.py`` with the
grid cut into one slab, into slabs of five planes (the last one partial)
and into single planes.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracles import (contract_full_grid, engine_values, gram_full_grid,
                     hermiticity_rows_full_grid, irrep_distance_full_grid,
                     irrep_inner_full_grid)
from rqmcheck import generators as gn
from rqmcheck import hilbert as hl
from rqmcheck import suites as su
from rqmcheck.spacetime import KernelVariant as KV

NODES, SMALL_NODES = 24, 16

# SLAB_POINTS -> planes per slab at 24 nodes: 24 (one slab), 5 (slabs of
# 5, 5, 5, 5, 4; at 16 nodes 11 and 5) and 1
SLABBINGS = pytest.mark.parametrize("slab_points", [
    NODES ** 3, 5 * NODES ** 2, 1], ids=["one-slab", "five-planes",
                                         "one-plane"])


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@SLABBINGS
@pytest.mark.parametrize("two_s", [1, 2])
def test_streamed_gram_and_contract_match_full_grid(monkeypatch, two_s,
                                                    slab_points):
    monkeypatch.setattr(hl, "SLAB_POINTS", slab_points)
    fs = su.positivity_family(np.random.default_rng(40 + two_s), two_s, 4)
    quad = hl.MomentumQuadrature(fs, 1.2, NODES)
    variants = tuple(KV)
    grams = hl.gram_matrix(quad, fs, variants)
    # bras and kets that differ and overlap, in one pass
    cross = quad.pairings(fs[:2], fs[1:], variants)
    values = [engine_values(quad, f) for f in fs]
    for variant, rep, pairs in zip(variants, grams, cross):
        want = gram_full_grid(quad, fs, variant)
        for i in range(len(fs)):
            for j in range(len(fs)):
                assert_close(rep.matrix[i, j], want[i, j])
        for i in range(2):
            for j in range(len(fs) - 1):
                assert_close(pairs[i, j], contract_full_grid(
                    quad, values[i], values[j + 1], variant))


@SLABBINGS
def test_streamed_hermiticity_rows_match_full_grid(monkeypatch, slab_points):
    monkeypatch.setattr(hl, "SLAB_POINTS", slab_points)
    pairs = su.hermiticity_pairs(np.random.default_rng(41), 1, 2)
    args = (pairs, 1.0, tuple(KV), gn.GENERATOR_NAMES, NODES, SMALL_NODES)
    rows = gn.hermiticity_defects(*args)
    want = hermiticity_rows_full_grid(*args)
    assert [r[:3] for r in rows] == [w[:3] for w in want]
    for (*_, lhs, rhs, _), (*_, want_lhs, want_rhs) in zip(rows, want):
        assert_close(lhs, want_lhs)
        assert_close(rhs, want_rhs)


def test_hermiticity_fills_each_pair_once_per_slab_and_engine(monkeypatch):
    # per pair and engine one stacked transform: f, g and their orbital
    # images under J and K (six) at NODES, under H and P (four) at
    # SMALL_NODES, filled by one evaluate call per slab
    monkeypatch.setattr(hl, "SLAB_POINTS", 5 * NODES ** 2)
    rows = Counter()
    evaluate = hl.MomentumWaveFunction.evaluate

    def counted(mwf, points, grid=None, out=None):
        rows[len(mwf.comps)] += 1
        return evaluate(mwf, points, grid=grid, out=out)

    monkeypatch.setattr(hl.MomentumWaveFunction, "evaluate", counted)
    pairs = su.hermiticity_pairs(np.random.default_rng(41), 1, 2)
    gn.hermiticity_defects(pairs, 1.0, tuple(KV), gn.GENERATOR_NAMES, NODES,
                           SMALL_NODES)
    assert rows == {2 * (2 + 2 * 6): len(pairs) * len(hl.slab_planes(NODES)),
                    2 * (2 + 2 * 4): (len(pairs)
                                      * len(hl.slab_planes(SMALL_NODES)))}
    assert len(hl.slab_planes(NODES)) == 5


def test_hermiticity_pair_memory_is_slab_bounded():
    # the whole-grid form held 14 transforms, kernel copies and kernel
    # build scratch at once: a 478 MB peak for this pair; with a kept
    # RIGHT kernel and point array, 98 MB; with slab-built kernel rows,
    # 27.5 MB.  One stacked fill into reused slab buffers measures
    # 26.2 MB; the pin leaves 7.8 MB for allocator variation
    pairs = su.hermiticity_pairs(np.random.default_rng(0), 1, 1)
    tracemalloc.start()
    try:
        gn.hermiticity_defects(pairs, 1.0, tuple(KV), gn.GENERATOR_NAMES,
                               88, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34e6, peak / 1e6


def test_gram_pass_memory_is_slab_bounded():
    # all four variants' Gram matrices of eight spin-1 functions on 40^3
    # points in one pass: 28.2 MB measured, where kept whole-grid
    # transforms and a kept RIGHT kernel peaked at 67 MB.  The pass's
    # slab buffers stay allocated while the next slab builds its kernel
    # rows, and apply_kernel's scratch is one row; the pin leaves 7.8 MB
    # for allocator variation
    fs = su.positivity_family(np.random.default_rng(0), 2, 8)
    quad = hl.MomentumQuadrature(fs, 1.0, 40)
    tracemalloc.start()
    try:
        hl.gram_matrix(quad, fs, tuple(KV))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36e6, peak / 1e6


def _irrep_state(rng, two_s, nodes):
    f = hl.random_test_function(rng, two_s=two_s, terms_per_component=1,
                                center_scale=0.25, beta_range=(0.3, 0.45),
                                tau0_max=0.3, shared_envelope=True)
    return gn.state_from_test_function(f, 1.0, nodes=nodes)


@SLABBINGS
@pytest.mark.parametrize("two_s", [0, 1, 2])
def test_streamed_irrep_inner_and_distance_match_full_grid(
        monkeypatch, two_s, slab_points):
    monkeypatch.setattr(hl, "SLAB_POINTS", slab_points)
    rng = np.random.default_rng(50 + two_s)
    state = _irrep_state(rng, two_s, NODES)
    moved = gn.apply_poincare_irrep(state, su._random_poincare(rng))
    window = gn.momentum_project(state.source, 1.0, [0.5, 0.0, 0.0], 0.8,
                                 nodes=NODES)
    projected = gn.spin_project(state, two_s, euler_nodes=(2, 2, 2))
    for a, b in ((state, state), (state, moved), (moved, moved),
                 (window, moved), (projected, state), (moved, projected)):
        assert_close(a.inner(b), irrep_inner_full_grid(a, b))
        assert_close(a.distance(b), irrep_distance_full_grid(a, b))


def test_moved_irrep_norm_memory_is_slab_bounded():
    # the whole-grid form held the moved state's values and the irrep
    # action's scratch on all 72^3 points at once: a 218 MB peak
    rng = np.random.default_rng(0)
    state = _irrep_state(rng, 2, 72)
    moved = gn.apply_poincare_irrep(state, su._random_poincare(rng))
    tracemalloc.start()
    try:
        moved.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak / 1e6


def test_off_center_spin_projection_norm_holds_one_phase():
    # 1024 terms over 512 centers: one phase array per center, kept for
    # the whole evaluation, gave a 67 MB peak here
    f = hl.gaussian_packet(two_s=1, center=(0.3, -0.2, 0.1))
    state = gn.state_from_test_function(f, 1.0, nodes=20)
    projected = gn.spin_project(state, 1, euler_nodes=(8, 8, 8))
    assert len({t.center for c in projected.source.comps for t in c}) == 512
    tracemalloc.start()
    try:
        projected.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak / 1e6
