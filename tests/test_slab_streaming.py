"""Pairings streamed through grid slabs against whole-grid products.

``MomentumQuadrature.pairings``, ``gram_matrix``,
``generators.hermiticity_defects`` and ``IrrepState.inner`` and
``.distance`` sum over the grid one slab of first-axis planes at a time.
Each is compared with the one-product oracle in ``oracles.py`` with the
grid cut into one slab, into slabs of five planes (the last one partial)
and into single planes.  The memory pins measure tracemalloc's peak over
one pass at the default slab sizes, and over one residue check, whose
energy trapezoids stream in blocks the same way.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracles import (component_sums_full_grid, contract_full_grid,
                     engine_values, gram_full_grid,
                     hermiticity_rows_full_grid, irrep_distance_full_grid,
                     irrep_inner_full_grid)
from rqmcheck import generators as gn
from rqmcheck import hilbert as hl
from rqmcheck import kernels as kr
from rqmcheck import suites as su
from rqmcheck.spacetime import KernelVariant as KV

NODES, SMALL_NODES = 24, 16

# SLAB_POINTS -> planes per slab at 24 nodes: 24 (one slab), 5 (slabs of
# 5, 5, 5, 5, 4; at 16 nodes 11 and 5) and 1, whatever a pass's rows
SLABBINGS = pytest.mark.parametrize("slab_points", [
    NODES ** 3, 5 * NODES ** 2, 1], ids=["one-slab", "five-planes",
                                         "one-plane"])


def set_slab_points(monkeypatch, slab_points):
    """Slabs of ``slab_points`` points for a pass of up to 64 rows."""
    monkeypatch.setattr(hl, "SLAB_POINTS", slab_points)
    monkeypatch.setattr(hl, "SLAB_VALUES", 64 * slab_points)


def peak_mb(fn) -> float:
    """tracemalloc's peak over one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_slab_planes_shrink_with_rows():
    # up to eight rows keep the planes of SLAB_POINTS points a slab; more
    # rows give fewer planes, down to one, and the slabs tile the grid
    for n in (2, 7, 24, 40, 48, 88, 112, 200):
        points_only = min(n, max(1, hl.SLAB_POINTS // (n * n)))
        widths = []
        for rows in (1, 2, 8, 9, 12, 24, 28, 100, 10 ** 6):
            planes = hl.slab_planes(n, rows)
            width = planes[0][1] - planes[0][0]
            assert planes == [(lo, min(lo + width, n))
                              for lo in range(0, n, width)]
            # a slab passes a bound only when it is one plane
            size = width * n * n
            assert width == 1 or (size <= hl.SLAB_POINTS
                                  and size * rows <= hl.SLAB_VALUES)
            widths.append(width)
        assert widths[:3] == [points_only] * 3
        assert all(a >= b >= 1 for a, b in zip(widths, widths[1:]))
        assert widths[-1] == 1
    assert len(hl.slab_planes(40, 24)) > len(hl.slab_planes(40, 8)) == 4


@SLABBINGS
@pytest.mark.parametrize("two_s", [1, 2])
def test_streamed_gram_and_contract_match_full_grid(monkeypatch, two_s,
                                                    slab_points):
    set_slab_points(monkeypatch, slab_points)
    fs = su.positivity_family(np.random.default_rng(40 + two_s), two_s, 4)
    quad = hl.MomentumQuadrature(fs, 1.2, NODES)
    variants = tuple(KV)
    grams = hl.gram_matrix(quad, fs, variants)
    values = [engine_values(quad, f) for f in fs]
    # one pass, two blocks that share functions: bras and kets that differ
    # and overlap, views of the block's values; then bras with a repeat
    # and kets out of order, which are taken from them.  Every component
    # sum, off-diagonal ones included, and its trace, the pairing
    blocks = (([0, 1], [1, 2, 3]), ([1, 0, 1], [3, 0]))
    sums = quad.pairings([([fs[i] for i in bra_at], [fs[j] for j in ket_at])
                          for bra_at, ket_at in blocks], variants)
    for (bra_at, ket_at), block in zip(blocks, sums):
        assert block.shape == (len(variants), len(bra_at), len(ket_at),
                               two_s + 1, two_s + 1)
        for variant, comps in zip(variants, block):
            for a, i in enumerate(bra_at):
                for b, j in enumerate(ket_at):
                    want = component_sums_full_grid(quad, values[i],
                                                    values[j], variant)
                    for u, w in np.ndindex(want.shape):
                        assert_close(comps[a, b, u, w], want[u, w])
                    assert_close(np.trace(comps[a, b]), contract_full_grid(
                        quad, values[i], values[j], variant))
    for variant, rep in zip(variants, grams):
        want = gram_full_grid(quad, fs, variant)
        for i in range(len(fs)):
            for j in range(len(fs)):
                assert_close(rep.matrix[i, j], want[i, j])


@SLABBINGS
def test_streamed_hermiticity_rows_match_full_grid(monkeypatch, slab_points):
    set_slab_points(monkeypatch, slab_points)
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
    # SMALL_NODES, filled by one evaluate call per slab of a size for
    # those rows and the kernel products of the kets f and g at every
    # variant
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
    jk, hp, kets = 2 * (2 + 2 * 6), 2 * (2 + 2 * 4), len(KV) * 2 * 2
    assert rows == {
        jk: len(pairs) * len(hl.slab_planes(NODES, jk + kets)),
        hp: len(pairs) * len(hl.slab_planes(SMALL_NODES, hp + kets))}
    assert len(hl.slab_planes(NODES, jk + kets)) == 5


def _hermiticity_pass(count):
    pairs = su.hermiticity_pairs(np.random.default_rng(0), 1, count)
    return lambda: gn.hermiticity_defects(pairs, 1.0, tuple(KV),
                                          gn.GENERATOR_NAMES, 88, 32)


def test_hermiticity_pair_memory_is_slab_bounded():
    # the whole-grid form held 14 transforms, kernel copies and kernel
    # build scratch at once: a 478 MB peak for this pair; with a kept
    # RIGHT kernel and point array, 98 MB; with slab-built kernel rows,
    # 27.5 MB; one stacked fill into reused slab buffers, 26.2 MB.  Slabs
    # sized by the pair's 28 rows (one plane of 88^2 points), omega per
    # slab, weighted kernel rows and every variant's bras and kets kept
    # per slab measured 10.7 MB; its block's component sums from
    # MomentumQuadrature.pairings, 9.0 MB; the pin leaves 2.8 MB
    assert peak_mb(_hermiticity_pass(1)) < 11.8


def test_ten_hermiticity_pairs_memory_is_slab_bounded():
    # the suite's ten pairs: every pair's plan is kept for the whole walk,
    # about 0.9 MB a pair, on top of one pair's slab buffers; 17.7 MB
    # measured (19.3 MB with a private slab loop, 34.1 MB with fixed
    # 16k-point slabs and an omega cube per engine); the pin leaves 2.8 MB
    assert peak_mb(_hermiticity_pass(10)) < 20.5


def test_gram_pass_memory_is_slab_bounded():
    # all four variants' Gram matrices of eight spin-1 functions on 40^3
    # points in one pass: 24 value rows and 96 rows of kernel products,
    # so slabs of one plane, with bras and kets read from the value block
    # and the weights in the kernel rows.  4.4 MB measured (6.7 MB with
    # slabs sized by the value rows only), where fixed 16k-point slabs
    # with a weighted bra copy peaked at 28.2 MB and kept whole-grid
    # transforms and a kept RIGHT kernel at 67 MB; the pin leaves 2.8 MB
    fs = su.positivity_family(np.random.default_rng(0), 2, 8)
    quad = hl.MomentumQuadrature(fs, 1.0, 40)
    assert peak_mb(lambda: hl.gram_matrix(quad, fs, tuple(KV))) < 7.2


def test_casimir_pass_memory_is_slab_bounded():
    # the casimir suite's spin-1 pass: f against (H^2 - P^2) g and g, nine
    # value rows and 24 rows of kernel products on 48^3 points, every
    # variant, so slabs of one plane; 2.8 MB measured (11.7 MB with slabs
    # of six planes sized by the value rows only, where the spin-1 kernel
    # build set the peak; 16.0 MB with an omega cube and a weighted bra
    # copy); the pin leaves 2.8 MB
    rng = np.random.default_rng(0)
    f, g = (hl.random_test_function(rng, two_s=2, terms_per_component=1,
                                    min_k=2, max_k=3, center_scale=0.3,
                                    beta_range=(0.3, 0.6)) for _ in range(2))
    quad = hl.MomentumQuadrature((f, g), 1.0, 48)
    assert peak_mb(lambda: gn.casimir_pairings(quad, f, g, tuple(KV))) < 5.6


def test_engine_holds_no_grid_array():
    # an engine keeps its axis nodes and weights only: the omega cube it
    # held was 5.4 MB at 88 nodes, built through two more n^3 temporaries
    f = hl.gaussian_packet(two_s=1, beta=0.4)
    assert peak_mb(lambda: hl.MomentumQuadrature([f], 1.0, 88)) < 1.0


def test_residue_trapezoids_stream_in_blocks():
    # the whole 200,000-node energy grid and its integrands gave a
    # 12.9 MB peak; blocks of RESIDUE_BLOCK intervals measure 0.73 MB
    for two_s in (0, 4):
        assert peak_mb(lambda: kr.check_residue_consistency(
            KV.LEFT, 1.3, two_s, [0.3, -0.2, 0.5], 1.0)) < 1.0


def _irrep_state(rng, two_s, nodes):
    f = hl.random_test_function(rng, two_s=two_s, terms_per_component=1,
                                center_scale=0.25, beta_range=(0.3, 0.45),
                                tau0_max=0.3, shared_envelope=True)
    return gn.state_from_test_function(f, 1.0, nodes=nodes)


@SLABBINGS
@pytest.mark.parametrize("two_s", [0, 1, 2])
def test_streamed_irrep_inner_and_distance_match_full_grid(
        monkeypatch, two_s, slab_points):
    set_slab_points(monkeypatch, slab_points)
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
    assert peak_mb(moved.norm) < 40.0


def test_off_center_spin_projection_norm_holds_one_phase():
    # 1024 terms over 512 centers: one phase array per center, kept for
    # the whole evaluation, gave a 67 MB peak here
    f = hl.gaussian_packet(two_s=1, center=(0.3, -0.2, 0.1))
    state = gn.state_from_test_function(f, 1.0, nodes=20)
    projected = gn.spin_project(state, 1, euler_nodes=(8, 8, 8))
    assert len({t.center for c in projected.source.comps for t in c}) == 512
    assert peak_mb(projected.norm) < 10.0
