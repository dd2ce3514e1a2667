"""The benchmark tracer still reaches every traced function.

``perfbench/tracer.py`` rebinds the public functions of ``rqmcheck`` at
every module that imports them; a refactor that moves or renames one
breaks ``perfbench/run.py --trace 1``.  This runs the binding part of
``perfbench/selftest.py`` and its lazy irrep-state check, which pins how
``IrrepState`` evaluations and ``inner`` are charged (its workload
checks take minutes).
"""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_traced_name_and_restores(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    selftest.check_bindings()      # exits 1 on a failed check
    assert "FAIL" not in capsys.readouterr().out


def test_tracer_charges_lazy_irrep_states(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    selftest.check_lazy_states()   # exits 1 on a failed check
    assert "FAIL" not in capsys.readouterr().out


def test_tracer_reaches_the_shared_lie_algebra_images(monkeypatch):
    """``lie_algebra_residuals`` looks its generator calls up at call time,
    so the tracer's ``generators.algebra`` layer sees the ten spin-matrix
    lookups of each variant and each pair's ``commutator_rhs`` (45, shared
    by the variants)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Bindings, Tracer, install

    from rqmcheck import generators as gn
    from rqmcheck import hilbert as hl
    from rqmcheck.spacetime import KernelVariant as KV

    f = hl.random_test_function(np.random.default_rng(5), two_s=0, min_k=2,
                                max_k=3)
    tracer, bindings = Tracer(), Bindings()
    install(tracer, bindings)
    try:
        traced = gn.lie_algebra_residuals(f)
        one_call = dict(tracer.counts)
        gn.lie_algebra_residuals(f, tuple(KV))
    finally:
        bindings.restore()
    assert one_call["generators.algebra.calls"] == 10 + 45
    assert tracer.counts["generators.algebra.calls"] == (10 + 45) + (40 + 45)
    assert traced == gn.lie_algebra_residuals(f)


def test_tracer_reaches_every_grid_quadrature_layer(monkeypatch):
    """One small positivity + hermiticity + casimir call reads nonzero on
    every tracer metric that ``perfbench/selftest.py`` requires of the
    grid-quadrature workload (the ``suite_s`` times come from the
    benchmark's suite timer, not the tracer): a refactor that stops
    reaching ``inner_product``, ``gram_matrix``, ``tensor_grid``, the
    on-shell kernel or ``run_hermiticity_matrix`` fails here, not only in
    the minutes-long self-test.

    The transform counts stay truthful under stacked transforms: one
    ``hilbert.transform`` call per slab of each pass, and ``.terms`` and
    ``.term_points`` the sums over every function the pass stacks, as
    recorded from each engine's ``plan`` calls."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest
    from tracer import Bindings, Tracer, install

    from rqmcheck import hilbert as hl
    from rqmcheck import suites as su
    from rqmcheck.spacetime import KernelVariant as KV

    passes = []          # (nodes, terms of the functions) per plan
    walks = []           # slabs per walk of a grid
    plan, slab_planes = hl.MomentumQuadrature.plan, hl.slab_planes

    def recorded_plan(quad, functions):
        functions = list(functions)
        passes.append((quad.nodes,
                       sum(len(ts) for f in functions for ts in f.comps)))
        return plan(quad, functions)

    def recorded_slab_planes(n, rows=1):
        planes = slab_planes(n, rows)
        walks.append(len(planes))
        return planes

    monkeypatch.setattr(hl.MomentumQuadrature, "plan", recorded_plan)
    monkeypatch.setattr(hl, "slab_planes", recorded_slab_planes)
    monkeypatch.setitem(su.GRID_NODES, "positivity", 12)
    cfg = su.RunConfig(suites=("positivity", "hermiticity", "casimir"),
                       two_spins=(0, 1), variants=(KV.RIGHT, KV.LEFT_DUAL),
                       gram_size=3, hermiticity_pairs=1)
    tracer, bindings = Tracer(), Bindings()
    install(tracer, bindings)
    try:
        reports, _ = tracer.root(su.run_suites)(cfg)
    finally:
        bindings.restore()
    assert reports and all(r.passed for r in reports)
    metrics = tracer.metrics()
    required = [m for m in selftest.NONZERO["grid-quadrature"]
                if not m.startswith("suite_s.")]
    for name in ("hilbert.inner_product.self_s", "hilbert.gram_matrix.self_s",
                 "hilbert.tensor_grid.calls", "kernels.onshell_grid.s",
                 "suites.run_hermiticity_matrix.self_s"):
        assert name in required
    assert not [m for m in required if not metrics.get(m)], metrics
    # every walk here pairs one block (one pair for hermiticity), so each
    # walk fills one plan once per slab
    assert len(walks) == len(passes)
    assert metrics["hilbert.transform.calls"] == sum(walks)
    assert metrics["hilbert.transform.terms"] == sum(
        n * terms for n, (_, terms) in zip(walks, passes))
    assert metrics["hilbert.transform.term_points"] == sum(
        nodes ** 3 * terms for nodes, terms in passes)
