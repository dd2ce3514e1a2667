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
    so the tracer's ``generators.algebra`` layer sees every image it builds
    (10 + 90 ``apply_generator`` calls) and each pair's ``commutator_rhs``
    (45); at spin 0 no spin matrix is built."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Bindings, Tracer, install

    from rqmcheck import generators as gn
    from rqmcheck import hilbert as hl

    f = hl.random_test_function(np.random.default_rng(5), two_s=0, min_k=2,
                                max_k=3)
    tracer, bindings = Tracer(), Bindings()
    install(tracer, bindings)
    try:
        traced = gn.lie_algebra_residuals(f)
    finally:
        bindings.restore()
    assert tracer.counts["generators.algebra.calls"] == 100 + 45
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

    passes = []          # (nodes, rows, terms of the functions) per plan
    plan = hl.MomentumQuadrature.plan

    def recorded_plan(quad, functions, scratch=None):
        functions = list(functions)
        passes.append((quad.nodes, sum(f.dim for f in functions),
                       sum(len(ts) for f in functions for ts in f.comps)))
        return plan(quad, functions, scratch)

    monkeypatch.setattr(hl.MomentumQuadrature, "plan", recorded_plan)
    cfg = su.RunConfig(suites=("positivity", "hermiticity", "casimir"),
                       two_spins=(0, 1), variants=(KV.RIGHT, KV.LEFT_DUAL),
                       gram_size=3, gram_nodes=12, hermiticity_pairs=1)
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
    # one pair: each hermiticity engine's slabs are sized by its one plan
    slabs = [len(hl.slab_planes(nodes, rows)) for nodes, rows, _ in passes]
    assert metrics["hilbert.transform.calls"] == sum(slabs)
    assert metrics["hilbert.transform.terms"] == sum(
        n * terms for n, (*_, terms) in zip(slabs, passes))
    assert metrics["hilbert.transform.term_points"] == sum(
        nodes ** 3 * terms for nodes, _, terms in passes)
