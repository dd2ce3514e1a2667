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
