"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Checks that
* every traced function is rebound at every call site, and restored after;
* lazy ``IrrepState``s charge their later evaluations to their own layer,
  with the transform nested beneath as a child span;
* on each workload (one untraced and one traced call), the traced reports
  equal the untraced ones bit for bit, the verdict gate passes, every
  layer metric listed for the workload below is nonzero, and the layer
  self times add up to the traced wall time.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import run
from tracer import SELF_TIME_METRICS, Bindings, Tracer, install

# layer metrics each workload exists to move; they must not read zero
NONZERO = {
    "grid-quadrature": (
        "suite_s.positivity", "suite_s.hermiticity", "suite_s.casimir",
        "hilbert.transform.s", "hilbert.transform.calls",
        "hilbert.transform.term_points", "hilbert.transform.unique_ratio",
        "hilbert.inner_product.self_s", "hilbert.gram_matrix.self_s",
        "suites.run_hermiticity_matrix.self_s", "hilbert.tensor_grid.calls",
        "kernels.onshell_grid.s", "kernels.onshell_grid.calls",
        "kernels.onshell_grid.unique_ratio", "generators.algebra.s",
        "suites.self_s"),
    "irrep-action": (
        "suite_s.irrep", "generators.irrep_action.s",
        "generators.irrep_action.points", "generators.irrep_inner.s",
        "generators.irrep_inner.points", "spin.wigner_d.s",
        "spin.wigner_d.calls", "spin.wigner_d.points",
        "hilbert.transform.s", "spacetime.s", "spacetime.calls",
        "suites.self_s"),
    "structural": (
        "suite_s.algebra", "suite_s.wigner", "suite_s.kernels",
        "suite_s.generators", "kernels.position.s", "kernels.position.points",
        "generators.algebra.s", "generators.algebra.calls", "spacetime.s",
        "spacetime.calls", "spin.wigner_d.s", "spin.wigner_d.calls",
        "spin.wigner_d.points", "suites.self_s"),
    "position-mc": (
        "suite_s.wedge", "suite_s.mc-crosscheck", "suite_s.algebra",
        "suite_s.wigner", "suite_s.kernels", "suite_s.generators",
        "hilbert.mc.s", "hilbert.mc.samples", "kernels.position.s",
        "kernels.position.points", "generators.algebra.s",
        "generators.algebra.calls", "spacetime.s", "spacetime.calls",
        "spin.wigner_d.s", "suites.self_s"),
}


def expect(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def rqmcheck_values():
    return [value for mod in sys.modules.values()
            if mod is not None and mod.__name__.startswith("rqmcheck")
            for value in vars(mod).values()]


def check_bindings():
    bindings = Bindings()
    install(Tracer(), bindings)
    originals = [value for _, _, value in bindings._undo]
    remaining = [v for v in rqmcheck_values()
                 if any(v is o for o in originals) and callable(v)]
    from rqmcheck import generators, hilbert

    wrapped_here = all(hasattr(fn, "__wrapped__") for fn in (
        hilbert.onshell_kernel_grid, hilbert.scalar_position_kernel,
        generators.inner_product, generators.position_inner_product_mc,
        generators.wigner_d_entries, generators.tensor_grid))
    bindings.restore()
    expect(not remaining, "no module keeps an unwrapped traced function")
    expect(wrapped_here,
           "importing modules (hilbert, generators) call the wrappers")
    expect(not any(hasattr(v, "__wrapped__") for v in rqmcheck_values()
                   if callable(v)),
           "restore leaves no wrapper behind")


def check_lazy_states():
    from rqmcheck import generators as gn
    from rqmcheck import hilbert as hl
    from rqmcheck import spacetime as st

    tracer = Tracer()
    bindings = Bindings()
    install(tracer, bindings)
    try:
        f = hl.gaussian_packet(two_s=1, k=1, beta=0.5)
        state = gn.state_from_test_function(f, 1.0, nodes=6)
        g = st.PoincareElement.from_fourvector(
            st.boost_sl2c([0.0, 0.0, 1.0], 0.2), np.zeros(4))
        pts = np.random.default_rng(0).normal(size=(50, 3))
        moved = gn.apply_poincare_irrep(state, g)
        projected = gn.spin_project(state, 1, euler_nodes=(2, 2, 2))
        window = gn.momentum_project(hl.gaussian_packet(beta=0.5), 1.0,
                                     [0.5, 0.0, 0.0], 0.8, nodes=6)
        before = dict(tracer.self_s)
        moved.evaluate(pts)
        projected.evaluate(pts)
        window.evaluate(pts)
        moved.norm()
    finally:
        bindings.restore()
    for layer in ("generators.irrep_action", "generators.spin_project",
                  "generators.momentum_project", "generators.irrep_inner"):
        expect(tracer.self_s[layer] > before.get(layer, 0.0),
               f"later evaluation is charged to {layer}")
    parents = {span[1]: span[3] for span in tracer.spans}
    expect(any(span[3] == "hilbert.transform"
               and parents.get(span[2]) == "generators.irrep_action"
               for span in tracer.spans),
           "transforms nest under the irrep action as child spans")
    points = tracer.counts["generators.irrep_action.points"]
    expect(points == len(pts) + 2 * 6 ** 3,
           f"irrep action points counted ({points})")


def check_workload(name):
    bench = run.Run(name, seed=0)
    bench.measure(seconds=0.0, trace=1)
    expect(bench.failed == 0,
           f"{name}: gate passes and traced reports equal untraced "
           f"({bench.attempted} checks; {bench.problems})")
    metrics = run.per_layer(bench)
    zero = [m for m in NONZERO[name] if not metrics.get(m)]
    expect(not zero, f"{name}: listed layer metrics are nonzero {zero}")
    total = sum(metrics[m] for m in SELF_TIME_METRICS.values())
    wall = metrics["trace.wall_s"]
    expect(math.isclose(total, wall, rel_tol=1e-9),
           f"{name}: layer self times {total:.6f} s add up to traced "
           f"wall {wall:.6f} s")


def main():
    run.import_program()
    check_bindings()
    check_lazy_states()
    for name in sorted(run.WORKLOADS):
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
