"""Benchmark workloads: suite sets and the run lengths that size them.

Every workload is a ``run_suites`` call at the default configuration,
except for ``RunConfig`` size fields, which set how long one call takes.
The workload seed becomes ``RunConfig.seeds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    suites: tuple
    sizes: dict = field(default_factory=dict)

    def config(self, seed):
        from rqmcheck.suites import RunConfig

        return RunConfig(suites=self.suites, seeds=(int(seed),), jobs=1,
                         **self.sizes)


WORKLOADS = {
    # Transform evaluation dominates; covers all three quadrature paths
    # (inner_product via casimir, gram_matrix, run_hermiticity_matrix).
    # semigroup is left out: it adds only inner_product calls, at 12 s a
    # call, and two calls of this workload must fit one 45 s run.
    "grid-quadrature": Workload(
        ("positivity", "hermiticity", "casimir"),
        {"gram_size": 8, "hermiticity_pairs": 1}),
    # Transforms at pulled-back points, the batched SL(2,C) algebra and
    # Wigner D entries.  Not listed in BENCHMARK.json: irrep_unitarity
    # fails on seeds 1, 7 and 25 of 0-29 (see README.md).  projections
    # (53 s a call, no size field) does not fit one run.
    "irrep-action": Workload(
        ("irrep",),
        {"irrep_elements": 2}),
    # The small-call spacetime/spin/kernel/generator-algebra path: no
    # tensor-grid quadrature, no irrep action and no RQMC, so this is the
    # control for grid and irrep changes.
    "structural": Workload(
        ("algebra", "wigner", "kernels", "generators")),
    # 8-D RQMC with the hand-built Bessel kernel plus the structural suites.
    # Not listed in BENCHMARK.json: its two RQMC verdicts are 3-sigma
    # statistical gates on 8 scrambles, which fail on a few percent of
    # seeds with a correct program (see README.md).
    "position-mc": Workload(
        ("wedge", "mc-crosscheck", "algebra", "wigner", "kernels",
         "generators"),
        {"mc_points_log2": 15}),
}


def _small_spins(cfg):
    return len([t for t in cfg.two_spins if t <= 2])


# checks each suite emits for a config, read off the suite bodies
EXPECTED_CHECKS = {
    "algebra": lambda c: 8 * len(c.seeds),
    "wigner": lambda c: 7 * len(c.seeds),
    "kernels": lambda c: 2 + len(c.masses) + 5 * len(c.seeds) * len(c.masses),
    "positivity": lambda c: (len(c.seeds) * len(c.masses) * len(c.two_spins)
                             * len(c.variants)),
    "generators": lambda c: len(c.seeds) * len(c.two_spins) * len(c.variants),
    "hermiticity": lambda c: (len(c.seeds) * len(c.masses) * 10
                              * c.hermiticity_pairs * len(c.variants)),
    "wedge": lambda c: len(c.seeds) * len(c.masses),
    "irrep": lambda c: len(c.seeds) * len(c.masses) * _small_spins(c) * 2,
    "casimir": lambda c: (len(c.seeds) * len(c.masses) * _small_spins(c)
                          * (len(c.variants) + 1)),
    "mc-crosscheck": lambda c: len(c.seeds) * len(c.masses) * 3,
}


def expected_checks(cfg):
    return sum(EXPECTED_CHECKS[name](cfg) for name in cfg.suites)
