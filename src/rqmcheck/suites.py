"""Named verification suites executed by the command-line runner.

Every suite is a pure function from a :class:`RunConfig` to a list of
:class:`CheckReport`; results are deterministic given the configured
seeds.  Tolerances can be loosened (never tightened) through the config;
loosened checks are flagged in their report inputs.  Every momentum grid
a suite builds takes its node count from :data:`GRID_NODES`.
"""

from __future__ import annotations

import math
import numbers
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import generators as gn
from . import hilbert as hl
from . import kernels as kr
from . import spacetime as st
from . import spin as sp
from .report import CheckReport, make_report, worst_of

ALL_VARIANTS = tuple(st.KernelVariant)

#: documented default tolerances, overridable (loosening only) per run
DEFAULT_TOLERANCES = {
    "roundtrip": 1e-14,
    "det_preservation": 1e-12,
    "intertwining": 1e-11,
    "theta_conjugation": 1e-12,
    "polar_reassembly": 1e-11,
    "boost_identity": 1e-12,
    "wigner_rotation_unitarity": 1e-10,
    "group_law_su2": 1e-11,
    "group_law_sl2c": 1e-8,
    "cg_addition": 1e-10,
    "cg_orthogonality": 1e-12,
    "spin_algebra": 1e-12,
    "conj_transpose": 1e-12,
    "factorization": 1e-10,
    "kernel_covariance": 1e-11,
    "kernel_positivity": 1e-12,
    "dual_metric": 1e-12,
    "bessel_oracle": 1e-10,
    "bessel_small_arg": 1e-4,
    "kernel_decay": 1e-7,
    "residue": 1e-4,
    "gram_eig": 1e-10,
    "commutator": 1e-13,
    "hermiticity": 1e-7,
    "semigroup": 1e-10,
    "wedge": 1.0,
    "irrep_group_law": 1e-6,
    "irrep_unitarity": 1e-6,
    "casimir": 1e-7,
    "projection_phase": 1e-4,
    "projection_orthogonality": 1e-4,
    "mc_sigmas": 3.0,
    "mc_far_ratio": 1e-3,
    "mc_monotone": 0.02,
}

#: sinh-mapped trapezoid nodes per momentum axis (:func:`hilbert.tensor_grid`)
#: of every grid a suite builds, the one place each count is set.  At
#: positivity, hermiticity, casimir, irrep, projection_window and
#: mc_reference, doubling the count moves the suite's measured values by
#: at most 1e-3 of their tolerance at m = 0.3, 1 and 3
#: (``test_grid_converged_under_doubling``); semigroup and spin_projection
#: are not covered
GRID_NODES = {
    "positivity": 32,        # the Gram matrices
    "hermiticity": 48,       # all ten generators on one engine
    "casimir": 32,
    "semigroup": 48,
    "irrep": 40,             # the group law and the norms
    "projection_window": 40,
    "spin_projection": 20,
    "mc_reference": 72,      # the momentum value RQMC is compared with
}

#: the RunConfig fields that size a run, named once for config and echo
SIZE_FIELDS = ("gram_size", "hermiticity_pairs", "mc_points_log2",
               "mc_scrambles", "irrep_elements")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class RunConfig:
    suites: tuple = ("all",)
    masses: tuple = (1.0,)
    two_spins: tuple = (0, 1, 2)
    variants: tuple = ALL_VARIANTS
    seeds: tuple = (0,)
    tolerances: dict = field(default_factory=dict)
    jobs: int = 1
    gram_size: int = 20
    hermiticity_pairs: int = 10
    mc_points_log2: int = 17
    mc_scrambles: int = 8
    irrep_elements: int = 20

    def __post_init__(self):
        """The one validation of every field, for flags, config files and
        callers alike; list fields are stored as tuples."""
        for name in ("suites", "masses", "two_spins", "variants", "seeds"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError(f"{name} must be a non-empty list")
            setattr(self, name, tuple(value))
        for name in self.suites:
            if not isinstance(name, str) or name not in (*SUITES, "all"):
                raise ValueError(f"unknown suite {name!r}")
        for m in self.masses:
            if not _is_finite_real(m) or m <= 0:
                raise ValueError(f"masses must be positive numbers, got {m!r}")
        self.masses = tuple(float(m) for m in self.masses)
        for ts in self.two_spins:
            if not _is_int(ts) or not 0 <= ts <= sp.MAX_TWO_S:
                raise ValueError(f"spins must be doubled integers in "
                                 f"[0, {sp.MAX_TWO_S}], got {ts!r}")
        for v in self.variants:
            if not isinstance(v, st.KernelVariant):
                raise ValueError(f"unknown kernel variant {v!r}")
        for seed in self.seeds:
            if not _is_int(seed) or seed < 0:
                raise ValueError(f"seeds must be nonnegative integers, "
                                 f"got {seed!r}")
        for name in ("jobs", *SIZE_FIELDS):
            value = getattr(self, name)
            # the RQMC standard error needs two scrambles, and the shift
            # check samples 2^(mc_points_log2 - 2) points
            least = 2 if name in ("mc_points_log2", "mc_scrambles") else 1
            if not _is_int(value) or value < least:
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{least}, got {value!r}")
        if not isinstance(self.tolerances, dict):
            raise ValueError("tolerances must be an object of name: value")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance name {name!r}")
            if not _is_finite_real(value):
                raise ValueError(f"tolerance override for {name!r} must be "
                                 f"a finite number, got {value!r}")
            if value < DEFAULT_TOLERANCES[name]:
                raise ValueError(
                    f"tolerance override for {name!r} may only loosen the "
                    f"default {DEFAULT_TOLERANCES[name]}")

    def tol(self, name: str):
        """Resolved tolerance plus a flag marking loosened defaults."""
        default = DEFAULT_TOLERANCES[name]
        value = float(self.tolerances.get(name, default))
        return value, value > default

    def report(self, name, tol_name, measured, inputs=None, details=None,
               negative_control=False) -> CheckReport:
        tol, loosened = self.tol(tol_name)
        inputs = dict(inputs or {})
        if loosened:
            inputs["loosened"] = True
        return make_report(name, measured, tol, inputs=inputs,
                           details=details, negative_control=negative_control)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _random_su2(rng) -> np.ndarray:
    return st.rotation_su2(rng.normal(size=3), rng.uniform(0.1, 2.0 * np.pi))


def _random_sl2c(rng, bound: float = 2.0) -> np.ndarray:
    """Unimodular matrix with all entries bounded in magnitude."""
    while True:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(a)
        if abs(det) < 1e-3:
            continue
        a = a / np.sqrt(det)
        if np.max(np.abs(a)) <= bound:
            return a


# ---------------------------------------------------------------------------
# suite bodies
# ---------------------------------------------------------------------------

def suite_algebra(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        rng = _rng(seed)
        worst_rt = 0.0
        worst_det = 0.0
        for _ in range(100):
            x = rng.normal(size=4)
            X = st.mink_to_matrix(x)
            worst_rt = worst_of(worst_rt, float(np.max(np.abs(
                st.matrix_to_mink(X) - x))))
            A = _random_sl2c(rng)
            B = _random_sl2c(rng)
            Xe = st.eucl_to_matrix(rng.normal(size=4))
            worst_det = worst_of(worst_det, abs(np.linalg.det(A @ Xe @ B.T)
                                                - np.linalg.det(Xe)))
        out.append(cfg.report("fourvector_roundtrip", "roundtrip", worst_rt,
                              {"seed": seed}))
        out.append(cfg.report("det_preservation", "det_preservation",
                              worst_det, {"seed": seed}))

        worst_int = 0.0
        worst_orth = 0.0
        for _ in range(25):
            A = _random_su2(rng)
            B = _random_su2(rng)
            O = st.orth_from_pair(A, B)
            worst_orth = worst_of(worst_orth, float(np.max(np.abs(
                O @ O.T - np.eye(4)))))
            xe = rng.normal(size=4)
            for variant in cfg.variants:
                left, right = kr.variant_pair_action(variant, A, B)
                lhs = left @ st.eucl_to_matrix(xe, variant) @ right
                rhs = st.eucl_to_matrix(O @ xe, variant)
                worst_int = worst_of(worst_int,
                                     float(np.max(np.abs(lhs - rhs))))
        out.append(cfg.report("pair_intertwining", "intertwining", worst_int,
                              {"seed": seed}))
        out.append(cfg.report("pair_orthogonality", "intertwining",
                              worst_orth, {"seed": seed}))

        lam = float(rng.uniform(0.2, 1.2))
        A = st.rotation_su2([0.0, 0.0, 1.0], lam)
        Th = st.THETA
        O_rot = st.orth_from_pair(A, A.conj())
        O_bst = st.orth_from_pair(A, A.T)
        dev = worst_of(float(np.max(np.abs(Th @ O_rot @ Th - O_rot))),
                       float(np.max(np.abs(Th @ O_bst.T @ Th - O_bst))))
        out.append(cfg.report("theta_conjugation", "theta_conjugation", dev,
                              {"seed": seed, "angle": lam}))

        worst_polar = 0.0
        worst_boost = 0.0
        worst_wig = 0.0
        for m in cfg.masses:
            for _ in range(20):
                L = _random_sl2c(rng)
                boost, rot = st.polar_decompose(L)
                worst_polar = worst_of(worst_polar, float(np.max(np.abs(
                    boost @ rot - L))))
                p = rng.normal(size=3)
                Lc = st.canonical_boost(p, m)
                omega = math.sqrt(m * m + float(p @ p))
                target = st.mink_to_matrix([omega, *p]) / m
                worst_boost = worst_of(worst_boost, float(np.max(np.abs(
                    Lc @ Lc.conj().T - target))))
                R1 = st.wigner_rotation(L, p, m)
                R2 = st.wigner_rotation_alt(L, p, m)
                worst_wig = worst_of(worst_wig,
                                     float(np.max(np.abs(R1 @ R1.conj().T
                                                         - np.eye(2)))),
                                     float(np.max(np.abs(R1 - R2))))
        out.append(cfg.report("polar_reassembly", "polar_reassembly",
                              worst_polar, {"seed": seed}))
        out.append(cfg.report("canonical_boost_identity", "boost_identity",
                              worst_boost, {"seed": seed}))
        out.append(cfg.report("wigner_rotation", "wigner_rotation_unitarity",
                              worst_wig, {"seed": seed}))
    return out


def suite_wigner(cfg: RunConfig):
    out = []
    spins = cfg.two_spins
    for seed in cfg.seeds:
        rng = _rng(seed)
        worst_su2 = 0.0
        worst_sl2c = 0.0
        worst_inv = 0.0
        for _ in range(20):
            A, B = _random_su2(rng), _random_su2(rng)
            As, Bs = _random_sl2c(rng), _random_sl2c(rng)
            for ts in spins:
                worst_su2 = worst_of(worst_su2, sp.check_group_law(ts, A, B))
                worst_sl2c = worst_of(worst_sl2c,
                                      sp.check_group_law(ts, As, Bs))
                dinv = sp.wigner_d(ts, As) @ sp.wigner_d(
                    ts, np.linalg.inv(As))
                worst_inv = worst_of(worst_inv, float(np.max(np.abs(
                    dinv - np.eye(ts + 1)))))
        out.append(cfg.report("group_law_su2", "group_law_su2", worst_su2,
                              {"seed": seed, "spins": list(spins)}))
        out.append(cfg.report("group_law_sl2c", "group_law_sl2c", worst_sl2c,
                              {"seed": seed, "spins": list(spins)}))
        out.append(cfg.report("group_law_inverse", "group_law_su2",
                              worst_inv, {"seed": seed}))

        A = _random_sl2c(rng)
        worst_ct = 0.0
        for ts in spins:
            D = sp.wigner_d(ts, A)
            worst_ct = worst_of(
                worst_ct,
                float(np.max(np.abs(sp.wigner_d(ts, A.conj()) - D.conj()))),
                float(np.max(np.abs(sp.wigner_d(ts, A.T) - D.T))))
        out.append(cfg.report("conjugation_transpose", "conj_transpose",
                              worst_ct, {"seed": seed}))

        worst_alg = 0.0
        for ts in spins:
            sx, sy, sz = sp.spin_matrices(ts)
            eye = np.eye(ts + 1)
            casimir = sx @ sx + sy @ sy + sz @ sz
            worst_alg = worst_of(
                worst_alg,
                float(np.max(np.abs(sx @ sy - sy @ sx - 1j * sz))),
                float(np.max(np.abs(casimir - 0.25 * ts * (ts + 2) * eye))),
                float(np.max(np.abs((-sx.T) @ (-sy.T) - (-sy.T) @ (-sx.T)
                                    - 1j * (-sz.T)))))
        out.append(cfg.report("spin_matrix_algebra", "spin_algebra",
                              worst_alg, {"spins": list(spins)}))

        worst_orth = 0.0
        for ts1, ts2 in ((1, 1), (1, 2), (2, 2)):
            C = sp.coupling_matrix(ts1, ts2)
            worst_orth = worst_of(worst_orth, float(np.max(np.abs(
                C.T @ C - np.eye(len(C))))))
        out.append(cfg.report("cg_orthogonality", "cg_orthogonality",
                              worst_orth, {}))

        worst_cg = 0.0
        boost = st.boost_sl2c(rng.normal(size=3), 0.5)
        for ts1, ts2 in ((1, 1), (1, 2), (2, 2)):
            worst_cg = worst_of(
                worst_cg,
                sp.check_cg_addition(ts1, ts2, _random_su2(rng)),
                sp.check_cg_addition(ts1, ts2, boost))
        out.append(cfg.report("cg_addition", "cg_addition", worst_cg,
                              {"seed": seed}))
    return out


def _bessel_integral_oracle(*xs: float) -> list:
    """K1 at each x via its cosh integral representation, independent
    quadrature; one 400-node rule serves every x."""
    t, w = np.polynomial.legendre.leggauss(400)
    out = []
    for x in xs:
        upper = math.asinh(50.0 / x) + 1.0
        tt = 0.5 * upper * (t + 1.0)
        ww = 0.5 * upper * w
        out.append(float(np.sum(ww * np.exp(-x * np.cosh(tt))
                                * np.cosh(tt))))
    return out


def suite_kernels(cfg: RunConfig):
    out = []
    spins = [ts for ts in cfg.two_spins if ts <= 4]
    at_1, at_10 = _bessel_integral_oracle(1.0, 10.0)
    worst_or = worst_of(abs(kr.bessel_k1(1.0) - at_1),
                        abs(kr.bessel_k1(10.0) - at_10) / at_10)
    out.append(cfg.report("bessel_vs_integral_oracle", "bessel_oracle",
                          worst_or, {}))
    out.append(cfg.report("bessel_small_argument", "bessel_small_arg",
                          abs(1e-5 * kr.bessel_k1(1e-5) - 1.0), {}))
    for m in cfg.masses:
        decay = (kr.scalar_position_kernel(m, 20.0 / m)
                 / kr.scalar_position_kernel(m, 1.0 / m))
        out.append(cfg.report("kernel_exponential_decay", "kernel_decay",
                              decay, {"m": m}))
    for seed in cfg.seeds:
        rng = _rng(seed)
        for m in cfg.masses:
            momenta = rng.normal(size=(100, 3)) * (1.5 * m)
            worst_fact = worst_of(0.0, *(kr.check_factorization(m, ts, p)
                                         for p in momenta for ts in spins))
            # eigvalsh reads one triangle only, so each momentum's relative
            # Hermiticity defect is measured too: generator_hermiticity
            # and the Gram spectra rely on the kernel being Hermitian
            worst_pos = 0.0
            for ts in spins:
                for variant in cfg.variants:
                    K = np.moveaxis(kr.onshell_kernel_grid(variant, m, ts,
                                                           momenta), -1, 0)
                    evals = np.linalg.eigvalsh(K)
                    herm = (np.max(np.abs(K - K.conj().swapaxes(1, 2)),
                                   axis=(1, 2))
                            / np.max(np.abs(K), axis=(1, 2)))
                    worst_pos = worst_of(
                        worst_pos, 0.0,
                        *(-evals[:, 0] / np.maximum(evals[:, -1], 1e-300)),
                        *herm)
            out.append(cfg.report("onshell_factorization", "factorization",
                                  worst_fact, {"seed": seed, "m": m}))
            out.append(cfg.report("onshell_positivity", "kernel_positivity",
                                  worst_pos, {"seed": seed, "m": m}))
            worst_cov = 0.0
            for _ in range(10):
                A, B = _random_su2(rng), _random_su2(rng)
                pe = rng.normal(size=4)
                for variant in cfg.variants:
                    for ts in spins:
                        worst_cov = worst_of(
                            worst_cov, kr.check_kernel_covariance(
                                variant, m, ts, A, B, pe))
            out.append(cfg.report("kernel_covariance", "kernel_covariance",
                                  worst_cov, {"seed": seed, "m": m}))
            worst_dual = 0.0
            pe = rng.normal(size=4)
            for ts in spins:
                dual_rot = sp.wigner_d(ts, 1j * st.SIGMA2)
                lhs = kr.momentum_kernel(st.KernelVariant.RIGHT_DUAL, m, ts,
                                         pe)
                rhs = ((-1) ** ts * dual_rot
                       @ kr.momentum_kernel(st.KernelVariant.RIGHT, m, ts, pe)
                       @ dual_rot)
                worst_dual = worst_of(worst_dual,
                                      float(np.max(np.abs(lhs - rhs))))
            out.append(cfg.report("dual_metric_identity", "dual_metric",
                                  worst_dual, {"seed": seed, "m": m}))
            worst_res = 0.0
            for ts in [t for t in spins if t <= 2]:
                worst_res = worst_of(worst_res, kr.check_residue_consistency(
                    st.KernelVariant.RIGHT, m, ts, rng.normal(size=3) * 0.5,
                    1.0 / m))
            out.append(cfg.report("residue_consistency", "residue",
                                  worst_res, {"seed": seed, "m": m}))
    return out


def positivity_family(rng, two_s, size):
    """Random Gram family; compact envelopes keep the box tame."""
    return [hl.random_test_function(rng, two_s=two_s, terms_per_component=2,
                                    center_scale=0.8, beta_range=(0.3, 0.9))
            for _ in range(size)]


def suite_positivity(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for m in cfg.masses:
            for ts in cfg.two_spins:
                rng = _rng(seed * 7919 + ts)
                fs = positivity_family(rng, ts, cfg.gram_size)
                quad = hl.MomentumQuadrature(fs, m, GRID_NODES["positivity"])
                reps = hl.gram_matrix(quad, fs, cfg.variants)
                for variant, rep in zip(cfg.variants, reps):
                    measured = worst_of(0.0, -rep.min_eig
                                        / worst_of(1.0, rep.max_eig))
                    out.append(cfg.report(
                        "gram_positivity", "gram_eig", measured,
                        {"seed": seed, "m": m, "two_s": ts,
                         "variant": variant.value, "size": rep.size},
                        details={"min_eig": rep.min_eig,
                                 "max_eig": rep.max_eig,
                                 "hermiticity_defect":
                                     rep.hermiticity_defect}))
    return out


def suite_generators(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for ts in cfg.two_spins:
            rng = _rng(seed * 104729 + ts)
            f = hl.random_test_function(rng, two_s=ts, terms_per_component=1,
                                        min_k=2, max_k=3)
            for variant, residuals in zip(
                    cfg.variants, gn.lie_algebra_residuals(f, cfg.variants)):
                out.append(cfg.report(
                    "lie_algebra", "commutator", worst_of(0.0, *residuals),
                    {"seed": seed, "two_s": ts, "variant": variant.value,
                     "pairs": len(residuals)}))
    return out


def hermiticity_pairs(rng, two_s, count):
    """Correlated random pairs with compact, shared envelopes."""
    pairs = []
    for _ in range(count):
        f, h = (hl.random_test_function(
            rng, two_s=two_s, terms_per_component=1, min_k=2, max_k=3,
            center_scale=0.3, beta_range=(0.22, 0.3), shared_envelope=True)
            for _ in range(2))
        pairs.append((f, h + 0.6 * f))
    return pairs


def run_hermiticity_matrix(pairs, m, variants, tol_fn):
    """All-generator hermiticity reports over function pairs, every
    generator on one grid of ``GRID_NODES["hermiticity"]`` nodes per axis (see
    :func:`generators.hermiticity_defects`)."""
    two_s = pairs[0][0].two_s
    return [tol_fn("generator_hermiticity", "hermiticity", measured,
                   {"generator": name, "variant": variant.value,
                    "pair": idx, "two_s": two_s, "m": m})
            for idx, name, variant, _, _, measured in gn.hermiticity_defects(
                pairs, m, variants, gn.GENERATOR_NAMES,
                GRID_NODES["hermiticity"])]


def suite_hermiticity(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        rng = _rng(seed * 31337)
        pairs = hermiticity_pairs(rng, 1, cfg.hermiticity_pairs)
        for m in cfg.masses:
            out.extend(run_hermiticity_matrix(pairs, m, cfg.variants,
                                              cfg.report))
    return out


def suite_semigroup(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for ts in [t for t in cfg.two_spins if t <= 2]:
            rng = _rng(seed * 613 + ts)
            f = hl.random_test_function(rng, two_s=ts, terms_per_component=2,
                                        min_k=1, max_k=2, center_scale=0.3,
                                        beta_range=(0.3, 0.6),
                                        shared_envelope=True)
            for m in cfg.masses:
                quad = hl.MomentumQuadrature((f,), m, GRID_NODES["semigroup"])
                checks = gn.semigroup_contraction_check(
                    quad, f, cfg.variants, [0.0, 0.1 / m, 0.5 / m, 1.0 / m])
                for variant, (measured, details) in zip(cfg.variants, checks):
                    out.append(cfg.report(
                        "semigroup_contraction", "semigroup", measured,
                        {"seed": seed, "two_s": ts, "m": m,
                         "variant": variant.value},
                        details=details))
    return out


def suite_wedge(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for m in cfg.masses:
            w1 = hl.WedgeFunction(hl.gaussian_packet(
                alpha=1.0, beta=0.6, k=1), (0.0, 0.0, 1.0), 0.5)
            w2 = hl.WedgeFunction(hl.gaussian_packet(
                alpha=1.2, beta=0.5, k=1, center=(0.2, 0.0, 0.1)),
                (0.0, 0.0, 1.0), 0.5)
            measured, details = gn.boost_wedge_check(
                w1, w2, [0.05, 0.1, 0.2], m, seed=seed,
                points_log2=cfg.mc_points_log2, scrambles=cfg.mc_scrambles)
            out.append(cfg.report("wedge_local_semigroup", "wedge", measured,
                                  {"seed": seed, "m": m}, details=details))
    return out


def suite_irrep(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for m in cfg.masses:
            for ts in [t for t in cfg.two_spins if t <= 2]:
                rng = _rng(seed * 271 + ts)
                f = hl.random_test_function(
                    rng, two_s=ts, terms_per_component=1, center_scale=0.25,
                    beta_range=(0.3, 0.45), tau0_max=0.3,
                    shared_envelope=True)
                # the group law and the norms share one grid
                state = gn.state_from_test_function(f, m, GRID_NODES["irrep"])
                n0 = state.norm()
                worst_gl = 0.0
                worst_un = 0.0
                for _ in range(cfg.irrep_elements):
                    g1 = _random_poincare(rng)
                    g2 = _random_poincare(rng)
                    left = gn.apply_poincare_irrep(
                        gn.apply_poincare_irrep(state, g1), g2)
                    right = gn.apply_poincare_irrep(
                        state, st.compose_poincare(g2, g1))
                    worst_gl = worst_of(worst_gl, left.distance(right)
                                        / max(n0, 1e-300))
                    moved = gn.apply_poincare_irrep(state, g1)
                    worst_un = worst_of(worst_un,
                                        abs(moved.norm() - n0) / n0)
                box = float(hl.momentum_box([f], m))
                for name, worst in (("irrep_group_law", worst_gl),
                                    ("irrep_unitarity", worst_un)):
                    out.append(cfg.report(
                        name, name, worst, {"seed": seed, "m": m, "two_s": ts},
                        details={"box": box, "nodes": state.nodes}))
    return out


def _random_poincare(rng) -> st.PoincareElement:
    L = (st.rotation_su2(rng.normal(size=3), rng.uniform(0.2, 1.5))
         @ st.boost_sl2c(rng.normal(size=3), rng.uniform(0.05, 0.4)))
    return st.PoincareElement.from_fourvector(L, rng.normal(size=4) * 0.5)


def suite_casimir(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for m in cfg.masses:
            for ts in [t for t in cfg.two_spins if t <= 2]:
                rng = _rng(seed * 911 + ts)
                f, g = (hl.random_test_function(
                    rng, two_s=ts, terms_per_component=1, min_k=2, max_k=3,
                    center_scale=0.3, beta_range=(0.3, 0.6)) for _ in range(2))
                quad = hl.MomentumQuadrature((f, g), m, GRID_NODES["casimir"])
                pairings = gn.casimir_pairings(quad, f, g, cfg.variants)
                for variant, pairing in zip(cfg.variants, pairings):
                    out.append(cfg.report(
                        "mass_casimir", "casimir",
                        gn.casimir_residual(pairing, m),
                        {"seed": seed, "m": m, "two_s": ts,
                         "variant": variant.value}))
                # the negative control reuses the first variant's pairings
                neg = gn.casimir_residual(pairings[0], 2.0 * m)
                out.append(cfg.report(
                    "mass_casimir_negative_control", "casimir", neg,
                    {"seed": seed, "m": m, "two_s": ts,
                     "expected_scale": 3.0 * m * m},
                    negative_control=True))
    return out


def suite_projections(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for m in cfg.masses:
            rng = _rng(seed * 137)
            f = hl.random_test_function(rng, two_s=0, terms_per_component=1,
                                        beta_range=(0.3, 0.5),
                                        center_scale=0.2)
            pts = rng.normal(size=(10, 3))
            # evaluated point by point only, so its grid is never summed
            window = GRID_NODES["projection_window"]
            stw = gn.momentum_project(f, m, [0.5, 0.0, 0.0], 0.8, window)
            a4 = np.array([0.0, 0.4, -0.3, 0.2])
            moved = gn.apply_poincare_irrep(
                stw, st.PoincareElement.from_fourvector(np.eye(2), a4))
            phase = np.exp(1j * (pts @ a4[1:]))
            dev = float(np.max(np.abs(moved.evaluate(pts)
                                      - phase * stw.evaluate(pts))))
            out.append(cfg.report("projection_translation_covariance",
                                  "projection_phase", dev,
                                  {"seed": seed, "m": m}))
            st_a = gn.momentum_project(f, m, [1.5, 0, 0], 0.3, window)
            st_b = gn.momentum_project(f, m, [-1.5, 0, 0], 0.3, window)
            overlap = abs(st_a.inner(st_b)) / (st_a.norm() * st_b.norm())
            out.append(cfg.report("window_orthogonality",
                                  "projection_orthogonality", overlap,
                                  {"seed": seed, "m": m}))

            env = dict(alpha=1.0, beta=0.5, tau0=0.1)
            fspin = (hl.gaussian_packet(two_s=1, component=0,
                                        coef=0.8 + 0.3j, **env)
                     + hl.gaussian_packet(two_s=1, component=1,
                                          coef=0.5 - 0.2j, **env))
            state = gn.state_from_test_function(
                fspin, m, GRID_NODES["spin_projection"])
            pr_up = gn.spin_project(state, 1)
            pr_dn = gn.spin_project(state, -1)
            cross = abs(pr_up.inner(pr_dn)) / (pr_up.norm() * pr_dn.norm())
            out.append(cfg.report("spin_projection_orthogonality",
                                  "projection_orthogonality", cross,
                                  {"seed": seed, "m": m}))
            theta = np.pi / 3
            rot = st.PoincareElement(st.rotation_su2([0, 0, 1], theta),
                                     np.zeros((2, 2)))
            probe = rng.normal(size=(6, 3)) * 0.8
            plus = gn.apply_poincare_irrep(pr_up, rot).evaluate(probe)
            ref = np.exp(0.5j * theta) * pr_up.evaluate(probe)
            phase_dev = float(np.max(np.abs(plus - ref))
                              / max(np.max(np.abs(ref)), 1e-300))
            out.append(cfg.report("spin_projection_phase",
                                  "projection_phase", phase_dev,
                                  {"seed": seed, "m": m, "two_mu": 1}))
    return out


def suite_mc_crosscheck(cfg: RunConfig):
    out = []
    for seed in cfg.seeds:
        for m in cfg.masses:
            f = hl.gaussian_packet(alpha=1.0, beta=0.6, tau0=0.15 / m,
                                   center=(0.2, 0.0, -0.1))
            g = hl.gaussian_packet(alpha=1.2, beta=0.5, tau0=0.1 / m,
                                   center=(-0.1, 0.3, 0.2))
            quad = hl.MomentumQuadrature((f, g), m, GRID_NODES["mc_reference"])
            exact = hl.inner_product(quad, f, g, st.KernelVariant.RIGHT)
            val, se, info = hl.position_inner_product_mc(
                f, g, m, seed=seed, points_log2=cfg.mc_points_log2,
                scrambles=cfg.mc_scrambles)
            sigmas = abs(val - exact) / max(se, 1e-300)
            out.append(cfg.report(
                "mc_vs_momentum", "mc_sigmas", sigmas,
                {"seed": seed, "m": m},
                details={"mc": [val.real, val.imag], "stderr": se,
                         "momentum": [exact.real, exact.imag],
                         "rel_stderr": se / abs(exact), **info}))
            # packets 10/m apart and of widths in units of 1/m, so their
            # overlap does not depend on the mass
            far = dict(alpha=m, beta=0.6 * m * m, tau0=0.15 / m)
            far_f = hl.gaussian_packet(center=(5.0 / m, 0, 0), **far)
            far_g = hl.gaussian_packet(center=(-5.0 / m, 0, 0), **far)
            off, _, _ = hl.position_inner_product_mc(
                far_f, far_g, m, seed=seed + 1, points_log2=15, scrambles=4)
            diag, _, _ = hl.position_inner_product_mc(
                far_f, far_f, m, seed=seed + 2, points_log2=15, scrambles=4)
            out.append(cfg.report("mc_far_separation", "mc_far_ratio",
                                  abs(off) / abs(diag),
                                  {"seed": seed, "m": m}))
            shifted = [position_shift_value(f, g, m, d, seed + 3,
                                            cfg.mc_points_log2 - 2)
                      for d in (0.0, 0.4 / m, 0.8 / m)]
            mono = worst_of(0.0, abs(shifted[1]) - abs(shifted[0]),
                                     abs(shifted[2]) - abs(shifted[1]))
            out.append(cfg.report("mc_shift_monotone", "mc_monotone",
                                  mono / abs(shifted[0]),
                                  {"seed": seed, "m": m},
                                  details={"values": [abs(v)
                                                      for v in shifted]}))
    return out


def position_shift_value(f, g, m, delta, seed, points_log2):
    val, _, _ = hl.position_inner_product_mc(
        f.shift_time(delta), g.shift_time(delta), m, seed=seed,
        points_log2=points_log2, scrambles=4)
    return val


SUITES = {
    "algebra": (suite_algebra,
                "four-vector and SL(2,C)/SU(2) structure: round trips, "
                "determinant preservation, intertwining, boosts, polar "
                "decomposition, Wigner rotations"),
    "wigner": (suite_wigner,
               "spin representation matrices: group law on and off the "
               "unitary subgroup, spin matrix algebra, coupling "
               "coefficient identities"),
    "kernels": (suite_kernels,
                "covariant two-point kernels: Bessel evaluation oracle, "
                "on-shell positivity factorization, covariance, dual "
                "pairing, contour-integral consistency"),
    "positivity": (suite_positivity,
                   "reflection positivity: Gram matrices of random "
                   "positive-time families stay positive semidefinite "
                   "for every variant and spin"),
    "generators": (suite_generators,
                   "Lie algebra: all 45 commutator pairs close with "
                   "coefficient-exact residuals for every variant"),
    "hermiticity": (suite_hermiticity,
                    "hermiticity of all ten generators under the four "
                    "reflection-positive inner products (always at spin "
                    "1/2, whatever the configured spins)"),
    "semigroup": (suite_semigroup,
                  "positive time translations form a contractive "
                  "Hermitian semigroup with the mass-gap decay rate"),
    "wedge": (suite_wedge,
              "wedge-supported boost rotations: support preservation, "
              "Monte-Carlo symmetry, weak continuity"),
    "irrep": (suite_irrep,
              "unitary irreducible action: group law and norm "
              "preservation on momentum wave functions"),
    "casimir": (suite_casimir,
                "mass Casimir identity with a mismatched-mass negative "
                "control"),
    "projections": (suite_projections,
                    "momentum and spin projections: translation "
                    "covariance, window and component orthogonality, "
                    "rotation phases"),
    "mc-crosscheck": (suite_mc_crosscheck,
                      "independent position-space Monte-Carlo evaluation "
                      "of the inner product against the momentum-space "
                      "quadrature"),
}


def run_suites(cfg: RunConfig):
    """Execute the configured suites, optionally in parallel."""
    names = list(SUITES) if "all" in cfg.suites else list(cfg.suites)

    def run_one(name):
        try:
            return SUITES[name][0](cfg)
        except Exception as exc:   # recorded per-check, not fatal
            return [make_report(f"{name}_internal_error", float("inf"), 0.0,
                                inputs={"suite": name},
                                details={"error": repr(exc),
                                         "traceback": traceback.format_exc()})]

    results = {}
    if cfg.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = {n: pool.submit(run_one, n) for n in names}
            for n, fut in futures.items():
                results[n] = fut.result()
    else:
        for n in names:
            results[n] = run_one(n)
    reports = []
    for n in sorted(results):
        reports.extend(sorted(results[n],
                              key=lambda r: (r.name, sorted(r.inputs.items(),
                                                            key=str).__repr__())))
    return reports
