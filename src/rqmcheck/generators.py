"""The ten Poincare generators on the test-function family.

On the positive-time family the generators act exactly:

* ``H = d/dtau``
* ``P_j = -i d/dx_j``
* ``J_j = -i (x cross grad)_j + spin term``
* ``K_j = x_j d/dtau - tau d/dx_j + spin term``

The spin term depends on the kernel variant: rotations get ``+S`` or
``-S^t`` and boosts ``+iS``, ``-iS^t``, ``+iS^t`` or ``-iS`` for the
right, right-dual, left, left-dual variants respectively.  Commutators
are therefore checkable in the coefficient algebra (no quadrature),
while hermiticity and spectral statements use the momentum-space inner
products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# tensor_grid is not called here: it stays importable as
# generators.tensor_grid, whose rebinding perfbench/selftest.py checks
from .hilbert import (DEFAULT_NODES, MomentumQuadrature, TestFunction,
                      inner_product, laplace_fourier_transform, norm,
                      position_inner_product_mc, rotate_pointwise,
                      tensor_grid)
from .kernels import KernelVariant
from .report import CheckReport, make_report, worst_of
from .spacetime import (PoincareElement, boost_momentum, lorentz_from_sl2c,
                        matrix_to_mink, rotation_su2, wigner_rotation)
from .spin import spin_matrices, wigner_d_entries

GENERATOR_NAMES = ("H", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3")


@dataclass(frozen=True)
class GeneratorTag:
    name: str
    variant: KernelVariant = KernelVariant.RIGHT

    def __post_init__(self):
        if self.name not in GENERATOR_NAMES:
            raise ValueError(f"unknown generator {self.name!r}")


def _spin_terms(two_s: int, variant: KernelVariant):
    """(rotation, boost) spin matrices for each variant, index j = 0, 1, 2."""
    sx, sy, sz = spin_matrices(two_s)
    mats = (sx, sy, sz)
    if variant is KernelVariant.RIGHT:
        return mats, tuple(1j * s for s in mats)
    if variant is KernelVariant.RIGHT_DUAL:
        return tuple(-s.T for s in mats), tuple(-1j * s.T for s in mats)
    if variant is KernelVariant.LEFT:
        return tuple(-s.T for s in mats), tuple(1j * s.T for s in mats)
    if variant is KernelVariant.LEFT_DUAL:
        return mats, tuple(-1j * s for s in mats)
    raise ValueError(variant)


def _require_tau_degree(f: TestFunction, degree: int, what: str):
    if f.min_tau_degree() < degree:
        raise ValueError(
            f"{what} needs every term to vanish to order {degree} at the "
            "support edge (raise the (tau - tau0) powers)")


def apply_generator_orbital(name: str, f: TestFunction) -> TestFunction:
    """Variant-independent (spinless) part of a generator's action."""
    if name == "H":
        _require_tau_degree(f, 1, "H")
        return f.d_tau()
    j = int(name[1]) - 1
    if name.startswith("P"):
        return f.d_x(j).scale(-1j)
    if name.startswith("J"):
        a, b = (j + 1) % 3, (j + 2) % 3
        return (f.d_x(b).mul_x(a) - f.d_x(a).mul_x(b)).scale(-1j)
    _require_tau_degree(f, 1, "K")
    return f.d_tau().mul_x(j) - f.d_x(j).mul_tau()


def generator_spin_matrix(name: str, two_s: int,
                          variant: KernelVariant) -> np.ndarray:
    """Constant component-mixing matrix the generator adds to the orbital part."""
    if name[0] in ("H", "P"):
        return np.zeros((two_s + 1, two_s + 1), dtype=complex)
    rot, boost = _spin_terms(two_s, variant)
    j = int(name[1]) - 1
    return np.asarray(rot[j] if name[0] == "J" else boost[j], dtype=complex)


def apply_generator(tag, f: TestFunction) -> TestFunction:
    """Exact symbolic action of one generator on a family member."""
    if isinstance(tag, str):
        tag = GeneratorTag(tag)
    orbital = apply_generator_orbital(tag.name, f)
    if tag.name[0] in ("H", "P") or f.two_s == 0:
        return orbital
    spin = generator_spin_matrix(tag.name, f.two_s, tag.variant)
    return orbital + f.spin_mix(spin)


def _eps(i: int, j: int, k: int) -> int:
    return int((i - j) * (j - k) * (k - i) / 2)


def _base_bracket(a: str, b: str):
    """[a, b] for one order of each pair of kinds; None for the other.

    [K_i, H] = i P_i, [K_i, P_j] = i delta_ij H, [K_i, K_j] = -i eps_ijk J_k
    and [J_i, X_j] = i eps_ijk X_k for X in J, P, K; H commutes with P and
    J, and the P commute with each other.
    """
    kinds = a[0] + b[0]
    if kinds in ("HP", "HJ", "PP"):
        return []
    if kinds == "KH":
        return [(1j, "P" + a[1])]
    if kinds not in ("KP", "JJ", "JP", "JK", "KK"):
        return None
    i, j = int(a[1]) - 1, int(b[1]) - 1
    if kinds == "KP":
        return [(1j, "H")] if i == j else []
    k = 3 - i - j
    e = _eps(i, j, k)
    if not e:
        return []
    if kinds == "KK":
        return [(-1j * e, f"J{k + 1}")]
    return [(1j * e, f"{b[0]}{k + 1}")]


def commutator_rhs(a: str, b: str):
    """Right-hand side of [a, b] as a list of (coefficient, generator).

    Pairs outside the base table follow from ``[a, b] = -[b, a]``.
    """
    if a == b:
        return []
    rhs = _base_bracket(a, b)
    if rhs is not None:
        return rhs
    rhs = _base_bracket(b, a)
    if rhs is None:
        raise ValueError((a, b))
    return [(-c, g) for c, g in rhs]


def _coef_scale(f: TestFunction) -> float:
    coefs = [abs(t.coef) for ts in f.comps for t in ts]
    return max(coefs) if coefs else 0.0


def check_commutator(name_a: str, name_b: str, f: TestFunction,
                     variant: KernelVariant = KernelVariant.RIGHT,
                     tolerance: float = 1e-13) -> CheckReport:
    """Coefficient-exact residual of ``[A, B] f - (rhs) f``.

    Works entirely in the family's coefficient algebra; the reported value
    is the largest coefficient of the difference (in normal form), relative to
    the largest coefficient appearing on either side.
    """
    needs_tau = sum(1 for n in (name_a, name_b) if n[0] in ("H", "K"))
    _require_tau_degree(f, needs_tau, f"[{name_a}, {name_b}]")
    tag_a = GeneratorTag(name_a, variant)
    tag_b = GeneratorTag(name_b, variant)
    ab = apply_generator(tag_a, apply_generator(tag_b, f))
    ba = apply_generator(tag_b, apply_generator(tag_a, f))
    diff = ab - ba
    for coef, gname in commutator_rhs(name_a, name_b):
        diff = diff - apply_generator(GeneratorTag(gname, variant),
                                      f).scale(coef)
    scale = max(_coef_scale(ab), _coef_scale(ba), _coef_scale(f), 1e-300)
    residual = _coef_scale(diff) / scale
    return make_report("commutator", residual, tolerance,
                       inputs={"pair": f"[{name_a},{name_b}]",
                               "variant": variant.value, "two_s": f.two_s})


def hermiticity_defects(pairs, m: float, variants, names, nodes: int,
                        small_nodes: int):
    """<f|A g> and <A f|g> for every pair (f, g), generator A and variant.

    A acts as its variant-free orbital part plus a constant spin matrix S,
    so ``F[A f] = F[orbital f] + S F[f]`` and one set of transforms serves
    every variant.  H and P multiply by functions of p and use the
    ``small_nodes`` grid; J and K use the ``nodes`` grid.  Both engines
    are built over every pair function and keep only their RIGHT kernel:
    another variant's kernel is freed after its variant, and transforms
    after each pair, so memory does not grow with the pair count.  Per
    pair, grid and variant the kernel is applied once, to each side:
    ``bra = w conj(F[f]) K`` and ``ket = K F[g] w``.
    Then ``<f|A g> = bra . F[orbital g] + sum_uv S_uv (bra_u . F[g]_v)``
    and ``<A f|g> = conj(F[orbital f]) . ket + sum_uv conj(S_uv)
    (conj(F[f]_v) . ket_u)``: two dot products per generator, plus the
    small spin sums.  Rows are ``(pair index, name, variant, lhs, rhs,
    |lhs - rhs| / (|lhs| + |rhs|))``, in the order of ``pairs``,
    ``names`` and ``variants``.
    """
    functions = [h for pair in pairs for h in pair]
    grid_of = {name: small_nodes if name[0] in ("H", "P") else nodes
               for name in names}
    quads = {n: MomentumQuadrature(functions, m, n)
             for n in set(grid_of.values())}
    two_s = functions[0].two_s
    rows = []
    for idx, (f, g) in enumerate(pairs):
        found = {}
        for n_nodes, quad in quads.items():
            # RIGHT kernel first: its build needs more scratch than a transform
            quad.kernel(KernelVariant.RIGHT)
            orbital = {name: (quad.transform(apply_generator_orbital(name, f)),
                              quad.transform(apply_generator_orbital(name, g)))
                       for name in names if grid_of[name] == n_nodes}
            ff, gg = quad.transform(f), quad.transform(g)
            # variants outermost: one kernel and its two products alive
            for variant in variants:
                kernel = quad.kernel(variant)
                bra = np.einsum("un,uvn,n->vn", ff.conj(), kernel,
                                quad.weights)
                ket = np.einsum("uvn,vn,n->un", kernel, gg, quad.weights)
                spin_lhs = bra @ gg.T
                spin_rhs = np.array([[np.vdot(ff[v], ket[u])
                                      for v in range(len(ff))]
                                     for u in range(len(ff))])
                for name, (a_f, a_g) in orbital.items():
                    S = generator_spin_matrix(name, two_s, variant)
                    lhs = bra.ravel() @ a_g.ravel() + np.sum(S * spin_lhs)
                    rhs = np.vdot(a_f, ket) + np.sum(S.conj() * spin_rhs)
                    found[name, variant] = (complex(lhs), complex(rhs))
                del kernel, bra, ket   # before the next variant's are built
        for name in names:
            for variant in variants:
                lhs, rhs = found[name, variant]
                rows.append((idx, name, variant, lhs, rhs,
                             abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30)))
        for quad in quads.values():
            quad.drop_transforms()
    return rows


def check_hermiticity(tag, f: TestFunction, g: TestFunction, m: float,
                      nodes: int = DEFAULT_NODES,
                      tolerance: float = 1e-7) -> CheckReport:
    """Relative deviation of <f|A g> from <A f|g> under the variant kernel."""
    if isinstance(tag, str):
        tag = GeneratorTag(tag)
    ((_, _, _, lhs, rhs, measured),) = hermiticity_defects(
        [(f, g)], m, (tag.variant,), (tag.name,), nodes, nodes)
    return make_report("hermiticity", measured, tolerance,
                       inputs={"generator": tag.name,
                               "variant": tag.variant.value,
                               "two_s": f.two_s, "m": m},
                       details={"lhs": [lhs.real, lhs.imag],
                                "rhs": [rhs.real, rhs.imag]})


def semigroup_contraction_check(quad: MomentumQuadrature, f: TestFunction,
                                variant: KernelVariant, dtaus,
                                tolerance: float = 1e-10) -> CheckReport:
    """Contraction properties of the positive-time-shift semigroup.

    Norms are taken on ``quad`` at its mass ``m = quad.m``.  Checks
    (i) norm ratios stay at or below one, (ii) they decrease monotonically
    along increasing shifts, (iii) shifts compose exactly, and (iv) a
    shift of 10/m respects the mass-gap bound ``exp(-10)`` with a
    factor-10 safety margin.
    """
    m = quad.m
    dtaus = sorted(float(d) for d in dtaus)
    if any(d < 0 for d in dtaus):
        raise ValueError("time shifts must be nonnegative")
    base = norm(quad, f, variant)
    ratios = [norm(quad, f.shift_time(d), variant) / base for d in dtaus]
    violation = worst_of(0.0, *[r - 1.0 for r in ratios])
    pos = [(d, r) for d, r in zip(dtaus, ratios) if d > 0]
    for (d1, r1), (d2, r2) in zip(pos, pos[1:]):
        violation = worst_of(violation, r2 - r1)
    # semigroup law: two half shifts equal one full shift, exactly
    if dtaus and dtaus[-1] > 0:
        d = dtaus[-1]
        twice = f.shift_time(0.5 * d).shift_time(0.5 * d)
        once = f.shift_time(d)
        pts = np.array([[0.7 + d, 0.1, -0.2, 0.3], [1.3 + d, 0.5, 0.4, -0.1]])
        dev = np.max(np.abs(twice.evaluate(pts) - once.evaluate(pts)))
        ref = max(np.max(np.abs(once.evaluate(pts))), 1e-300)
        violation = worst_of(violation, dev / ref - 1e-12)
    gap = norm(quad, f.shift_time(10.0 / m), variant) / base
    bound = 10.0 * math.exp(-10.0)
    violation = worst_of(violation, gap - bound)
    return make_report("semigroup_contraction", violation, tolerance,
                       inputs={"variant": variant.value, "m": m},
                       details={"dtaus": dtaus, "ratios": ratios,
                                "gap_ratio": gap, "gap_bound": bound})


def boost_wedge_check(w1, w2, angles, m: float, seed: int = 0,
                      n_probes: int = 10_000, points_log2: int = 17,
                      scrambles: int = 8) -> CheckReport:
    """Local-semigroup conditions for wedge-supported boost rotations.

    * support: the rotated functions vanish identically at negative times
      (probed on a quasi-random cloud),
    * symmetry: ``<E(lam) w1|w2>`` and ``<w1|E(lam) w2>`` agree within
      three combined Monte-Carlo standard errors,
    * weak continuity: ``<w1|E(lam) w2>`` drifts from the unrotated value
      at a finite fitted rate.

    The reported value is the worst violation normalized to 1.
    """
    from scipy.stats import qmc

    angles = sorted(float(a) for a in angles if a != 0.0)
    for a in angles:
        if abs(a) >= w1.max_angle() or abs(a) >= w2.max_angle():
            raise ValueError("angle exceeds the wedge budget atan(eps)")
    sampler = qmc.Sobol(d=4, scramble=True, seed=seed)
    u = sampler.random_base2(max(math.ceil(math.log2(n_probes)), 1))
    u = u[:n_probes]
    probes = np.empty((n_probes, 4))
    probes[:, 0] = -6.0 * u[:, 0] - 1e-9
    probes[:, 1:] = 12.0 * (u[:, 1:] - 0.5)
    support_dev = 0.0
    for a in angles:
        vals = rotate_pointwise(w1, a).evaluate(probes)
        support_dev = worst_of(support_dev, float(np.max(np.abs(vals))))
    norm_violations = [support_dev / 1e-300]

    base, base_se, _ = position_inner_product_mc(
        w1, w2, m, seed=seed + 1, points_log2=points_log2,
        scrambles=scrambles)
    sym_stats = []
    drift = []
    for idx, a in enumerate(angles):
        left, se_l, _ = position_inner_product_mc(
            rotate_pointwise(w1, a), w2, m, seed=seed + 10 + idx,
            points_log2=points_log2, scrambles=scrambles)
        right, se_r, _ = position_inner_product_mc(
            w1, rotate_pointwise(w2, a), m, seed=seed + 100 + idx,
            points_log2=points_log2, scrambles=scrambles)
        three_sigma = 3.0 * math.sqrt(se_l ** 2 + se_r ** 2) + 1e-300
        sym_stats.append({"angle": a, "left": [left.real, left.imag],
                          "right": [right.real, right.imag],
                          "combined_3sigma": three_sigma})
        norm_violations.append(abs(left - right) / three_sigma)
        drift.append(abs(right - base) / a)
    slope = worst_of(*drift) if drift else 0.0
    if not math.isfinite(slope):
        norm_violations.append(2.0)
    measured = worst_of(*norm_violations)
    return make_report("boost_wedge", measured, 1.0,
                       inputs={"angles": angles, "m": m, "seed": seed},
                       details={"support_max": support_dev,
                                "base": [base.real, base.imag],
                                "base_se": base_se,
                                "symmetry": sym_stats,
                                "continuity_slope": slope})


# ---------------------------------------------------------------------------
# unitary irreducible action on momentum wave functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrrepState:
    """Momentum-space spin-component wave function of one (m, s) irrep.

    States pair on the grid of ``quad``, the engine built over the
    function they came from; the irrep action and the projections keep it.
    """

    m: float
    two_s: int
    func: object    # (N, 3) float array -> (2s+1, N) complex, see evaluate
    quad: MomentumQuadrature
    source: TestFunction | None = None   # what func transforms, if known

    @property
    def nodes(self) -> int:
        return self.quad.nodes

    @property
    def dim(self) -> int:
        return self.two_s + 1

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.func(pts)

    def grid(self):
        return self.quad.points, self.quad.weights

    def inner(self, other: "IrrepState") -> complex:
        pts, wts = self.grid()
        a = self.evaluate(pts)
        b = other.evaluate(pts)
        return complex(np.einsum("un,un,n->", a.conj(), b, wts))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))


def state_from_test_function(f: TestFunction, m: float,
                             nodes: int = 72) -> IrrepState:
    return IrrepState(m, f.two_s, laplace_fourier_transform(f, m).evaluate,
                      MomentumQuadrature([f], m, nodes), f)


def apply_poincare_irrep(state: IrrepState, g: PoincareElement) -> IrrepState:
    """Wave-function pullback of the unitary irrep action.

    ``psi'(q) = exp(i q.a) D^s[R_w(L, L^-1 q)] psi(L^-1 q)
    sqrt(omega(L^-1 q)/omega(q))`` with the Wigner rotation built from
    canonical boosts; the translation phase uses ``q.a = q_vec . a_vec -
    omega(q) a^0``.
    """
    m, two_s = state.m, state.two_s
    L_inv = np.linalg.inv(g.lam)
    a4 = matrix_to_mink(g.a)
    base = state.func

    def func(q):
        p = boost_momentum(L_inv, q, m)
        R = wigner_rotation(g.lam, p, m)
        D = wigner_d_entries(two_s, R[:, 0, 0], R[:, 0, 1], R[:, 1, 0],
                             R[:, 1, 1])
        omega_q = np.sqrt(m * m + np.einsum("ni,ni->n", q, q))
        omega_p = np.sqrt(m * m + np.einsum("ni,ni->n", p, p))
        phase = np.exp(1j * (q @ a4[1:] - omega_q * a4[0]))
        return (phase * np.sqrt(omega_p / omega_q)
                * np.einsum("uvn,vn->un", D, base(p)))

    return IrrepState(m, two_s, func, state.quad)


def mass_casimir_check(quad: MomentumQuadrature, f: TestFunction,
                       g: TestFunction, variant: KernelVariant,
                       test_mass: float | None = None,
                       tolerance: float = 1e-7) -> CheckReport:
    """Residual of ``<f|(H^2 - P^2 - m^2)|g> / <f|g>`` on the family.

    Both pairings are taken on ``quad`` at its kernel mass ``m = quad.m``.
    ``test_mass`` different from the kernel mass turns this into a loud
    negative control: the residual then sits at ``|m^2 - test_mass^2|``.
    """
    m = quad.m
    _require_tau_degree(g, 2, "H^2")
    if test_mass is None:
        test_mass = m
    wave_op = g.d_tau().d_tau()
    for ax in range(3):
        wave_op = wave_op + g.d_x(ax).d_x(ax)
    val = inner_product(quad, f, wave_op, variant)
    overlap = inner_product(quad, f, g, variant)
    residual = abs(val - test_mass ** 2 * overlap) / max(abs(overlap), 1e-300)
    return make_report("mass_casimir", residual, tolerance,
                       inputs={"variant": variant.value, "m": m,
                               "test_mass": test_mass, "two_s": g.two_s},
                       negative_control=(test_mass != m))


def momentum_project(f: TestFunction, m: float, p0, width: float,
                     nodes: int = 48) -> IrrepState:
    """Gaussian momentum window around p0 applied to the exact transform."""
    if width <= 0:
        raise ValueError("window width must be positive")
    p0 = np.asarray(p0, dtype=float)
    mwf = laplace_fourier_transform(f, m)

    def func(pts):
        d = pts - p0
        window = np.exp(-np.einsum("ni,ni->n", d, d) / (2.0 * width ** 2))
        return mwf.evaluate(pts) * window

    return IrrepState(m, f.two_s, func, MomentumQuadrature([f], m, nodes))


def spin_project(state: IrrepState, two_mu: int,
                 euler_nodes=(16, 16, 16)) -> IrrepState:
    """Project onto the definite-spin-z component via group averaging.

    Averages ``conj(D^s_{mu nu0}(R)) U(R)`` over the rotation group with a
    trapezoid rule in the periodic Euler angles and Gauss-Legendre in
    cos(beta); the reference column nu0 is 0 for integer spin and +1/2
    for half-integer spin.  Rotations act exactly on the family, so this
    is the state of ``g = sum_R c_R f.rotate(O_R).spin_mix(D(R))`` for the
    state's source f.  g keeps one term per distinct rotated term: terms
    at the origin merge back, off-center ones do not.
    """
    two_s, f = state.two_s, state.source
    if abs(two_mu) > two_s or (two_s - two_mu) % 2 != 0:
        raise ValueError("invalid magnetic index")
    if f is None:
        raise ValueError("spin projection needs a state with a source")
    na, nb, ng = euler_nodes
    cosb, wb = np.polynomial.legendre.leggauss(nb)
    mus = list(range(two_s, -two_s - 2, -2))
    row, col = mus.index(two_mu), mus.index(two_s % 2)
    parts = []
    for ia, ib, ig in itertools.product(range(na), range(nb), range(ng)):
        R = (rotation_su2((0, 0, 1), 2.0 * np.pi * ia / na)
             @ rotation_su2((0, 1, 0), np.arccos(cosb[ib]))
             @ rotation_su2((0, 0, 1), 2.0 * np.pi * ig / ng))
        D = wigner_d_entries(two_s, R[0, 0], R[0, 1], R[1, 0], R[1, 1])
        coef = ((1.0 / na) * (0.5 * wb[ib]) * (1.0 / ng)
                * (two_s + 1) * np.conj(D[row, col]))
        parts.append(f.rotate(lorentz_from_sl2c(R)[1:, 1:]).spin_mix(coef * D))
    # one construction merges all rotated terms, component by component
    comps = zip(*(part.comps for part in parts))
    g = TestFunction(two_s, tuple(tuple(itertools.chain(*ts)) for ts in comps))
    return IrrepState(state.m, two_s,
                      laplace_fourier_transform(g, state.m).evaluate,
                      state.quad, g)
