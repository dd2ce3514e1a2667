"""The ten Poincare generators on the test-function family.

On the positive-time family the generators act exactly:

* ``H = d/dtau``
* ``P_j = -i d/dx_j``
* ``J_j = -i (x cross grad)_j + spin term``
* ``K_j = x_j d/dtau - tau d/dx_j + spin term``

The spin term follows from the variant's flags ``dual`` and ``left``:
with ``R = S^t`` if exactly one is set and ``R = S`` otherwise, rotations
get ``-R`` if exactly one is set and ``+R`` otherwise, boosts ``-iR`` if
``dual`` and ``+iR`` otherwise.  Commutators are therefore checkable in
the coefficient algebra (no quadrature), while hermiticity and spectral
statements use the momentum-space inner products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# tensor_grid is not called here: it stays importable as
# generators.tensor_grid, whose rebinding perfbench/selftest.py checks
from .hilbert import (MomentumQuadrature, SlabScratch, Term, TestFunction,
                      _merge, apply_kernel, inner_product,
                      laplace_fourier_transform, position_inner_product_mc,
                      root_norm, rotate_pointwise, tensor_grid, then)
from .kernels import KernelVariant
from .report import worst_of
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


#: _spin_terms by (two_s, variant), filled on first use
_SPIN_TERMS: dict = {}


def _spin_terms(two_s: int, variant: KernelVariant):
    """(rotation, boost) spin matrices for each variant, index j = 0, 1, 2:
    built once per ``(two_s, variant)`` and read-only, since every caller
    shares them."""
    key = (two_s, variant)
    if key not in _SPIN_TERMS:
        flipped = variant.dual != variant.left
        mats = tuple(s.T if flipped else s for s in spin_matrices(two_s))
        boost = -1j if variant.dual else 1j
        terms = (tuple(-s if flipped else s for s in mats),
                 tuple(boost * s for s in mats))
        for s in itertools.chain(*terms):
            s.flags.writeable = False
        _SPIN_TERMS[key] = terms
    return _SPIN_TERMS[key]


def _require_tau_degree(f: TestFunction, degree: int, what: str):
    if f.min_tau_degree() < degree:
        raise ValueError(
            f"{what} needs every term to vanish to order {degree} at the "
            "support edge (raise the (tau - tau0) powers)")


def _orbital_rule(name: str, f: TestFunction):
    """A generator's orbital part as one term rule; -i, i and -1 scale the
    source term (exact, and commuting with the rules' real factors)."""
    if name[0] in ("H", "K"):
        _require_tau_degree(f, 1, name[0])
    if name == "H":
        return Term.d_tau
    j = int(name[1]) - 1
    if name[0] == "P":               # -i d_j
        return lambda t: t.scaled(-1j).d_x(j)
    if name[0] == "J":               # -i (x_a d_b - x_b d_a)
        a, b = (j + 1) % 3, (j + 2) % 3
        return lambda t: (then(t.scaled(-1j).d_x(b), Term.mul_x, a)
                          + then(t.scaled(1j).d_x(a), Term.mul_x, b))
    return lambda t: (then(t.d_tau(), Term.mul_x, j)   # x_j d_tau - tau d_j
                      + then(t.scaled(-1.0).d_x(j), Term.mul_tau))


def apply_generator_orbital(name: str, f: TestFunction) -> TestFunction:
    """Variant-free (spinless) part of a generator's action, in one pass."""
    return f.map_terms(_orbital_rule(name, f))


def generator_spin_matrix(name: str, two_s: int,
                          variant: KernelVariant) -> np.ndarray:
    """Constant component-mixing matrix the generator adds to the orbital
    part; for J and K the shared, read-only matrix of ``_spin_terms``."""
    if name[0] in ("H", "P"):
        return np.zeros((two_s + 1, two_s + 1), dtype=complex)
    rot, boost = _spin_terms(two_s, variant)
    j = int(name[1]) - 1
    return np.asarray(rot[j] if name[0] == "J" else boost[j], dtype=complex)


def apply_generator(tag, f: TestFunction) -> TestFunction:
    """Exact symbolic action of one generator on a family member: orbital
    and (J, K at nonzero spin) spin-mixed terms in one construction."""
    if isinstance(tag, str):
        tag = GeneratorTag(tag)
    spin = (None if tag.name[0] in ("H", "P") or f.two_s == 0 else
            generator_spin_matrix(tag.name, f.two_s, tag.variant))
    return f.map_terms(_orbital_rule(tag.name, f), mix=spin)


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


def _commutator_residual(name_a: str, name_b: str, f: TestFunction,
                         single: dict, nested: dict) -> float:
    """Residual of ``[A, B] f - (rhs) f`` from prebuilt images: ``single[X]``
    is ``X f`` and ``nested[A, B]`` is ``A(B f)``.

    Per component, ``A(B f) - B(A f) - sum c C f`` is merged term by term
    (:func:`hilbert._merge`) without building a function; the value is its
    largest coefficient relative to the largest of ``A(B f)``, ``B(A f)``
    and ``f``, and NaN if any is NaN.  A merged sum or a modulus beyond
    the float range raises ``ValueError``.
    """
    ab, ba = nested[name_a, name_b], nested[name_b, name_a]
    minus = [(-1.0, ba)] + [(-coef, single[gname]) for coef, gname
                            in commutator_rhs(name_a, name_b)]
    diff = [_merge(ab.comps[i] + tuple(t.scaled(c) for c, g in minus
                                       for t in g.comps[i]))
            for i in range(f.dim)]
    try:
        size = worst_of(0.0, *(abs(t.coef) for ts in diff for t in ts))
        scale = max(_coef_scale(ab), _coef_scale(ba), _coef_scale(f), 1e-300)
    except OverflowError:        # abs() of finite parts can overflow
        raise ValueError(f"coefficient modulus overflows in "
                         f"[{name_a}, {name_b}]") from None
    return size / scale


def check_commutator(name_a: str, name_b: str, f: TestFunction,
                     variant: KernelVariant = KernelVariant.RIGHT) -> float:
    """Coefficient-exact residual of ``[A, B] f - (rhs) f``.

    Works entirely in the family's coefficient algebra; the value is the
    largest coefficient of the difference, merged term by term, relative
    to the largest coefficient appearing on either side.  Builds only the
    images this pair needs; :func:`lie_algebra_residuals` shares them
    over all 45 pairs and gives the same values.
    """
    needs_tau = sum(1 for n in (name_a, name_b) if n[0] in ("H", "K"))
    _require_tau_degree(f, needs_tau, f"[{name_a}, {name_b}]")
    names = {name_a, name_b} | {g for _, g in commutator_rhs(name_a, name_b)}
    single = {n: apply_generator(GeneratorTag(n, variant), f) for n in names}
    nested = {(a, b): apply_generator(GeneratorTag(a, variant), single[b])
              for a, b in ((name_a, name_b), (name_b, name_a))}
    return _commutator_residual(name_a, name_b, f, single, nested)


def lie_algebra_residuals(f: TestFunction,
                          variant: KernelVariant = KernelVariant.RIGHT):
    """:func:`check_commutator` for the 45 pairs of :data:`GENERATOR_NAMES`
    in order (``(H, P1), (H, P2), ...``), with each of the ten images
    ``X f`` and the 90 nested images ``A(B f)`` built once: 100
    constructions in all.  ``f`` must vanish to order 2 at its support
    edge."""
    _require_tau_degree(f, 2, "the Lie algebra")
    names = GENERATOR_NAMES
    single = {n: apply_generator(GeneratorTag(n, variant), f) for n in names}
    nested = {(a, b): apply_generator(GeneratorTag(a, variant), single[b])
              for a in names for b in names if a != b}
    return [_commutator_residual(a, b, f, single, nested)
            for a, b in itertools.combinations(names, 2)]


def hermiticity_defects(pairs, m: float, variants, names, nodes: int,
                        small_nodes: int):
    """<f|A g> and <A f|g> for every pair (f, g), generator A and variant.

    A acts as its variant-free orbital part plus a constant spin matrix S,
    so ``F[A f] = F[orbital f] + S F[f]`` and one set of transforms serves
    every variant.  H and P multiply by functions of p and use the
    ``small_nodes`` grid; J and K use the ``nodes`` grid.  Both engines
    are built over every pair function, and each is walked once (see
    :meth:`MomentumQuadrature.slabs`): a slab's kernel rows are built once
    for all pairs.  Each pair has one :class:`TensorPlan` per engine that
    stacks f, g and their orbital images, so one ``evaluate`` call per
    slab fills them all into a value block, which then takes its share of
    every sum below for every variant and generator.  Each engine's
    slabs are sized for the largest plan's rows
    (:func:`hilbert.slab_planes`), so beyond the engines' axis grids,
    memory is every pair's plan and a few slab-sized buffers that the
    walk reuses for every pair and slab (one :class:`hilbert.SlabScratch`
    per engine).  Per slab and variant the kernel rows, which carry the
    quadrature weights, are applied once to each side
    (:func:`hilbert.apply_kernel`; the bra side through the transposed
    rows): ``bra = conj(F[f]) w K`` and ``ket = w K F[g]``.
    Then ``<f|A g> = bra . F[orbital g] + sum_uv S_uv (bra_u . F[g]_v)``
    and ``<A f|g> = conj(F[orbital f]) . ket + sum_uv conj(S_uv)
    (conj(F[f]_v) . ket_u)``: two dot products per generator, plus the
    small spin sums, taken for every variant at once: one matrix product
    per side, pair and slab over the variants' bras or kets.  The sums
    against ``ket`` are taken as conjugates of sums against
    ``conj(ket)``, so only the kets are conjugated, in place.
    Rows are ``(pair index, name, variant, lhs, rhs,
    |lhs - rhs| / (|lhs| + |rhs|))``, in the order of ``pairs``,
    ``names`` and ``variants``.
    """
    functions = [h for pair in pairs for h in pair]
    grid_of = {name: small_nodes if name[0] in ("H", "P") else nodes
               for name in names}
    quads = {n: MomentumQuadrature(functions, m, n)
             for n in set(grid_of.values())}
    two_s = functions[0].two_s
    found = {}
    dim = two_s + 1
    for n_nodes, quad in quads.items():
        own = [name for name in names if grid_of[name] == n_nodes]
        scratch = SlabScratch()
        # per pair: f, g, then the orbital images of f, then those of g
        plans = [quad.plan([f, g] + [apply_generator_orbital(name, h)
                                     for h in (f, g) for name in own],
                           scratch) for f, g in pairs]
        # per pair and variant: the spin sums (bra_u . F[g]_v,
        # conj(F[f]_v) . ket_u) and each generator's two orbital products
        spin = np.zeros((len(pairs), len(variants), 2, dim, dim),
                        dtype=complex)
        orbital = np.zeros((len(pairs), len(variants), 2, len(own)),
                           dtype=complex)
        for slab in quad.slabs(variants, max(plan.dim for plan in plans)):
            size = len(slab.weights)
            bra, ket = (scratch(name, len(variants), dim, size)
                        for name in ("bra", "ket"))
            conj_f = scratch("conj_f", 1, dim, size)
            row = scratch("row", size)
            for idx, plan in enumerate(plans):
                vals = quad.values(plan, slab,
                                   scratch("values", plan.dim, size))
                vals = vals.reshape(-1, dim, size)
                ff, gg = vals[0], vals[1]
                a_f = vals[2:2 + len(own)].reshape(len(own), -1)
                a_g = vals[2 + len(own):].reshape(len(own), -1)
                np.conjugate(ff, out=conj_f[0])
                for i, kernel in enumerate(slab.kernels):
                    apply_kernel(kernel.swapaxes(0, 1), conj_f,
                                 bra[i:i + 1], row)
                    apply_kernel(kernel, vals[1:2], ket[i:i + 1], row)
                # every variant at once: one product per side
                spin[idx, :, 0] += bra @ gg.T
                orbital[idx, :, 0] += bra.reshape(len(variants), -1) @ a_g.T
                np.conjugate(ket, out=ket)
                spin[idx, :, 1] += (ket @ ff.T).conj()
                orbital[idx, :, 1] += (ket.reshape(len(variants), -1)
                                       @ a_f.T).conj()
            del slab   # before the next slab forms its own
        for idx in range(len(pairs)):
            for i, variant in enumerate(variants):
                for j, name in enumerate(own):
                    S = generator_spin_matrix(name, two_s, variant)
                    found[idx, name, variant] = (
                        complex(orbital[idx, i, 0, j]
                                + np.sum(S * spin[idx, i, 0])),
                        complex(orbital[idx, i, 1, j]
                                + np.sum(S.conj() * spin[idx, i, 1])))
    rows = []
    for idx in range(len(pairs)):
        for name in names:
            for variant in variants:
                lhs, rhs = found[idx, name, variant]
                rows.append((idx, name, variant, lhs, rhs,
                             abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30)))
    return rows


def semigroup_contraction_check(quad: MomentumQuadrature, f: TestFunction,
                                variants, dtaus):
    """Contraction properties of the positive-time-shift semigroup.

    Norms are taken on ``quad`` at its mass ``m = quad.m``, for f and
    each of its shifts at every one of ``variants``, in one pass over the
    grid.  Measures how far (i) norm ratios rise above one, (ii) they
    fail to decrease along increasing shifts, (iii) shifts fail to
    compose exactly, and (iv) a shift of 10/m exceeds the mass-gap bound
    ``exp(-10)`` with a factor-10 safety margin.  A negative or NaN
    squared norm gives a NaN ratio (:func:`hilbert.root_norm`), so a
    positivity failure fails the check.  Returns ``(worst violation,
    details)`` per variant, in the order of ``variants``.
    """
    m = quad.m
    dtaus = sorted(float(d) for d in dtaus)
    if any(d < 0 for d in dtaus):
        raise ValueError("time shifts must be nonnegative")
    shifted = [f] + [f.shift_time(d) for d in dtaus + [10.0 / m]]
    bound = 10.0 * math.exp(-10.0)
    # semigroup law: two half shifts equal one full shift, exactly
    law = -math.inf
    if dtaus and dtaus[-1] > 0:
        d = dtaus[-1]
        twice = f.shift_time(0.5 * d).shift_time(0.5 * d)
        once = f.shift_time(d)
        pts = np.array([[0.7 + d, 0.1, -0.2, 0.3], [1.3 + d, 0.5, 0.4, -0.1]])
        dev = np.max(np.abs(twice.evaluate(pts) - once.evaluate(pts)))
        ref = max(np.max(np.abs(once.evaluate(pts))), 1e-300)
        law = dev / ref - 1e-12
    out = []
    for gram in quad.pairings(shifted, shifted, variants):
        base, *norms, gap = [root_norm(v.real) for v in np.diagonal(gram)]
        ratios = [n / base for n in norms]
        pos = [r for d, r in zip(dtaus, ratios) if d > 0]
        violation = worst_of(0.0, *[r - 1.0 for r in ratios],
                             *[r2 - r1 for r1, r2 in zip(pos, pos[1:])],
                             law, gap / base - bound)
        out.append((violation, {"dtaus": dtaus, "ratios": ratios,
                                "gap_ratio": gap / base, "gap_bound": bound}))
    return out


def boost_wedge_check(w1, w2, angles, m: float, seed: int = 0,
                      points_log2: int = 17, scrambles: int = 8):
    """Local-semigroup conditions for wedge-supported boost rotations.

    * support: the rotated functions vanish identically at negative times
      (probed on a quasi-random cloud of 10,000 points),
    * symmetry: ``<E(lam) w1|w2>`` and ``<w1|E(lam) w2>`` agree within
      three combined Monte-Carlo standard errors,
    * weak continuity: ``<w1|E(lam) w2>`` drifts from the unrotated value
      at a finite fitted rate.

    Returns ``(worst violation, details)``, each violation normalized so
    that 1 is its limit.
    """
    from scipy.stats import qmc

    angles = sorted(float(a) for a in angles if a != 0.0)
    for a in angles:
        if abs(a) >= w1.max_angle() or abs(a) >= w2.max_angle():
            raise ValueError("angle exceeds the wedge budget atan(eps)")
    sampler = qmc.Sobol(d=4, scramble=True, seed=seed)
    u = sampler.random_base2(14)[:10_000]      # 2**14 >= 10,000 probes
    probes = np.empty((len(u), 4))
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
    return worst_of(*norm_violations), {"support_max": support_dev,
                                        "base": [base.real, base.imag],
                                        "base_se": base_se,
                                        "symmetry": sym_stats,
                                        "continuity_slope": slope}


# ---------------------------------------------------------------------------
# unitary irreducible action on momentum wave functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrrepState:
    """Momentum-space spin-component wave function of one (m, s) irrep.

    States pair on the grid of ``quad``, the engine built over the
    function they came from; the irrep action and the projections keep it.
    :meth:`inner` and :meth:`distance` stream the engine's slabs (see
    :meth:`MomentumQuadrature.slabs`): both states are evaluated on one
    slab's points at a time, so no full-grid array is held.
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

    def _slab_values(self, other: "IrrepState"):
        """Both states on each slab of this state's grid, with the slab's
        weights."""
        for slab in self.quad.slabs(()):
            yield (self.evaluate(slab.points), other.evaluate(slab.points),
                   slab.weights)

    def inner(self, other: "IrrepState") -> complex:
        """``sum_n w_n conj(self_u) other_u`` over this state's grid."""
        return complex(sum(np.einsum("un,un,n->", a.conj(), b, w)
                           for a, b, w in self._slab_values(other)))

    def distance(self, other: "IrrepState") -> float:
        """L^2 distance ``sqrt(sum_n w_n |self - other|^2)`` over this
        state's grid."""
        return math.sqrt(sum(float(np.einsum("un,n->", np.abs(a - b) ** 2, w))
                             for a, b, w in self._slab_values(other)))

    def norm(self) -> float:
        """``sqrt`` of :meth:`inner` with itself; NaN where that is
        negative or NaN (:func:`hilbert.root_norm`)."""
        return root_norm(self.inner(self).real)


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


def casimir_pairings(quad: MomentumQuadrature, f: TestFunction,
                     g: TestFunction, variants) -> np.ndarray:
    """``(<f|(H^2 - P^2) g>, <f|g>)`` at each of ``variants``, shape
    ``(len(variants), 2)``, from one pass over ``quad``'s grid; the
    kernel mass is ``m = quad.m``."""
    _require_tau_degree(g, 2, "H^2")
    wave_op = g.d_tau().d_tau()
    for ax in range(3):
        wave_op = wave_op + g.d_x(ax).d_x(ax)
    return inner_product(quad, f, (wave_op, g), tuple(variants))


def casimir_residual(pairing, test_mass: float) -> float:
    """``|<f|(H^2 - P^2) g> - test_mass^2 <f|g>| / |<f|g>|`` from one row
    of :func:`casimir_pairings`.  A ``test_mass`` other than the kernel
    mass turns this into a loud negative control: the residual then sits
    at ``|m^2 - test_mass^2|``."""
    val, overlap = pairing
    return abs(val - test_mass ** 2 * overlap) / max(abs(overlap), 1e-300)


def mass_casimir_check(quad: MomentumQuadrature, f: TestFunction,
                       g: TestFunction, variant: KernelVariant,
                       test_mass: float | None = None) -> float:
    """Residual of ``<f|(H^2 - P^2 - m^2)|g> / <f|g>`` on the family at
    one variant (:func:`casimir_residual`), ``m`` the kernel mass
    ``quad.m`` unless ``test_mass`` is given."""
    return casimir_residual(casimir_pairings(quad, f, g, (variant,))[0],
                            quad.m if test_mass is None else test_mass)


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
