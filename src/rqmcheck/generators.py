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
statements use the momentum-space inner products.  The commutator check
runs on :class:`GeneratorMatrices`: on a basis of term keys each
generator's orbital part is one sparse matrix, built once per function
from the same term rules as :func:`apply_generator`, and its spin term a
constant matrix per variant, so nested images are matrix products and
every variant shares the orbital work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# tensor_grid is not called here: it stays importable as
# generators.tensor_grid, whose rebinding perfbench/selftest.py checks
from .hilbert import (MomentumQuadrature, Term, TestFunction, _merge,
                      inner_product, laplace_fourier_transform,
                      position_inner_product_mc, root_norm, rotate_pointwise,
                      tensor_grid, then)
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


class GeneratorMatrices:
    """The generators on the span of one function's images, as matrices.

    The basis is the keys (:meth:`Term.key`) of f's terms and of their
    orbital images to depth two, in first-seen order: f's keys, then the
    new keys of its single images (together the first :attr:`domain`
    keys), then those of the images of those.  A function of the span is
    its coefficient array, keys by spin components.  Each generator's
    orbital part is one sparse matrix from the domain to the basis: its
    column for a key is :func:`_orbital_rule` applied once to a unit term
    with that key.  At a variant, generator X acts on a coefficient array
    F as ``O_X F + F S_X^T``, with ``S_X`` from
    :func:`generator_spin_matrix`, so one set of matrices serves every
    variant; arrays carry the variants on their middle axis, shape
    ``(keys, variants, 2s+1)``.  H and K are built only when every term of
    f vanishes at its support edge (see :func:`_orbital_rule`).
    """

    def __init__(self, f: TestFunction):
        from scipy.sparse import csr_array

        self.two_s = f.two_s
        rules = {name: _orbital_rule(name, f) for name in GENERATOR_NAMES
                 if name[0] in ("P", "J") or f.min_tau_degree() >= 1}
        self.keys = keys = list(dict.fromkeys(t[1:] for ts in f.comps
                                              for t in ts))
        index = {key: i for i, key in enumerate(keys)}
        entries = {name: ([], [], []) for name in rules}

        def add_columns(lo, hi):
            for col in range(lo, hi):
                unit = Term(1.0, *keys[col])
                for name, rule in rules.items():
                    rows, cols, vals = entries[name]
                    for t in _merge(rule(unit)):
                        key = t[1:]
                        if key not in index:
                            index[key] = len(keys)
                            keys.append(key)
                        rows.append(index[key])
                        cols.append(col)
                        vals.append(t.coef)

        own = len(keys)
        add_columns(0, own)                 # f's keys
        self.domain = len(keys)
        add_columns(own, self.domain)       # the new keys of its images
        self.orbital = {
            name: csr_array((np.asarray(vals, dtype=complex),
                             (np.asarray(rows, dtype=np.intp),
                              np.asarray(cols, dtype=np.intp))),
                            shape=(len(keys), self.domain))
            for name, (rows, cols, vals) in entries.items()}
        self.coefs = np.zeros((self.domain, f.dim), dtype=complex)
        for u, ts in enumerate(f.comps):
            for t in ts:
                self.coefs[index[t[1:]], u] = t.coef

    def spin_matrices(self, variants) -> dict:
        """``{name: S}`` for every generator built, S of shape
        ``(variants, 2s+1, 2s+1)`` from :func:`generator_spin_matrix`."""
        return {name: np.stack([generator_spin_matrix(name, self.two_s, v)
                                for v in variants])
                for name in self.orbital}

    def apply(self, name: str, image: np.ndarray,
              spin: np.ndarray) -> np.ndarray:
        """Generator ``name`` on ``image``, an array over the domain keys,
        at the variants of ``spin`` (its :meth:`spin_matrices` entry); the
        result is an array over the whole basis."""
        k, nv, dim = image.shape
        out = self.orbital[name] @ image.reshape(k, nv * dim)
        out = out.reshape(-1, nv, dim)
        out[:k] += np.einsum("kvu,vwu->kvw", image, spin)
        return out

    def images(self, spins: dict) -> dict:
        """``{name: X f}`` for every entry of ``spins``
        (:meth:`spin_matrices`), over the domain keys."""
        nv = len(next(iter(spins.values())))
        f = np.broadcast_to(self.coefs[:, None, :],
                            (self.domain, nv, self.two_s + 1))
        return {name: self.apply(name, f, spin)[:self.domain]
                for name, spin in spins.items()}


def _pair_residuals(ops: GeneratorMatrices, name_a: str, name_b: str,
                    images: dict, spins: dict) -> np.ndarray:
    """Residual of ``[A, B] f - (rhs) f`` at each variant of ``spins``.

    ``A(B f) - B(A f) - sum c C f`` is formed from the single images
    (:meth:`GeneratorMatrices.images`); the value is its largest
    coefficient modulus relative to the largest of ``A(B f)``, ``B(A f)``
    and ``f``.  A coefficient or a modulus beyond the float range, in any
    of these arrays, raises ``ValueError``.
    """
    def peak(a):
        return np.abs(a).max(axis=0, initial=0.0).max(axis=1)

    ab = ops.apply(name_a, images[name_b], spins[name_a])
    ba = ops.apply(name_b, images[name_a], spins[name_b])
    diff = ab - ba
    for coef, name in commutator_rhs(name_a, name_b):
        diff[:ops.domain] -= coef * images[name]
    size = peak(diff)
    scale = np.maximum(np.maximum(peak(ab), peak(ba)),
                       np.abs(ops.coefs).max(initial=1e-300))
    if not (np.isfinite(size).all() and np.isfinite(scale).all()):
        raise ValueError(f"coefficient overflows in [{name_a}, {name_b}]")
    return size / scale


def _algebra_residuals(f: TestFunction, pairs, variants) -> list:
    """Residuals of ``pairs`` at ``variants``, one list per variant, from
    one :class:`GeneratorMatrices` of f and its ten single images.  An
    overflow is a ValueError of the pair it reaches (see
    :func:`_pair_residuals`), not a warning."""
    ops = GeneratorMatrices(f)
    spins = ops.spin_matrices(variants)
    out = np.empty((len(variants), len(pairs)))
    with np.errstate(over="ignore", invalid="ignore"):
        images = ops.images(spins)
        for j, (a, b) in enumerate(pairs):
            out[:, j] = _pair_residuals(ops, a, b, images, spins)
    return out.tolist()


def check_commutator(name_a: str, name_b: str, f: TestFunction,
                     variant: KernelVariant = KernelVariant.RIGHT) -> float:
    """Coefficient-exact residual of ``[A, B] f - (rhs) f``.

    Works entirely in the family's coefficient algebra, on the
    :class:`GeneratorMatrices` of f; the value is the largest coefficient
    of the difference relative to the largest coefficient of ``A(B f)``,
    ``B(A f)`` and ``f``.  :func:`lie_algebra_residuals` uses the same
    matrices and gives the same values.
    """
    needs_tau = sum(1 for n in (name_a, name_b) if n[0] in ("H", "K"))
    _require_tau_degree(f, needs_tau, f"[{name_a}, {name_b}]")
    ((residual,),) = _algebra_residuals(f, [(name_a, name_b)], (variant,))
    return residual


def lie_algebra_residuals(f: TestFunction, variant=KernelVariant.RIGHT):
    """:func:`check_commutator` for the 45 pairs of :data:`GENERATOR_NAMES`
    in order (``(H, P1), (H, P2), ...``): a list of 45 values at one
    variant, or one such list per variant for a sequence of variants.
    The generator matrices and the ten single images ``X f`` are built
    once per call, and each pair's nested images ``A(B f)`` and
    ``B(A f)`` are formed from them one pair at a time.  ``f`` must vanish
    to order 2 at its support edge."""
    _require_tau_degree(f, 2, "the Lie algebra")
    single = isinstance(variant, KernelVariant)
    rows = _algebra_residuals(f, list(itertools.combinations(
        GENERATOR_NAMES, 2)), (variant,) if single else tuple(variant))
    return rows[0] if single else rows


def hermiticity_defects(pairs, m: float, variants, names, nodes: int,
                        small_nodes: int):
    """<f|A g> and <A f|g> for every pair (f, g), generator A and variant.

    A acts as its variant-free orbital part plus a constant spin matrix S,
    so ``F[A f] = F[orbital f] + S F[f]`` and one set of transforms serves
    every variant.  H and P multiply by functions of p and use the
    ``small_nodes`` grid; J and K use the ``nodes`` grid.  Both engines
    are built over every pair function, and each pairs every pair in one
    :meth:`MomentumQuadrature.pairings` call, one block per pair: bras f,
    g and their orbital images, kets f and g.  From the block's component
    sums ``C[a, b]_uw`` (see :meth:`MomentumQuadrature.pairings`),
    ``<A f|g> = tr C[orbital f, g] + sum_uv conj(S_uv) C[f, g]_vu`` and,
    since every variant's kernel rows are Hermitian at each point
    (``onshell_positivity`` certifies it), ``<f|A g> = conj(<A g|f>)``,
    the same sum over ``C[orbital g, f]`` and ``C[g, f]``.
    Rows are ``(pair index, name, variant, lhs, rhs,
    |lhs - rhs| / (|lhs| + |rhs|))`` with ``lhs = <f|A g>`` and
    ``rhs = <A f|g>``, in the order of ``pairs``, ``names`` and
    ``variants``.
    """
    functions = [h for pair in pairs for h in pair]
    grid_of = {name: small_nodes if name[0] in ("H", "P") else nodes
               for name in names}
    two_s = functions[0].two_s
    found = {}
    for n_nodes in set(grid_of.values()):
        quad = MomentumQuadrature(functions, m, n_nodes)
        own = [name for name in names if grid_of[name] == n_nodes]
        # bras: f, g, then the orbital images of f, then those of g
        blocks = [([f, g] + [apply_generator_orbital(name, h)
                             for h in (f, g) for name in own], [f, g])
                  for f, g in pairs]
        for idx, sums in enumerate(quad.pairings(blocks, variants)):
            for c, variant in zip(sums, variants):
                for j, name in enumerate(own):
                    S = generator_spin_matrix(name, two_s, variant).conj()
                    # <A h|k> from bra A h (its image's row) and bra h
                    # against ket k: first <A g|f>, then <A f|g>
                    ag_f, af_g = (np.trace(c[image, k]) + np.sum(S * c[h, k].T)
                                  for image, h, k in ((2 + len(own) + j, 1, 0),
                                                      (2 + j, 0, 1)))
                    found[idx, name, variant] = (complex(ag_f).conjugate(),
                                                 complex(af_g))
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
    (sums,) = quad.pairings([(shifted, shifted)], variants)
    for gram in np.trace(sums, axis1=-2, axis2=-1):
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
