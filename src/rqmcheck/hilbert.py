"""A closed test-function family and the reflection-positive inner product.

The family: each spin component is a finite sum of terms

    coef * (tau - tau0)^k * (x-cx)^a (y-cy)^b (z-cz)^c
         * exp(-alpha (tau - tau0)) * exp(-beta |x - c|^2),   tau >= tau0

with ``k, a, b, c >= 0``, ``alpha, beta > 0`` and ``tau0 >= 0``.  Every
member is supported at positive Euclidean time and the family is closed
under time/space derivatives, multiplication by coordinates, time shifts
and spatial rotations, so the ten generators act on it exactly
(coefficient algebra, no discretization).

Its Laplace-Fourier image under ``exp(-i p.x - omega(p) tau)`` is also
exact:  the time factor integrates to ``k! exp(-omega tau0) /
(alpha + omega)^(k+1)`` and each spatial axis to a Hermite polynomial
times Gaussian times center phase.  Inner products then reduce to a
single 3-momentum quadrature against the on-shell kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import REFLECTION, onshell_kernel_grid, scalar_position_kernel
from .spacetime import KernelVariant

TWO_PI = 2.0 * np.pi

#: Gauss-Legendre nodes per momentum axis; resolves the sqrt branch point of
#: omega(p) at the box scale so that doubling the count moves compact-family
#: inner products by well under 1e-8
DEFAULT_NODES = 96


# ---------------------------------------------------------------------------
# the symbolic family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    coef: complex
    k: int
    alpha: float
    tau0: float
    powers: tuple
    beta: float
    center: tuple

    def key(self):
        return (self.k, self.alpha, self.tau0, self.powers, self.beta,
                self.center)


def _merge(terms):
    acc: dict = {}
    for t in terms:
        key = t.key()
        if key in acc:
            acc[key] = Term(acc[key].coef + t.coef, *key)
        else:
            acc[key] = t
    return tuple(t for t in acc.values() if t.coef != 0.0)


@dataclass(frozen=True)
class TestFunction:
    """Spin-component-valued member of the closed family."""

    two_s: int
    comps: tuple   # length 2s+1, each a tuple of Terms; index 0 is mu = +s

    def __post_init__(self):
        """Validate the terms and store them in normal form.

        Terms with equal :meth:`Term.key` are merged in first-seen order
        and zero coefficients dropped, so equal functions compare equal
        and coefficient-level residuals see every cancellation.
        """
        if len(self.comps) != self.two_s + 1:
            raise ValueError("component count must be 2s + 1")
        for terms in self.comps:
            for t in terms:
                # chained comparisons are False for NaN and reject inf
                if not (0 < t.alpha < math.inf and 0 < t.beta < math.inf
                        and 0 <= t.tau0 < math.inf and t.k >= 0
                        and min(t.powers) >= 0 and cmath.isfinite(t.coef)
                        and all(map(math.isfinite, t.center))):
                    raise ValueError(f"invalid term parameters: {t}")
        object.__setattr__(self, "comps",
                           tuple(_merge(ts) for ts in self.comps))

    @property
    def dim(self) -> int:
        return self.two_s + 1

    def map_terms(self, fn) -> "TestFunction":
        comps = tuple(tuple(out for t in ts for out in fn(t))
                      for ts in self.comps)
        return TestFunction(self.two_s, comps)

    def scale(self, c: complex) -> "TestFunction":
        return self.map_terms(lambda t: [Term(c * t.coef, *t.key())])

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if other.two_s != self.two_s:
            raise ValueError("spin mismatch")
        comps = tuple(a + b for a, b in zip(self.comps, other.comps))
        return TestFunction(self.two_s, comps)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self + other.scale(-1.0)

    def __rmul__(self, c) -> "TestFunction":
        return self.scale(c)

    def d_tau(self) -> "TestFunction":
        """Classical time derivative on the open support.

        Terms with ``k = 0`` carry a jump at tau0 whose distributional
        derivative is not representable here; operators that rely on
        integration by parts must check :func:`min_tau_degree` first.
        """
        def rule(t):
            out = [Term(-t.alpha * t.coef, *t.key())]
            if t.k > 0:
                out.append(Term(t.k * t.coef, t.k - 1, t.alpha, t.tau0,
                                t.powers, t.beta, t.center))
            return out
        return self.map_terms(rule)

    def d_x(self, axis: int) -> "TestFunction":
        def rule(t):
            out = []
            p = list(t.powers)
            if p[axis] > 0:
                q = list(p)
                q[axis] -= 1
                out.append(Term(p[axis] * t.coef, t.k, t.alpha, t.tau0,
                                tuple(q), t.beta, t.center))
            q = list(p)
            q[axis] += 1
            out.append(Term(-2.0 * t.beta * t.coef, t.k, t.alpha, t.tau0,
                            tuple(q), t.beta, t.center))
            return out
        return self.map_terms(rule)

    def mul_tau(self) -> "TestFunction":
        def rule(t):
            out = [Term(t.coef, t.k + 1, t.alpha, t.tau0, t.powers, t.beta,
                        t.center)]
            if t.tau0 != 0.0:
                out.append(Term(t.tau0 * t.coef, *t.key()))
            return out
        return self.map_terms(rule)

    def mul_x(self, axis: int) -> "TestFunction":
        def rule(t):
            q = list(t.powers)
            q[axis] += 1
            out = [Term(t.coef, t.k, t.alpha, t.tau0, tuple(q), t.beta,
                        t.center)]
            if t.center[axis] != 0.0:
                out.append(Term(t.center[axis] * t.coef, *t.key()))
            return out
        return self.map_terms(rule)

    def shift_time(self, dt: float) -> "TestFunction":
        """Exact positive Euclidean time translation (the semigroup action)."""
        if dt < 0:
            raise ValueError("only positive time shifts stay in the family")
        return self.map_terms(
            lambda t: [Term(t.coef, t.k, t.alpha, t.tau0 + dt, t.powers,
                            t.beta, t.center)])

    def rotate(self, rot) -> "TestFunction":
        """Exact rotation ``f(tau, rot^T x)`` for orthogonal ``rot``: centers
        move to ``rot c``, the Gaussian stays, and each ``(x - c)^p``
        expands into monomials of the same total degree."""
        rot = np.asarray(rot, dtype=float)
        if rot.shape != (3, 3) or not np.allclose(rot.T @ rot, np.eye(3),
                                                  rtol=0.0, atol=1e-10):
            raise ValueError("rotation must be a 3x3 orthogonal matrix")
        cols = rot.T.tolist()
        def rule(t):
            poly = {(0, 0, 0): 1.0}   # prod_i (rot^T y)_i^p_i, y = x - rot c
            for i in [i for i, p in enumerate(t.powers) for _ in range(p)]:
                grown: dict = {}
                for q, c in poly.items():
                    for j, r in enumerate(cols[i]):
                        key = q[:j] + (q[j] + 1,) + q[j + 1:]
                        grown[key] = grown.get(key, 0.0) + c * r
                poly = grown
            center = tuple(float(v) + 0.0 for v in rot @ t.center)  # no -0.0
            return [Term(c * t.coef, t.k, t.alpha, t.tau0, q, t.beta, center)
                    for q, c in poly.items()]
        return self.map_terms(rule)

    def spin_mix(self, mat) -> "TestFunction":
        """Component mixing f_mu -> sum_nu mat[mu, nu] f_nu."""
        mat = np.asarray(mat, dtype=complex)
        comps = []
        for i in range(self.dim):
            terms = []
            for j in range(self.dim):
                c = mat[i, j]
                if c != 0.0:
                    terms.extend(Term(c * t.coef, *t.key())
                                 for t in self.comps[j])
            comps.append(tuple(terms))
        return TestFunction(self.two_s, tuple(comps))

    def min_tau_degree(self) -> int:
        degs = [t.k for ts in self.comps for t in ts]
        return min(degs) if degs else 0

    def evaluate(self, points) -> np.ndarray:
        """Pointwise values, shape (2s+1, N) for (N, 4) input (tau, x, y, z)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tau = pts[:, 0]
        out = np.zeros((self.dim, pts.shape[0]), dtype=complex)
        for i, terms in enumerate(self.comps):
            for t in terms:
                dtau = tau - t.tau0
                live = dtau >= 0.0
                if not np.any(live):
                    continue
                dx = pts[:, 1:] - np.asarray(t.center)
                val = np.where(live, dtau, 0.0) ** t.k if t.k else 1.0
                for ax in range(3):
                    if t.powers[ax]:
                        val = val * dx[:, ax] ** t.powers[ax]
                val = val * np.exp(-t.beta * np.einsum("ni,ni->n", dx, dx))
                env = np.zeros_like(tau)
                env[live] = np.exp(-t.alpha * dtau[live])
                out[i] += t.coef * val * env
        return out

    def as_dict(self) -> dict:
        return {
            "two_s": self.two_s,
            "components": [[{
                "coef": [t.coef.real, t.coef.imag],
                "k": t.k, "alpha": t.alpha, "tau0": t.tau0,
                "powers": list(t.powers), "beta": t.beta,
                "center": list(t.center),
            } for t in ts] for ts in self.comps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TestFunction":
        comps = tuple(
            tuple(Term(complex(td["coef"][0], td["coef"][1]), int(td["k"]),
                       float(td["alpha"]), float(td["tau0"]),
                       tuple(int(p) for p in td["powers"]), float(td["beta"]),
                       tuple(float(c) for c in td["center"]))
                  for td in ts)
            for ts in data["components"])
        return cls(int(data["two_s"]), comps)


def gaussian_packet(two_s=0, component=0, coef=1.0, k=0, alpha=1.0, tau0=0.0,
                    powers=(0, 0, 0), beta=1.0, center=(0.0, 0.0, 0.0)):
    """Single-term family member living in one spin component."""
    term = Term(complex(coef), int(k), float(alpha), float(tau0),
                tuple(int(p) for p in powers), float(beta),
                tuple(float(c) for c in center))
    comps = tuple((term,) if i == component else ()
                  for i in range(two_s + 1))
    return TestFunction(two_s, comps)


def random_test_function(rng, two_s=0, terms_per_component=1, min_k=0,
                         max_k=2, max_power=2, tau0_max=0.4,
                         center_scale=1.0, alpha_range=(0.6, 1.6),
                         beta_range=(0.4, 1.2), shared_envelope=False):
    """Random family member; all parameters drawn from tame desk-scale ranges.

    ``shared_envelope`` makes every term reuse one (alpha, beta, tau0,
    center) draw, which keeps transform evaluation cheap and the momentum
    support compact for quadrature-heavy checks.
    """
    def draw_envelope():
        return (float(rng.uniform(*alpha_range)), float(rng.uniform(*beta_range)),
                float(rng.uniform(0.0, tau0_max)),
                tuple(float(v) for v in rng.uniform(-center_scale,
                                                    center_scale, size=3)))

    shared = draw_envelope()
    comps = []
    for _ in range(two_s + 1):
        terms = []
        for _ in range(terms_per_component):
            alpha, beta, tau0, center = (shared if shared_envelope
                                         else draw_envelope())
            coef = complex(rng.normal(), rng.normal())
            k = int(rng.integers(min_k, max_k + 1))
            powers = tuple(int(v) for v in rng.integers(0, max_power + 1,
                                                        size=3))
            terms.append(Term(coef, k, alpha, tau0, powers, beta, center))
        comps.append(tuple(terms))
    return TestFunction(two_s, tuple(comps))


# ---------------------------------------------------------------------------
# exact momentum-space image
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentumWaveFunction:
    """Exact transform of a TestFunction at mass m, evaluable anywhere."""

    m: float
    two_s: int
    comps: tuple

    @property
    def dim(self) -> int:
        return self.two_s + 1

    def evaluate(self, points) -> np.ndarray:
        """Values on 3-momenta, shape (2s+1, N) for (N, 3) input.

        Each term's image is a product of three axis factors (Gaussian
        moment times center phase) and the radial factor
        ``exp(-omega tau0) / (alpha + omega)^(k+1)``.  When ``points`` is a
        tensor grid in :func:`tensor_grid`'s layout -- recognized from the
        values alone, see :func:`_tensor_nodes` -- the image is
        sum-factorized: axis factors are evaluated on the n nodes of one
        axis, the terms sharing ``(tau0, alpha, k)`` are summed as one
        matrix product of outer products, and the radial factor is applied
        once per such group.  Every other input (permuted, perturbed or
        scattered points, as in the irrep action) is evaluated point by
        point; that loop is the reference the tensor path is tested
        against.  Both paths evaluate the same closed-form factors and
        differ only in the order of the floating-point products and sums.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        nodes = _tensor_nodes(pts)
        if nodes is None:
            return self._evaluate_pointwise(pts)
        return self._evaluate_tensor(nodes)

    def _evaluate_tensor(self, x: np.ndarray) -> np.ndarray:
        """Values on the tensor grid x^3 (``ij`` layout), shape (2s+1, n^3)."""
        n = x.size
        sq = x * x
        omega = np.sqrt(self.m ** 2 + (sq[:, None, None] + sq[None, :, None]
                                       + sq[None, None, :])).reshape(-1)

        def axis(t, ax):
            return (_gaussian_moment(t.powers[ax], x, t.beta)
                    * np.exp(-1j * t.center[ax] * x))

        # (tau0, alpha) -> k -> component -> terms
        groups: dict = {}
        for i, terms in enumerate(self.comps):
            for t in terms:
                groups.setdefault((t.tau0, t.alpha), {}).setdefault(
                    t.k, {}).setdefault(i, []).append(t)
        out = np.zeros((self.dim, n ** 3), dtype=complex)
        # n^3 scratch reused by every group: pole, radial factor, group sum
        pole, radial = np.empty_like(omega), np.empty_like(omega)
        block = np.empty((n * n, n), dtype=complex)
        for (tau0, alpha), by_k in groups.items():
            np.reciprocal(np.add(omega, alpha, out=pole), out=pole)
            # exp(-omega tau0) / (alpha + omega)^power, raised along k
            np.exp(np.multiply(omega, -tau0, out=radial), out=radial)
            power = 0
            for k in sorted(by_k):
                while power <= k:
                    radial *= pole
                    power += 1
                scale = math.factorial(k) / TWO_PI ** 1.5
                for i, group in by_k[k].items():
                    a = np.stack([scale * t.coef * axis(t, 0) for t in group])
                    b = np.stack([axis(t, 1) for t in group])
                    c = np.stack([axis(t, 2) for t in group])
                    # sum_r a[r, p] b[r, q] c[r, s] lands at p n^2 + q n + s
                    ab = (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)
                    np.matmul(ab.T, c, out=block)
                    flat = block.reshape(-1)
                    flat *= radial
                    out[i] += flat
        return out

    def _evaluate_pointwise(self, pts: np.ndarray) -> np.ndarray:
        """Values at arbitrary (N, 3) momenta.

        Heavy grid factors (time-shift exponentials, pole denominators,
        center phases, Gaussians) are shared across terms with equal
        parameters, so generator images with many terms over one envelope
        evaluate at roughly single-term cost.
        """
        omega = np.sqrt(self.m ** 2 + np.einsum("ni,ni->n", pts, pts))
        shift_cache: dict = {0.0: 1.0}
        pole_cache: dict = {}
        phase_cache: dict = {(0.0, 0.0, 0.0): 1.0}
        axis_cache: dict = {}
        out = np.zeros((self.dim, pts.shape[0]), dtype=complex)
        for i, terms in enumerate(self.comps):
            for t in terms:
                if t.tau0 not in shift_cache:
                    shift_cache[t.tau0] = np.exp(-omega * t.tau0)
                if t.alpha not in pole_cache:
                    pole_cache[t.alpha] = [np.ones_like(omega),
                                           1.0 / (t.alpha + omega)]
                poles = pole_cache[t.alpha]
                while len(poles) <= t.k + 1:
                    poles.append(poles[-1] * poles[1])
                if t.center not in phase_cache:
                    phase_cache[t.center] = np.exp(
                        -1j * (pts @ np.asarray(t.center)))
                val = (t.coef * math.factorial(t.k) / TWO_PI ** 1.5
                       * shift_cache[t.tau0] * poles[t.k + 1]
                       * phase_cache[t.center])
                for ax in range(3):
                    key = (ax, t.powers[ax], t.beta)
                    if key not in axis_cache:
                        axis_cache[key] = _gaussian_moment(
                            t.powers[ax], pts[:, ax], t.beta)
                    val = val * axis_cache[key]
                out[i] += val
        return out


def _tensor_nodes(pts: np.ndarray):
    """The node vector x when ``pts`` is :func:`tensor_grid`'s layout of
    x^3, else None.

    The layout is read from the values alone: N = n^3 with n >= 2, and
    point ``i n^2 + j n + k`` equals ``(x_i, x_j, x_k)`` exactly.
    """
    n = round(pts.shape[0] ** (1.0 / 3.0))
    if pts.shape[1] != 3 or n < 2 or n ** 3 != pts.shape[0]:
        return None
    x = pts[:n, 2]
    cube = pts.reshape(n, n, n, 3)
    if ((cube[..., 0] == x[:, None, None]).all()
            and (cube[..., 1] == x[None, :, None]).all()
            and (cube[..., 2] == x[None, None, :]).all()):
        return x
    return None


def _gaussian_moment(n: int, p: np.ndarray, beta: float) -> np.ndarray:
    """Closed form of ``int u^n exp(-beta u^2 - i p u) du``."""
    base = np.sqrt(np.pi / beta) * np.exp(-p * p / (4.0 * beta))
    if n == 0:
        return base
    q = p / (2.0 * np.sqrt(beta))
    h_prev = np.ones_like(q)
    h = 2.0 * q
    for j in range(1, n):
        h, h_prev = 2.0 * q * h - 2.0 * j * h_prev, h
    return base * h * (-1j / (2.0 * np.sqrt(beta))) ** n


def laplace_fourier_transform(f: TestFunction, m: float) -> MomentumWaveFunction:
    """Exact image of f under ``exp(-i p.x - omega_m(p) tau)`` integration."""
    if m <= 0:
        raise ValueError("mass must be positive")
    return MomentumWaveFunction(float(m), f.two_s, f.comps)


# ---------------------------------------------------------------------------
# momentum quadrature and the inner product
# ---------------------------------------------------------------------------

def _max_beta(functions) -> float:
    """Largest ``beta`` over the terms of all functions; 1.0 if none has a
    term, so a function without terms never widens a box."""
    return max((t.beta for f in functions for ts in f.comps for t in ts),
               default=1.0)


def momentum_box(functions, m: float) -> float:
    """Half-width of a cube capturing the Gaussian momentum decay.

    Each transform decays like ``exp(-p^2 / 4 beta)`` per axis, so a
    nine-sigma-ish cut on the widest Gaussian (see :func:`_max_beta`)
    leaves truncation errors around 1e-10 even with the polynomial
    prefactors.
    """
    return m + 9.0 * np.sqrt(_max_beta(functions))


def tensor_grid(box: float, nodes: int):
    """Gauss-Legendre tensor grid on [-box, box]^3: (N, 3) points, (N,)
    weights."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = x * box
    w = w * box
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = (w[:, None, None] * w[None, :, None]
           * w[None, None, :]).reshape(-1)
    return pts, wts


class MomentumQuadrature:
    """The 3-momentum quadrature behind every reflection-positive pairing.

    Built over the functions it will pair: they share one spin, stored as
    ``two_s``, and the Gauss-Legendre tensor grid covers
    ``momentum_box(functions, m)``.  The RIGHT on-shell kernel is built
    on first use and kept; each function's exact transform is
    evaluated once on the grid, keyed by the function (held in normal
    form), until :meth:`drop_transforms`.  A function of another spin, or
    one with a term narrower in position (larger ``beta``) than any the
    box was sized for, is rejected, so the box always covers what it
    pairs.  Node-doubling convergence compares two engines built over the
    same functions at ``nodes`` and ``2 * nodes``.
    """

    def __init__(self, functions, m: float, nodes: int = DEFAULT_NODES):
        functions = list(functions)
        if not functions:
            raise ValueError("need at least one function")
        self.two_s = functions[0].two_s
        if any(f.two_s != self.two_s for f in functions):
            raise ValueError("all functions must share one spin")
        self.m = float(m)
        self.max_beta = _max_beta(functions)
        self.nodes = nodes
        self.points, self.weights = tensor_grid(momentum_box(functions, m),
                                                nodes)
        self._right = None
        self._transforms: dict = {}

    def kernel(self, variant: KernelVariant) -> np.ndarray:
        """On-shell kernel on the grid, shape ``(2s+1, 2s+1, N)``: the kept
        RIGHT kernel with the axes that ``REFLECTION[variant]`` negates
        reversed (the nodes are exactly antisymmetric), as a copy if any."""
        if self._right is None:
            self._right = onshell_kernel_grid(KernelVariant.RIGHT, self.m,
                                              self.two_s, self.points)
        right = self._right
        flips = [ax + 2 for ax in range(3) if REFLECTION[variant][ax] < 0]
        cube = right.reshape(right.shape[:2] + (self.nodes,) * 3)
        return np.ascontiguousarray(np.flip(cube, flips)).reshape(right.shape)

    def transform(self, f: TestFunction) -> np.ndarray:
        """Exact transform of f on the grid, shape ``(2s+1, N)``."""
        if f not in self._transforms:
            if f.two_s != self.two_s:
                raise ValueError("function spin differs from the engine's")
            if any(t.beta > self.max_beta for ts in f.comps for t in ts):
                raise ValueError("function decays slower in momentum than "
                                 "the engine's box allows")
            self._transforms[f] = laplace_fourier_transform(
                f, self.m).evaluate(self.points)
        return self._transforms[f]

    def drop_transforms(self):
        """Free the cached transforms; the kernel stays."""
        self._transforms.clear()

    def contract(self, ff: np.ndarray, gg: np.ndarray,
                 variant: KernelVariant) -> complex:
        """``sum_n w_n conj(ff_u) K_uv gg_v`` for transforms on this grid."""
        return complex(np.einsum("un,uvn,vn,n->", ff.conj(),
                                 self.kernel(variant), gg, self.weights))


def inner_product(quad: MomentumQuadrature, f: TestFunction, g: TestFunction,
                  variant: KernelVariant) -> complex:
    """Reflection-positive inner product <f|g> for one kernel variant.

    Computed on the engine's grid as the 3-momentum quadrature of
    ``conj(F[f]) . (onshell kernel) . F[g]``.
    """
    return quad.contract(quad.transform(f), quad.transform(g), variant)


def norm(quad: MomentumQuadrature, f: TestFunction,
         variant: KernelVariant) -> float:
    val = inner_product(quad, f, f, variant)
    return math.sqrt(max(val.real, 0.0))


@dataclass(frozen=True)
class GramReport:
    size: int
    min_eig: float
    max_eig: float
    passed: bool
    hermiticity_defect: float
    matrix: np.ndarray = field(repr=False, default=None)


def gram_matrix(quad: MomentumQuadrature, fs, variant: KernelVariant,
                eig_tol: float = 1e-10) -> GramReport:
    """Gram matrix G_ij = <f_i|f_j>; passes when its spectrum is nonnegative.

    Every pairing comes from one stacked product of the engine's
    transforms, so the assembled matrix is a weighted sum of rank-one
    positive contributions up to rounding.
    """
    fs = list(fs)
    stack = np.stack([quad.transform(f) for f in fs])   # (nf, dim, N)
    mixed = np.einsum("uvn,jvn->jun", quad.kernel(variant), stack)
    weighted = stack.conj() * quad.weights
    gram = weighted.reshape(len(fs), -1) @ mixed.reshape(len(fs), -1).T
    herm = float(np.max(np.abs(gram - gram.conj().T)))
    scale = float(np.max(np.abs(gram)))
    gram_h = 0.5 * (gram + gram.conj().T)
    evals = np.linalg.eigvalsh(gram_h)
    lam_min = float(evals[0])
    lam_max = float(evals[-1])
    passed = (lam_min >= -eig_tol * max(1.0, lam_max)
              and herm <= 1e-10 * max(scale, 1e-300))
    return GramReport(size=len(fs), min_eig=lam_min, max_eig=lam_max,
                      passed=passed, hermiticity_defect=herm, matrix=gram)


# ---------------------------------------------------------------------------
# wedge functions for the boost domain
# ---------------------------------------------------------------------------

def smoothed_heaviside(lam):
    """``exp(-1/lam^2)`` for positive arguments, exactly zero otherwise."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    pos = lam > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / lam[pos] ** 2)
    return out


def wedge_multiplier(points, n_hat, eps: float):
    """Smooth cutoff supported inside the wedge around the n_hat-time plane."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_hat = np.asarray(n_hat, dtype=float)
    n_hat = n_hat / np.linalg.norm(n_hat)
    proj = pts[:, 1:] @ n_hat
    base = pts[:, 0] / eps - eps
    return smoothed_heaviside(base + proj) * smoothed_heaviside(base - proj)


@dataclass(frozen=True)
class WedgeFunction:
    """Positive-time family member confined to a wedge domain."""

    base: TestFunction
    n_hat: tuple
    eps: float

    def __post_init__(self):
        if self.base.two_s != 0:
            raise ValueError("wedge functions are scalar")
        n = np.asarray(self.n_hat, dtype=float)
        object.__setattr__(self, "n_hat", tuple(n / np.linalg.norm(n)))

    def max_angle(self) -> float:
        return math.atan(self.eps)

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (self.base.evaluate(pts)[0]
                * wedge_multiplier(pts, self.n_hat, self.eps))


@dataclass(frozen=True)
class RotatedWedge:
    """Wedge function pulled back through a space-time plane rotation."""

    wedge: WedgeFunction
    angle: float
    matrix: np.ndarray = field(repr=False)

    def max_angle(self) -> float:
        return self.wedge.max_angle()

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.wedge.evaluate(pts @ self.matrix)


def rotate_pointwise(w, angle: float):
    """Rotate a (possibly already rotated) wedge in its n_hat-time plane.

    The angle budget ``|total| < atan(eps)`` keeps the support inside the
    positive-time half space; exceeding it is a precondition error.
    """
    from .spacetime import spacetime_rotation_matrix

    if isinstance(w, RotatedWedge):
        base, total = w.wedge, w.angle + angle
    elif isinstance(w, WedgeFunction):
        base, total = w, angle
    else:
        raise TypeError("expected a wedge function")
    if abs(total) >= base.max_angle():
        raise ValueError("rotation angle exceeds the wedge support budget")
    O = spacetime_rotation_matrix(base.n_hat, total)
    # pullback x -> O^-1 x; for row-vector points that is pts @ O
    return RotatedWedge(base, total, O)


# ---------------------------------------------------------------------------
# position-space Monte-Carlo cross-check
# ---------------------------------------------------------------------------

def _envelope(obj):
    if isinstance(obj, RotatedWedge):
        base = obj.wedge.base
    elif isinstance(obj, WedgeFunction):
        base = obj.base
    else:
        base = obj
    terms = [t for ts in base.comps for t in ts]
    tau0 = min(t.tau0 for t in terms)
    alpha = min(t.alpha for t in terms)
    beta = min(t.beta for t in terms)
    center = np.mean([t.center for t in terms], axis=0)
    return tau0, alpha, beta, center


def _evaluate_scalar(obj, pts):
    vals = obj.evaluate(pts)
    return vals[0] if vals.ndim == 2 else vals


def position_inner_product_mc(f, g, m: float, seed: int = 0,
                              points_log2: int = 17, scrambles: int = 8,
                              exclusion: float | None = None):
    """8-dimensional position-space inner product by randomized QMC.

    Evaluates ``int f*(theta x) S0(x - y) g(y)`` for scalar f, g with
    importance sampling matched to the one-sided exponential and Gaussian
    envelopes.  Returns ``(value, stderr, info)`` where stderr comes from
    independent scrambles of the low-discrepancy point set.  Samples
    falling inside the excluded singular core (radius ``1e-4/m`` by
    default) contribute zero; their count is reported and the associated
    bias is far below the statistical error because the kernel singularity
    is integrable.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc

    if exclusion is None:
        exclusion = 1e-4 / m
    for obj in (f, g):
        if isinstance(obj, TestFunction) and obj.two_s != 0:
            raise ValueError("position-space MC is implemented for the "
                             "scalar kernel only")
    tau0_f, alpha_f, beta_f, cen_f = _envelope(f)
    tau0_g, alpha_g, beta_g, cen_g = _envelope(g)
    rate_f, rate_g = 0.5 * alpha_f, 0.5 * alpha_g
    sig_f = math.sqrt(1.0 / beta_f)
    sig_g = math.sqrt(1.0 / beta_g)
    n = 2 ** points_log2
    estimates = []
    excluded = 0
    for r in range(scrambles):
        sampler = qmc.Sobol(d=8, scramble=True, seed=seed * 1000 + r)
        u = sampler.random_base2(points_log2)
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        tau_x = tau0_f - np.log1p(-u[:, 0]) / rate_f
        xs = cen_f + ndtri(u[:, 1:4]) * sig_f
        tau_y = tau0_g - np.log1p(-u[:, 4]) / rate_g
        ys = cen_g + ndtri(u[:, 5:8]) * sig_g
        # proposal density (the exponential is in tau - tau0)
        qx = (rate_f * np.exp(-rate_f * (tau_x - tau0_f))
              * np.exp(-0.5 * np.sum(((xs - cen_f) / sig_f) ** 2, axis=1))
              / (2 * np.pi) ** 1.5 / sig_f ** 3)
        qy = (rate_g * np.exp(-rate_g * (tau_y - tau0_g))
              * np.exp(-0.5 * np.sum(((ys - cen_g) / sig_g) ** 2, axis=1))
              / (2 * np.pi) ** 1.5 / sig_g ** 3)
        pts_x = np.column_stack([tau_x, xs])
        pts_y = np.column_stack([tau_y, ys])
        fx = np.conj(_evaluate_scalar(f, pts_x))
        gy = _evaluate_scalar(g, pts_y)
        # kernel argument theta(x) - y with x the reflected first slot
        dt = tau_x + tau_y
        dxy = xs - ys
        r2 = dt * dt + np.einsum("ni,ni->n", dxy, dxy)
        rad = np.sqrt(r2)
        live = rad >= exclusion
        excluded += int(np.count_nonzero(~live))
        kern = np.zeros_like(rad)
        kern[live] = scalar_position_kernel(m, rad[live])
        estimates.append(np.mean(fx * kern * gy / (qx * qy)))
    estimates = np.asarray(estimates)
    value = complex(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1) / math.sqrt(scrambles))
    info = {"points": n * scrambles, "excluded": excluded,
            "scrambles": scrambles}
    return value, stderr, info
