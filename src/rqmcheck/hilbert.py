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
from typing import NamedTuple

import numpy as np

from .kernels import (onshell_kernel_grid, scalar_position_kernel,
                      variant_kernels)
from .spacetime import KernelVariant

TWO_PI = 2.0 * np.pi

#: Gauss-Legendre nodes per momentum axis; resolves the sqrt branch point of
#: omega(p) at the box scale so that doubling the count moves compact-family
#: inner products by well under 1e-8
DEFAULT_NODES = 96

#: most points per slab of the tensor grid: whole planes of the first
#: axis, so that a slab's radial factor, pole and group block (about
#: 0.75 MB together) stay in cache while every term group adds into it
SLAB_POINTS = 16384

#: most complex values per slab across the rows a pass fills (2 MB): a
#: pass of up to eight rows gets :data:`SLAB_POINTS` points a slab, and a
#: pass of more rows proportionally fewer, so its value block, and the
#: kernel products and kernel rows that scale with the slab, stay bounded
SLAB_VALUES = 8 * SLAB_POINTS

#: terms of one (tau0, alpha, k, component) group summed per matrix
#: product; bounds the tensor path's scratch for groups with many terms
TERM_BLOCK = 256


# ---------------------------------------------------------------------------
# the symbolic family
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    """One term of the family (see the module docstring).

    An immutable tuple of its seven fields: equal terms compare and hash
    equal, and building one is a tuple allocation.  It is not validated
    here; :class:`TestFunction` checks every term it is built from.
    """

    coef: complex
    k: int
    alpha: float
    tau0: float
    powers: tuple
    beta: float
    center: tuple

    def key(self) -> tuple:
        """The six fields besides ``coef``: terms with equal keys merge."""
        return self[1:]

    # coordinate rules: each returns the Terms of its image, so rules chain
    # term by term (see then) and an image is built in one construction

    def scaled(self, c: complex) -> "Term":
        return Term(c * self.coef, *self[1:])

    def d_tau(self) -> list:
        """Classical time derivative on the open support: a ``k = 0``
        term's jump at tau0 is not representable, so operators that rely
        on integration by parts check :func:`min_tau_degree` first."""
        out = [self.scaled(-self.alpha)]
        if self.k > 0:
            out.append(Term(self.k * self.coef, self.k - 1, *self[2:]))
        return out

    def d_x(self, axis: int) -> list:
        # (x-c)^p e^(-beta (x-c)^2) -> p (x-c)^(p-1) - 2 beta (x-c)^(p+1)
        coef, k, alpha, tau0, powers, beta, center = self
        return [Term(c * coef, k, alpha, tau0, _bump(powers, axis, step),
                     beta, center)
                for c, step in ((powers[axis], -1), (-2.0 * beta, 1)) if c]

    def mul_tau(self) -> list:
        out = [Term(self.coef, self.k + 1, *self[2:])]
        if self.tau0 != 0.0:
            out.append(self.scaled(self.tau0))
        return out

    def mul_x(self, axis: int) -> list:
        coef, k, alpha, tau0, powers, beta, center = self
        out = [Term(coef, k, alpha, tau0, _bump(powers, axis, 1), beta,
                    center)]
        if center[axis] != 0.0:
            out.append(self.scaled(center[axis]))
        return out


def _merge(terms):
    acc: dict = {}
    for t in terms:
        key = t[1:]            # t.key(), inlined: runs for every term built
        if key in acc:
            coef = acc[key].coef + t.coef
            if not cmath.isfinite(coef):     # finite terms can sum to inf
                raise ValueError(f"merged coefficient overflows: {key}")
            acc[key] = Term(coef, *key)
        else:
            acc[key] = t
    return tuple(t for t in acc.values() if t.coef != 0.0)


def then(terms, rule, *args) -> list:
    """Apply a term rule to each of ``terms``: rules chain term by term."""
    return [out for t in terms for out in rule(t, *args)]


def _bump(powers: tuple, axis: int, step: int) -> tuple:
    return powers[:axis] + (powers[axis] + step,) + powers[axis + 1:]


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
        if not (isinstance(self.two_s, (int, np.integer))
                and not isinstance(self.two_s, bool) and self.two_s >= 0):
            raise ValueError("two_s must be a nonnegative integer")
        if len(self.comps) != self.two_s + 1:
            raise ValueError("component count must be 2s + 1")
        for terms in self.comps:
            for t in terms:
                # chained comparisons are False for NaN and reject inf; k and
                # the powers must be exact ints (a type test is cheapest)
                if not (len(t.powers) == 3 and len(t.center) == 3
                        and type(t.k) is int is type(t.powers[0])
                        is type(t.powers[1]) is type(t.powers[2])
                        and 0 < t.alpha < math.inf and 0 < t.beta < math.inf
                        and 0 <= t.tau0 < math.inf and t.k >= 0
                        and min(t.powers) >= 0 and cmath.isfinite(t.coef)
                        and all(map(math.isfinite, t.center))):
                    raise ValueError(f"invalid term parameters: {t}")
        object.__setattr__(self, "comps",
                           tuple(_merge(ts) for ts in self.comps))

    @property
    def dim(self) -> int:
        return self.two_s + 1

    def map_terms(self, rule, *args, mix=None) -> "TestFunction":
        """The image under a term rule (Term -> Terms, called with
        ``args``) in one construction, so it is validated and merged once;
        ``mix`` adds the terms of ``f_mu -> sum_nu mix[mu, nu] f_nu``."""
        comps = [then(ts, rule, *args) for ts in self.comps]
        if mix is not None:
            mix = np.asarray(mix, dtype=complex)
            for i, terms in enumerate(comps):
                for j, src in enumerate(self.comps):
                    if mix[i, j] != 0.0:
                        terms.extend(t.scaled(mix[i, j]) for t in src)
        return TestFunction(self.two_s, tuple(map(tuple, comps)))

    def scale(self, c: complex) -> "TestFunction":
        return self.map_terms(lambda t: [t.scaled(c)])

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
        return self.map_terms(Term.d_tau)

    def d_x(self, axis: int) -> "TestFunction":
        return self.map_terms(Term.d_x, axis)

    def mul_tau(self) -> "TestFunction":
        return self.map_terms(Term.mul_tau)

    def mul_x(self, axis: int) -> "TestFunction":
        return self.map_terms(Term.mul_x, axis)

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
        return self.map_terms(lambda t: (), mix=mat)

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
        """Read :meth:`as_dict` output; anything malformed is a ValueError."""
        def real(value):
            # JSON numbers only: a string or a boolean is not coerced
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"expected a number, got {value!r}")
            try:
                return float(value)
            except OverflowError:           # an int beyond every float
                raise ValueError(f"number out of range: {value!r}") from None

        def term(td):
            re, im = td["coef"]
            return Term(complex(real(re), real(im)), td["k"],
                        real(td["alpha"]), real(td["tau0"]),
                        tuple(td["powers"]), real(td["beta"]),
                        tuple(map(real, td["center"])))

        try:
            comps = tuple(tuple(map(term, ts)) for ts in data["components"])
            two_s = data["two_s"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed test function: {exc!r}") from None
        # k, powers and two_s as read: a non-integer is rejected, not truncated
        return cls(two_s, comps)


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
    """Exact transform of a TestFunction at mass m, evaluable anywhere;
    or of several functions of one spin at once, their components
    concatenated in ``comps`` (see :meth:`MomentumQuadrature.plan`)."""

    m: float
    two_s: int
    comps: tuple

    @property
    def dim(self) -> int:
        """Rows of a value array: 2s+1 for one function's transform."""
        return len(self.comps)

    def evaluate(self, points, grid=None, out=None) -> np.ndarray:
        """Values on 3-momenta, shape ``(dim, N)`` for (N, 3) input.

        Each term's image is a product of three axis factors (Gaussian
        moment times center phase) and the radial factor
        ``exp(-omega tau0) / (alpha + omega)^(k+1)``.  ``grid``, when
        given, is ``(plan, slab)``: this transform's :class:`TensorPlan`
        on a tensor grid, as :meth:`MomentumQuadrature.plan` builds it for
        every function of a pass, and the :class:`Slab` to fill, into
        ``out`` when given; the caller vouches that ``points`` are the
        slab's points, and the plan reads the slab's omega.  The plan
        sum-factorizes the image: axis
        factors are evaluated on the n nodes of one axis, the terms
        sharing ``(tau0, alpha, k)`` are summed as matrix products of
        outer products, and the radial factor is applied once per such
        group, slab by slab.  Without ``grid`` the points are evaluated
        one by one, whatever their layout; that loop is the reference the
        plan path is tested against.  Both paths evaluate the same
        closed-form factors and differ only in the order of the
        floating-point products and sums.
        """
        if grid is not None:
            plan, slab = grid
            return plan.fill(slab.lo, slab.hi, slab.omega, out)
        return self._evaluate_pointwise(
            np.atleast_2d(np.asarray(points, dtype=float)))

    def _evaluate_pointwise(self, pts: np.ndarray) -> np.ndarray:
        """Values at arbitrary (N, 3) momenta.

        Heavy grid factors (time-shift exponentials, pole denominators,
        Gaussians) are shared across terms with equal parameters, so
        generator images with many terms over one envelope evaluate at
        roughly single-term cost.  Terms are visited one center at a time,
        so one center phase is held at once.
        """
        omega = np.sqrt(self.m ** 2 + np.einsum("ni,ni->n", pts, pts))
        shift_cache: dict = {0.0: 1.0}
        pole_cache: dict = {}
        axis_cache: dict = {}
        by_center: dict = {}
        for i, terms in enumerate(self.comps):
            for t in terms:
                by_center.setdefault(t.center, []).append((i, t))
        out = np.zeros((self.dim, pts.shape[0]), dtype=complex)
        for center, group in by_center.items():
            phase = (np.exp(-1j * (pts @ np.asarray(center))) if any(center)
                     else 1.0)
            for i, t in group:
                if t.tau0 not in shift_cache:
                    shift_cache[t.tau0] = np.exp(-omega * t.tau0)
                if t.alpha not in pole_cache:
                    pole_cache[t.alpha] = [np.ones_like(omega),
                                           1.0 / (t.alpha + omega)]
                poles = pole_cache[t.alpha]
                while len(poles) <= t.k + 1:
                    poles.append(poles[-1] * poles[1])
                val = (t.coef * math.factorial(t.k) / TWO_PI ** 1.5
                       * shift_cache[t.tau0] * poles[t.k + 1] * phase)
                for ax in range(3):
                    key = (ax, t.powers[ax], t.beta)
                    if key not in axis_cache:
                        axis_cache[key] = _gaussian_moment(
                            t.powers[ax], pts[:, ax], t.beta)
                    val = val * axis_cache[key]
                out[i] += val
        return out


def slab_planes(n: int, rows: int = 1):
    """``(lo, hi)`` first-axis plane ranges of the slabs of an n^3 tensor
    grid for a pass that fills ``rows`` value rows: at most
    :data:`SLAB_POINTS` points and at most :data:`SLAB_VALUES` values
    across the rows a slab, but at least one plane.  The last slab is
    partial when the planes do not divide n, so the first is the
    largest."""
    points = min(SLAB_POINTS, SLAB_VALUES // max(rows, 1))
    planes = max(1, points // (n * n))
    return [(lo, min(lo + planes, n)) for lo in range(0, n, planes)]


def plane_omega(x: np.ndarray, m: float, lo: int, hi: int) -> np.ndarray:
    """``sqrt(m^2 + |p|^2)`` on first-axis planes ``lo`` to ``hi`` of the
    tensor grid x^3, flattened in :func:`tensor_grid`'s layout, with
    ``|p|^2`` summed as ``(x_i^2 + x_j^2) + x_k^2``."""
    sq = x * x
    omega = (sq[lo:hi, None, None] + sq[None, :, None]) + sq[None, None, :]
    np.add(m ** 2, omega, out=omega)
    return np.sqrt(omega, out=omega).reshape(-1)


class SlabScratch:
    """Flat buffers that one pass over a grid reuses slab after slab.

    ``scratch(name, *shape)`` is the start of buffer ``name`` as a
    contiguous array of ``shape``; the buffer is allocated only when it is
    missing or too small.  A grid's first slab is its largest (see
    :func:`slab_planes`), so a pass allocates each buffer once.
    """

    def __init__(self):
        self.buffers = {}

    def __call__(self, name: str, *shape, dtype=complex) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


class TensorPlan:
    """The sum factorization of a transform on the tensor grid x^3.

    Built once per pass over the grid, for one transform that stacks every
    function the pass needs (see :meth:`MomentumQuadrature.plan`): the
    axis factors of every term, stacked :data:`TERM_BLOCK` terms at a
    time, grouped by ``(tau0, alpha)``, then ``k``, then row, across all
    the functions.  :meth:`fill` evaluates one slab of first-axis planes
    (see :func:`slab_planes`) from the slab's omega, so a slab computes
    each pole and radial factor once for every function, and they and the
    group block stay in cache while every group adds into the rows.  The
    slab scratch comes from ``scratch`` (a :class:`SlabScratch`, shared by
    the plans of a pass), so it is allocated once.
    """

    def __init__(self, mwf: "MomentumWaveFunction", x: np.ndarray,
                 scratch: SlabScratch | None = None):
        def axis(t, ax):
            return (_gaussian_moment(t.powers[ax], x, t.beta)
                    * np.exp(-1j * t.center[ax] * x))

        def blocks(k, terms):
            # axis factors (a, b, c) of TERM_BLOCK terms at a time, a scaled
            scale = math.factorial(k) / TWO_PI ** 1.5
            return [(np.stack([scale * t.coef * axis(t, 0) for t in part]),
                     np.stack([axis(t, 1) for t in part]),
                     np.stack([axis(t, 2) for t in part]))
                    for part in (terms[j:j + TERM_BLOCK]
                                 for j in range(0, len(terms), TERM_BLOCK))]

        # (tau0, alpha) -> k -> row -> terms, then their blocks
        groups: dict = {}
        for i, terms in enumerate(mwf.comps):
            for t in terms:
                groups.setdefault((t.tau0, t.alpha), {}).setdefault(
                    t.k, {}).setdefault(i, []).append(t)
        self.groups = {key: [(k, [(i, blocks(k, terms))
                                  for i, terms in by_k[k].items()])
                             for k in sorted(by_k)]
                       for key, by_k in groups.items()}
        self.empty = [i for i, terms in enumerate(mwf.comps) if not terms]
        self.mwf, self.dim, self.n = mwf, mwf.dim, x.size
        self.scratch = SlabScratch() if scratch is None else scratch

    def fill(self, lo: int, hi: int, omega: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """Values on first-axis planes ``lo`` to ``hi``, one slab (see
        :func:`slab_planes`), shape ``(dim, (hi - lo) n^2)``, from
        ``omega`` on those planes, into ``out`` when given (its rows
        contiguous)."""
        n, size = self.n, (hi - lo) * self.n * self.n
        if out is None:
            out = np.empty((self.dim, size), dtype=complex)
        elif out.strides[-1] != out.itemsize:
            raise ValueError("the rows of out must be contiguous")
        out[self.empty] = 0.0
        # pole, radial factor (also cast to complex once per k), block
        pl = self.scratch("plan.pole", size, dtype=float)
        rad = self.scratch("plan.radial", size, dtype=float)
        radc = self.scratch("plan.radial_complex", size)
        blk = self.scratch("plan.block", size // n, n)
        flat = blk.reshape(-1)
        started = set()
        for (tau0, alpha), by_k in self.groups.items():
            np.reciprocal(np.add(omega, alpha, out=pl), out=pl)
            # exp(-omega tau0) / (alpha + omega)^power, raised along k
            np.exp(np.multiply(omega, -tau0, out=rad), out=rad)
            power = 0
            for k, by_row in by_k:
                while power <= k:
                    rad *= pl
                    power += 1
                radc[:] = rad
                for i, parts in by_row:
                    dest = out[i]
                    for a, b, c in parts:
                        # sum_r a[r, p] b[r, q] c[r, s] at p n^2 + q n + s
                        ab = (a[:, lo:hi, None]
                              * b[:, None, :]).reshape(len(a), -1)
                        if i in started:
                            np.matmul(ab.T, c, out=blk)
                            flat *= radc
                            dest += flat
                        else:
                            # a row's first block goes straight into it
                            np.matmul(ab.T, c, out=dest.reshape(-1, n))
                            dest *= radc
                            started.add(i)
        return out


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
    """Gauss-Legendre rule on [-box, box]: the per-axis nodes and weights
    of the tensor grid on [-box, box]^3."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x * box, w * box


class Slab(NamedTuple):
    """First-axis planes ``lo`` to ``hi`` of a tensor grid: their points,
    shape ``(N, 3)`` with point ``i n^2 + j n + k`` at ``(x_i, x_j, x_k)``,
    their weights, omega there (:func:`plane_omega`), and per requested
    variant the on-shell kernel rows times the weights, shape
    ``(2s+1, 2s+1, N)``."""

    lo: int
    hi: int
    points: np.ndarray
    weights: np.ndarray
    omega: np.ndarray
    kernels: list


def apply_kernel(kernel: np.ndarray, stack: np.ndarray, out: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """``sum_v kernel[u, v] stack[j, v]`` at every point into ``out``, the
    shape of ``stack`` ``(functions, 2s+1, N)``: per function, (2s+1)^2
    multiply-adds of one kernel row into one component, each product
    formed in ``scratch``, shape ``(N,)``, so the scratch is one row."""
    for values, applied in zip(stack, out):
        for u, row in enumerate(kernel):
            np.multiply(row[0], values[0], out=applied[u])
            for v in range(1, len(row)):
                applied[u] += np.multiply(row[v], values[v], out=scratch)
    return out


class MomentumQuadrature:
    """The 3-momentum quadrature behind every reflection-positive pairing.

    Built over the functions it will pair: they share one spin, stored as
    ``two_s``, and the Gauss-Legendre tensor grid covers
    ``momentum_box(functions, m)``, stored as ``box``.  A function of
    another spin, or one with a term narrower in position (larger
    ``beta``) than any the box was sized for, is rejected, so the box
    always covers what it pairs.

    Every sum over the grid, a kernel pairing here or an irrep state's
    ``inner`` and ``distance``, runs slab by slab over :meth:`slabs`, the
    slabs of whole first-axis planes that transforms fill, sized by the
    rows a pass fills (:func:`slab_planes`).  The engine keeps only the
    axis nodes ``x`` and the axis weights, no array over the whole grid:
    a slab forms its points, weights, omega and weighted RIGHT on-shell
    kernel rows when it is reached, and every variant reads those rows
    through :func:`kernels.variant_kernels`.  :meth:`pairings` therefore
    walks the grid once for all the functions and variants a caller
    needs.  The engine hands its node vector to
    :meth:`MomentumWaveFunction.evaluate` through one :class:`TensorPlan`
    per pass, which stacks every function the pass evaluates, so each
    slab is filled by one ``evaluate`` call that reads the slab's omega.
    Node-doubling convergence compares two engines built over the same
    functions at ``nodes`` and ``2 * nodes``.
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
        self.box = momentum_box(functions, m)
        self.x, self.axis_weights = tensor_grid(self.box, nodes)

    def slabs(self, variants, rows: int = 1):
        """The grid's :class:`Slab` s in order, sized for a pass that
        fills ``rows`` value rows (:func:`slab_planes`).  Each slab's
        points, weights and omega are formed once, and with any variant
        requested its RIGHT kernel rows are built once from its points and
        omega and multiplied by its weights; each variant in ``variants``
        reads them through :func:`kernels.variant_kernels`, so every
        variant's rows carry the weights."""
        # formed by _slab, so this generator holds none of a handed-on
        # slab's arrays while it forms the next one
        for lo, hi in slab_planes(self.nodes, rows):
            yield self._slab(lo, hi, variants)

    def _slab(self, lo: int, hi: int, variants) -> Slab:
        x, w = self.x, self.axis_weights
        points = np.stack(np.meshgrid(x[lo:hi], x, x, indexing="ij"),
                          axis=-1).reshape(-1, 3)
        weights = (w[lo:hi, None, None] * w[None, :, None]
                   * w[None, None, :]).reshape(-1)
        omega = plane_omega(x, self.m, lo, hi)
        kernels = []
        if variants:
            right = onshell_kernel_grid(KernelVariant.RIGHT, self.m,
                                        self.two_s, points, omega=omega)
            right *= weights
            kernels = variant_kernels(right, variants)
        return Slab(lo, hi, points, weights, omega, kernels)

    def plan(self, functions, scratch: SlabScratch | None = None
             ) -> TensorPlan:
        """One :class:`TensorPlan` for every function of a pass, after
        checking that the engine can pair each: the transform of their
        components concatenated, function j's at rows ``j (2s+1)`` to
        ``(j + 1)(2s+1)``.  A single function is a stack of one.
        ``scratch`` is the pass's :class:`SlabScratch`, which the plan
        shares for its slab scratch."""
        functions = list(functions)
        for f in functions:
            if f.two_s != self.two_s:
                raise ValueError("function spin differs from the engine's")
            if any(t.beta > self.max_beta for ts in f.comps for t in ts):
                raise ValueError("function decays slower in momentum than "
                                 "the engine's box allows")
        comps = tuple(c for f in functions for c in f.comps)
        return TensorPlan(MomentumWaveFunction(self.m, self.two_s, comps),
                          self.x, scratch)

    def values(self, plan: TensorPlan, slab: Slab,
               out: np.ndarray | None = None) -> np.ndarray:
        """A planned transform on one slab, shape ``(plan.dim, N)``, into
        ``out`` when given: one ``evaluate`` call for every function of
        the plan."""
        return plan.mwf.evaluate(slab.points, grid=(plan, slab), out=out)

    def pairings(self, bras, kets, variants) -> np.ndarray:
        """``<bra_i|ket_j>`` for every variant, shape ``(len(variants),
        len(bras), len(kets))``, in one pass over the grid.

        Per slab, sized for the pass's rows, the distinct functions among
        ``bras`` and ``kets`` are evaluated by one fill of their stacked
        :class:`TensorPlan` into one value block, and the weighted kernel
        rows are built once.  The bras and kets are views of that block
        (taken into a buffer only when their functions are not adjacent
        in it).  Per variant the kernel is applied to the kets
        (:func:`apply_kernel`), and the cross sums
        ``sum_n conj(bra_u) (w K ket)_u`` are one BLAS product that
        conjugates the bras as it reads them, so no value is copied,
        conjugated or weighted.  The value block and the kernel products
        live in slab-sized buffers that the pass reuses
        (:class:`SlabScratch`).
        """
        from scipy.linalg.blas import zgemm

        bras, kets, variants = list(bras), list(kets), tuple(variants)
        funcs = list(dict.fromkeys(bras + kets))
        scratch = SlabScratch()
        plan = self.plan(funcs, scratch)
        at = {f: i for i, f in enumerate(funcs)}
        bra_at = [at[f] for f in bras]
        ket_at = [at[f] for f in kets]
        nb, nk, dim = len(bras), len(kets), self.two_s + 1
        out = np.zeros((len(variants), nb, nk), dtype=complex)
        for slab in self.slabs(variants, plan.dim):
            size = len(slab.weights)
            vals = self.values(plan, slab, scratch("values", plan.dim, size)
                               ).reshape(len(funcs), dim * size)
            bra = _rows(vals, bra_at, scratch, "bra")
            ket = _rows(vals, ket_at, scratch, "ket").reshape(nk, dim, size)
            mixed = scratch("mixed", nk, dim, size)
            for i, kernel in enumerate(slab.kernels):
                apply_kernel(kernel, ket, mixed, scratch("row", size))
                # conj(bra) @ mixed.T: the transposes of C-ordered rows are
                # the Fortran arrays BLAS reads, so neither is copied
                out[i] += zgemm(1.0, bra.T, mixed.reshape(nk, -1).T,
                                trans_a=2)
            del slab   # before the next slab forms its own
        return out


def _rows(block: np.ndarray, at: list, scratch: SlabScratch,
          name: str) -> np.ndarray:
    """Rows ``at`` of ``block``: a view when they are adjacent and in
    order, else taken into ``scratch`` buffer ``name``."""
    lo = at[0] if at else 0
    if at == list(range(lo, lo + len(at))):
        return block[lo:lo + len(at)]
    return np.take(block, at, axis=0,
                   out=scratch(name, len(at), block.shape[1]))


def inner_product(quad: MomentumQuadrature, f: TestFunction, g,
                  variant):
    """Reflection-positive inner product <f|g> for one kernel variant.

    Computed on the engine's grid as the 3-momentum quadrature of
    ``conj(F[f]) . (onshell kernel) . F[g]``.  With a sequence of kets
    ``g`` and a sequence of variants, the value is the array of every
    ``<f|g_j>``, variants along the first axis and kets along the second,
    all taken in one pass over the grid (:meth:`MomentumQuadrature.pairings`).
    """
    if isinstance(variant, KernelVariant):
        return complex(quad.pairings([f], [g], (variant,))[0, 0, 0])
    return quad.pairings([f], g, variant)[:, 0]


def root_norm(squared: float) -> float:
    """``sqrt`` of a squared norm; NaN where it is negative or NaN, so a
    failure of positivity never reads as a small norm."""
    return math.sqrt(squared) if squared >= 0.0 else math.nan


def norm(quad: MomentumQuadrature, f: TestFunction,
         variant: KernelVariant) -> float:
    return root_norm(inner_product(quad, f, f, variant).real)


@dataclass(frozen=True)
class GramReport:
    size: int
    min_eig: float
    max_eig: float
    hermiticity_defect: float
    matrix: np.ndarray = field(repr=False, default=None)


def gram_matrix(quad: MomentumQuadrature, fs, variant):
    """Gram matrix G_ij = <f_i|f_j>, the extremes of its Hermitian part's
    spectrum and its Hermiticity defect ``max |G - G^dag|``.

    The matrix comes from :meth:`MomentumQuadrature.pairings`: each slab
    adds one product of its weighted rows, so the matrix is a weighted sum
    of rank-one positive contributions up to rounding, and the scratch is
    a few slab-sized stacks.  For a sequence of variants the value is one
    :class:`GramReport` per variant, all from one pass over the grid.
    """
    fs = list(fs)
    single = isinstance(variant, KernelVariant)
    grams = quad.pairings(fs, fs, (variant,) if single else variant)
    reports = []
    for gram in grams:
        herm = float(np.max(np.abs(gram - gram.conj().T)))
        evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        reports.append(GramReport(size=len(fs), min_eig=float(evals[0]),
                                  max_eig=float(evals[-1]),
                                  hermiticity_defect=herm, matrix=gram))
    return reports[0] if single else reports


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
                              points_log2: int = 17, scrambles: int = 8):
    """8-dimensional position-space inner product by randomized QMC.

    Evaluates ``int f*(theta x) S0(x - y) g(y)`` for scalar f, g with
    importance sampling matched to the one-sided exponential and Gaussian
    envelopes.  Returns ``(value, stderr, info)`` where stderr comes from
    independent scrambles of the low-discrepancy point set.  Samples
    falling inside the excluded singular core (radius ``1e-4/m``)
    contribute zero; their count is reported and the associated bias is
    far below the statistical error because the kernel singularity is
    integrable.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc

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
        live = rad >= 1e-4 / m
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
