"""Independent numerical oracles shared by the test modules.

These deliberately avoid the code paths they certify: the Bessel oracle
integrates the cosh representation, the radial oracle reduces the 4D
Fourier transform to a 1D oscillatory integral accelerated with Wynn's
epsilon algorithm, the on-shell kernel oracle uses each variant's own
Euclidean sigma basis, the transform oracle does brute 1D quadratures,
the full-grid contractions and irrep-state pairings take whole-grid
arrays in one product each, where the engine streams slabs, the
method-chain generator action builds every intermediate function, where
the library applies one term rule per image, the construction-based
commutator residual rebuilds every image per pair and merges the
difference by building a function, where the library shares the images
and merges the terms directly, and the residue integral takes one
trapezoid per kernel entry, where the library combines two shared ones.
"""

import math

import numpy as np
from scipy.special import j1, jn_zeros


def bessel_k1_integral(x: float, nodes: int = 400) -> float:
    """K1 through ``int_0^inf exp(-x cosh t) cosh t dt``."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    upper = math.asinh(60.0 / x) + 1.0
    tt = 0.5 * upper * (t + 1.0)
    ww = 0.5 * upper * w
    return float(np.sum(ww * np.exp(-x * np.cosh(tt)) * np.cosh(tt)))


def wynn_epsilon(partial, noise: float = 1e-15) -> float:
    """Limit estimate of a sequence of partial sums (even epsilon columns)."""
    scale = max(abs(partial[-1]), 1e-300)
    prev = np.zeros(len(partial) + 1)
    cur = np.asarray(partial, dtype=float)
    best = cur[-1]
    col = 0
    while len(cur) >= 3:
        diffs = cur[1:] - cur[:-1]
        if np.min(np.abs(diffs)) < noise * scale:
            break
        prev, cur = cur, prev[1:len(cur)] + 1.0 / diffs
        col += 1
        if col % 2 == 0:
            best = cur[-1]
    return best


def radial_position_kernel(m: float, r: float, n_panels: int = 160,
                           gl_nodes: int = 24) -> float:
    """Scalar position kernel from the angular-reduced momentum integral.

    After integrating the four-momentum Fourier kernel over angles, the
    scalar kernel becomes ``(1/(2 pi^2 r)) (1/r - m^2 I2)`` with
    ``I2 = int_0^inf J1(P r) / (P^2 + m^2) dP``, which is evaluated by
    quadrature between consecutive Bessel zeros plus series acceleration.
    No modified Bessel function enters anywhere.
    """
    zeros = jn_zeros(1, n_panels) / r
    edges = np.concatenate([[0.0], zeros])
    x, w = np.polynomial.legendre.leggauss(gl_nodes)
    partial = np.empty(n_panels)
    acc = 0.0
    for k in range(n_panels):
        a, b = edges[k], edges[k + 1]
        p = 0.5 * (b - a) * x + 0.5 * (a + b)
        acc += 0.5 * (b - a) * float(np.sum(w * j1(p * r)
                                            / (p * p + m * m)))
        partial[k] = acc
    i2 = wynn_epsilon(partial)
    return (1.0 / (2.0 * np.pi ** 2 * r)) * (1.0 / r - m * m * i2)


def onshell_kernel_euclidean(variant, m: float, two_s: int, p):
    """On-shell kernel from the variant's own Euclidean sigma basis.

    Continues the Euclidean momentum to ``p_e = (-i omega, p)``, contracts
    it with ``EUCL_SIGMA[variant]`` and takes the Wigner D polynomial of
    the mass-rescaled matrix times ``m^(2s) / omega``; no reflection of
    ``p`` enters.
    """
    from rqmcheck.spacetime import EUCL_SIGMA
    from rqmcheck.spin import wigner_d_entries

    p = np.asarray(p, dtype=float)
    omega = math.sqrt(m * m + float(p @ p))
    pe = np.array([-1j * omega, p[0], p[1], p[2]])
    M = np.tensordot(pe, EUCL_SIGMA[variant], axes=(0, 0)) / m
    D = wigner_d_entries(two_s, M[0, 0], M[0, 1], M[1, 0], M[1, 1])
    return D * m ** two_s / omega


def transform_quadrature(f, m: float, p, tau_nodes: int = 220,
                         space_nodes: int = 220) -> complex:
    """Direct numerical Laplace-Fourier transform of a family member.

    Evaluates the defining integral with composed 1D Gauss-Legendre rules
    per term (the integrand factorizes exactly), independent of the
    closed-form transform.
    """
    p = np.asarray(p, dtype=float)
    omega = math.sqrt(m * m + float(p @ p))
    xg, wg = np.polynomial.legendre.leggauss(tau_nodes)
    xs, ws = np.polynomial.legendre.leggauss(space_nodes)
    totals = np.zeros(f.dim, dtype=complex)
    for ci, terms in enumerate(f.comps):
        for t in terms:
            span = 40.0 / (t.alpha + omega) + 10.0 * t.k
            tau = t.tau0 + 0.5 * span * (xg + 1.0)
            wtau = 0.5 * span * wg
            tau_int = np.sum(wtau * (tau - t.tau0) ** t.k
                             * np.exp(-t.alpha * (tau - t.tau0))
                             * np.exp(-omega * tau))
            spatial = 1.0 + 0.0j
            for ax in range(3):
                width = 14.0 / math.sqrt(t.beta)
                u = t.center[ax] + 0.5 * width * xs
                wu = 0.5 * width * ws
                spatial *= np.sum(
                    wu * (u - t.center[ax]) ** t.powers[ax]
                    * np.exp(-t.beta * (u - t.center[ax]) ** 2)
                    * np.exp(-1j * p[ax] * u))
            totals[ci] += t.coef * tau_int * spatial / (2 * np.pi) ** 1.5
    return totals


def wigner_d_power_table(two_s: int, a, b, c, d) -> np.ndarray:
    """Wigner D polynomial by full power tables and zero-seeded Kahan sums.

    Every power from 0 to 2s of each entry is tabulated (``0**0 = 1``
    through an explicit table of ones) and every term multiplies in all
    four powers, zeroth ones included; each entry's alternating sum starts
    from zero accumulators.  This is the straightforward form of the
    closed formula that ``spin.wigner_d_entries`` evaluates without the
    multiplications by one.
    """
    a, b, c, d = (np.asarray(v, dtype=complex) for v in (a, b, c, d))
    fact = math.factorial
    pows = {}
    for name, arr in (("a", a), ("b", b), ("c", c), ("d", d)):
        table = [np.ones_like(arr)]
        for _ in range(two_s):
            table.append(table[-1] * arr)
        pows[name] = table
    n = two_s + 1
    out = np.zeros((n, n) + a.shape, dtype=complex)
    for i in range(n):
        n_mu = two_s - i
        for j in range(n):
            n_mup = two_s - j
            mu_sum = n_mu + n_mup - two_s
            norm = math.sqrt(fact(n_mu) * fact(two_s - n_mu) * fact(n_mup)
                             * fact(two_s - n_mup))
            acc = np.zeros_like(a)
            comp = np.zeros_like(a)
            for k in range(max(0, mu_sum), min(n_mu, n_mup) + 1):
                denom = (fact(k) * fact(n_mup - k) * fact(n_mu - k)
                         * fact(k - mu_sum))
                term = ((norm / denom) * pows["a"][k] * pows["c"][n_mup - k]
                        * pows["b"][n_mu - k] * pows["d"][k - mu_sum])
                y = term - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# full-grid contractions: every pairing as one product over the whole grid
# ---------------------------------------------------------------------------

def reflection(variant) -> np.ndarray:
    """Signs of p at which the RIGHT on-shell matrix ``omega + p.sigma`` is
    the variant's: transposition flips p_y, sigma2-conjugation flips p_x
    and p_z."""
    return np.array([(-1.0) ** variant.dual, (-1.0) ** variant.left,
                     (-1.0) ** variant.dual])


def grid_points(quad):
    """The engine's whole grid, ``(N, 3)`` points and ``(N,)`` weights,
    formed here from its axis nodes and weights (the engine keeps only its
    axes)."""
    x, w = quad.x, quad.axis_weights
    points = np.stack(np.meshgrid(x, x, x, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    weights = (w[:, None, None] * w[None, :, None]
               * w[None, None, :]).reshape(-1)
    return points, weights


def engine_values(quad, f) -> np.ndarray:
    """f's transform on the engine's whole grid, shape ``(2s+1, N)``: its
    slab values joined."""
    plan = quad.plan([f])
    return np.concatenate([quad.values(plan, slab)
                           for slab in quad.slabs(())], axis=-1)


def full_grid_kernel(quad, variant):
    """The variant's on-shell kernel on the whole grid, built as the RIGHT
    kernel at the reflected points rather than read from the RIGHT kernel
    at the same points."""
    from rqmcheck.kernels import KernelVariant, onshell_kernel_grid

    points = grid_points(quad)[0] * reflection(variant)
    return onshell_kernel_grid(KernelVariant.RIGHT, quad.m, quad.two_s,
                               points)


def contract_full_grid(quad, ff, gg, variant) -> complex:
    """``sum_n w_n conj(ff_u) K_uv gg_v`` in one einsum."""
    return complex(np.einsum("un,uvn,vn,n->", ff.conj(),
                             full_grid_kernel(quad, variant), gg,
                             grid_points(quad)[1]))


def component_sums_full_grid(quad, ff, gg, variant) -> np.ndarray:
    """``sum_n w_n conj(ff_u) K_wv gg_v`` for every ``(u, w)``, shape
    ``(2s+1, 2s+1)``, in one einsum."""
    return np.einsum("un,wvn,vn,n->uw", ff.conj(),
                     full_grid_kernel(quad, variant), gg,
                     grid_points(quad)[1])


def gram_full_grid(quad, fs, variant) -> np.ndarray:
    """Gram matrix ``<f_i|f_j>`` from one stacked product of whole-grid
    transforms."""
    stack = np.stack([engine_values(quad, f) for f in fs])   # (nf, dim, N)
    mixed = np.einsum("uvn,jvn->jun", full_grid_kernel(quad, variant), stack)
    weighted = stack.conj() * grid_points(quad)[1]
    return weighted.reshape(len(fs), -1) @ mixed.reshape(len(fs), -1).T


def hermiticity_rows_full_grid(pairs, m, variants, names, nodes):
    """``(pair, name, variant, lhs, rhs)`` as
    ``generators.hermiticity_defects`` orders them, from whole-grid
    transforms of f, g and their orbital images and whole-grid kernels."""
    from rqmcheck import generators as gn
    from rqmcheck import hilbert as hl

    functions = [h for pair in pairs for h in pair]
    quad = hl.MomentumQuadrature(functions, m, nodes)
    weights = grid_points(quad)[1]
    two_s = functions[0].two_s
    rows = []
    for idx, (f, g) in enumerate(pairs):
        for name in names:
            ff, gg = engine_values(quad, f), engine_values(quad, g)
            a_f = engine_values(quad, gn.apply_generator_orbital(name, f))
            a_g = engine_values(quad, gn.apply_generator_orbital(name, g))
            for variant in variants:
                kernel = full_grid_kernel(quad, variant)
                bra = np.einsum("un,uvn,n->vn", ff.conj(), kernel, weights)
                ket = np.einsum("uvn,vn,n->un", kernel, gg, weights)
                spin_lhs = bra @ gg.T
                spin_rhs = np.array([[np.vdot(ff[v], ket[u])
                                      for v in range(len(ff))]
                                     for u in range(len(ff))])
                S = gn.generator_spin_matrix(name, two_s, variant)
                lhs = bra.ravel() @ a_g.ravel() + np.sum(S * spin_lhs)
                rhs = np.vdot(a_f, ket) + np.sum(S.conj() * spin_rhs)
                rows.append((idx, name, variant, complex(lhs), complex(rhs)))
    return rows


def irrep_inner_full_grid(a, b) -> complex:
    """``IrrepState`` inner product from both states evaluated on a's
    whole grid at once, in one einsum."""
    pts, wts = grid_points(a.quad)
    return complex(np.einsum("un,un,n->", a.evaluate(pts).conj(),
                             b.evaluate(pts), wts))


def irrep_distance_full_grid(a, b) -> float:
    """``sqrt(sum_n w_n |a - b|^2)`` over a's whole grid, in one einsum."""
    pts, wts = grid_points(a.quad)
    diff = a.evaluate(pts) - b.evaluate(pts)
    return math.sqrt(float(np.einsum("un,n->", np.abs(diff) ** 2, wts)))


# ---------------------------------------------------------------------------
# generator images as chains of family operations
# ---------------------------------------------------------------------------

def apply_generator_orbital_chain(name, f):
    """Orbital part of a generator as a chain of whole-function family
    operations, each building (and merging) an intermediate function."""
    if name[0] in ("H", "K") and f.min_tau_degree() < 1:
        raise ValueError(f"{name} needs a vanishing support edge")
    if name == "H":
        return f.d_tau()
    j = int(name[1]) - 1
    if name[0] == "P":
        return f.d_x(j).scale(-1j)
    if name[0] == "J":
        a, b = (j + 1) % 3, (j + 2) % 3
        return (f.d_x(b).mul_x(a) - f.d_x(a).mul_x(b)).scale(-1j)
    return f.d_tau().mul_x(j) - f.d_x(j).mul_tau()


def apply_generator_chain(name, f, variant):
    """Full generator: the chained orbital part plus ``spin_mix`` of the
    generator's spin matrix, added as a second function."""
    from rqmcheck import generators as gn

    orbital = apply_generator_orbital_chain(name, f)
    if name[0] in ("H", "P") or f.two_s == 0:
        return orbital
    return orbital + f.spin_mix(gn.generator_spin_matrix(name, f.two_s,
                                                         variant))


def commutator_residual_by_construction(name_a, name_b, f, variant):
    """Residual of ``[A, B] f - (rhs) f`` with every image rebuilt for this
    pair and the difference merged by building (and validating) one
    whole function from ``A(B f)`` and the scaled terms of the rest."""
    from rqmcheck import generators as gn
    from rqmcheck.hilbert import TestFunction

    def image(name, g):
        return gn.apply_generator(name, g, variant)

    def coef_scale(g):
        return max((abs(t.coef) for ts in g.comps for t in ts), default=0.0)

    ab = image(name_a, image(name_b, f))
    ba = image(name_b, image(name_a, f))
    minus = [(-1.0, ba)] + [(-coef, image(gname, f))
                            for coef, gname in gn.commutator_rhs(name_a,
                                                                 name_b)]
    diff = TestFunction(f.two_s, tuple(
        ab.comps[i] + tuple(t.scaled(c) for c, g in minus for t in g.comps[i])
        for i in range(f.dim)))
    scale = max(coef_scale(ab), coef_scale(ba), coef_scale(f), 1e-300)
    return coef_scale(diff) / scale


# ---------------------------------------------------------------------------
# residue integral, one trapezoid per kernel entry
# ---------------------------------------------------------------------------

def residue_consistency_per_entry(variant, m, two_s, p, tau,
                                  nodes=200_000) -> float:
    """``kernels.check_residue_consistency`` with the energy integral taken
    entry by entry: each entry's remainder ``(c0 + c1 p0) / (p0^2 +
    omega^2)`` gets its own trapezoid over the whole window."""
    from scipy.special import sici

    from rqmcheck.kernels import onshell_kernel
    from rqmcheck.spacetime import eucl_to_matrix
    from rqmcheck.spin import wigner_d_entries

    p = np.asarray(p, dtype=float)
    window = 200.0 * m
    omega2 = m * m + float(p @ p)
    omega = math.sqrt(omega2)
    n = two_s + 1
    nodes_p0 = np.arange(two_s + 1, dtype=float)
    vander = np.vander(nodes_p0, two_s + 1, increasing=True)
    samples = np.empty((two_s + 1, n, n), dtype=complex)
    for idx, p0 in enumerate(nodes_p0):
        M = eucl_to_matrix(np.array([p0, p[0], p[1], p[2]]), variant)
        samples[idx] = wigner_d_entries(two_s, M[0, 0], M[0, 1], M[1, 0],
                                        M[1, 1])
    coeffs = np.linalg.solve(vander, samples.reshape(two_s + 1, -1))
    coeffs = coeffs.reshape(two_s + 1, n, n)
    grid = np.linspace(-window, window, nodes)
    weight = np.exp(-1j * grid * tau)
    denom = grid * grid + omega2
    si_val, _ = sici(window * tau)
    tail_lin = -2j * (0.5 * np.pi - si_val)
    tail_const = (2.0 * np.cos(window * tau) / window
                  - 2.0 * tau * (0.5 * np.pi - si_val))
    result = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            poly = np.polynomial.Polynomial(coeffs[:, i, j])
            _, rem = divmod(poly, np.polynomial.Polynomial([omega2, 0, 1]))
            rem_c = rem.coef
            c0 = rem_c[0] if len(rem_c) > 0 else 0.0
            c1 = rem_c[1] if len(rem_c) > 1 else 0.0
            integral = np.trapezoid((c0 + c1 * grid) / denom * weight, grid)
            integral += c1 * tail_lin + c0 * tail_const
            result[i, j] = integral / np.pi
    target = onshell_kernel(variant, m, two_s, p) * np.exp(-omega * tau)
    return float(np.max(np.abs(result - target)) / np.max(np.abs(target)))
