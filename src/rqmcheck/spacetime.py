"""Four-vector / 2x2-matrix correspondences and SL(2,C) arithmetic.

Conventions
-----------
Minkowski four-vectors are length-4 arrays ``(t, x, y, z)`` with metric
``diag(-1, +1, +1, +1)`` so the invariant square is ``t**2 - |x|**2``.
Euclidean four-vectors are length-4 arrays ``(tau, x, y, z)`` with square
``tau**2 + |x|**2``; Euclidean time reflection negates the first entry.

A Minkowski vector maps to the Hermitian matrix ``X = t*s0 + x.sigma``;
a Euclidean vector maps to one of four matrix realizations selected by
:class:`KernelVariant` (the base one uses ``i*s0`` for the time slot).
Both maps send the invariant square to ``det`` (up to sign).

2x2 complex matrices are plain ``(2, 2)`` complex ndarrays throughout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

SL2C_CONSTRUCT_TOL = 1e-12
SL2C_VERIFY_TOL = 1e-10

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: sigma_mu for the Minkowski map, index order (t, x, y, z)
MINK_SIGMA = np.stack([SIGMA0, SIGMA1, SIGMA2, SIGMA3])

#: Minkowski metric, signature (-,+,+,+)
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

#: time reflection on Euclidean four-vectors
THETA = np.diag([-1.0, 1.0, 1.0, 1.0])


class KernelVariant(enum.Enum):
    """The four inequivalent 2x2 realizations of a Euclidean four-vector."""

    RIGHT = "right"
    RIGHT_DUAL = "right-dual"
    LEFT = "left"
    LEFT_DUAL = "left-dual"

    @property
    def dual(self) -> bool:
        """Whether the realization is the RIGHT one conjugated by sigma2."""
        return self.name.endswith("DUAL")

    @property
    def left(self) -> bool:
        """Whether the realization is the RIGHT one transposed."""
        return self.name.startswith("LEFT")

    @classmethod
    def from_string(cls, s: str) -> "KernelVariant":
        for v in cls:
            if v.value == s or (isinstance(s, str)
                                and v.name.lower() == s.lower()):
                return v
        raise ValueError(f"unknown kernel variant {s!r}")


def _euclidean_sigma(variant: KernelVariant) -> np.ndarray:
    sig = np.stack([1j * SIGMA0, SIGMA1, SIGMA2, SIGMA3])
    if variant.left:
        sig = sig.transpose(0, 2, 1)
    if variant.dual:
        sig = SIGMA2 @ sig @ SIGMA2
    return sig


#: variant -> stacked (4, 2, 2) basis matrices
EUCL_SIGMA = {v: _euclidean_sigma(v) for v in KernelVariant}


@dataclass(frozen=True)
class PoincareElement:
    """Group element (lam, a): SL(2,C) matrix plus Hermitian translation."""

    lam: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=complex)
        a = np.asarray(self.a, dtype=complex)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)
        if abs(np.linalg.det(lam) - 1.0) > SL2C_CONSTRUCT_TOL:
            raise ValueError("lam is not unimodular")
        if np.max(np.abs(a - a.conj().T)) > SL2C_CONSTRUCT_TOL:
            raise ValueError("translation part is not Hermitian")

    @classmethod
    def identity(cls) -> "PoincareElement":
        return cls(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))

    @classmethod
    def from_fourvector(cls, lam, a4) -> "PoincareElement":
        return cls(lam, mink_to_matrix(np.asarray(a4, dtype=float)))


def mink_to_matrix(x) -> np.ndarray:
    """Map (t, x, y, z) to the Hermitian matrix ``x^mu sigma_mu``."""
    x = np.asarray(x, dtype=float)
    return np.tensordot(x, MINK_SIGMA, axes=(0, 0))


def matrix_to_mink(X, tol: float = 1e-10) -> np.ndarray:
    """Invert :func:`mink_to_matrix` via ``x^mu = Tr(X sigma_mu)/2``."""
    X = np.asarray(X, dtype=complex)
    if np.max(np.abs(X - X.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian; no Minkowski preimage")
    comps = 0.5 * np.einsum("kij,ji->k", MINK_SIGMA, X)
    return comps.real


def eucl_to_matrix(x, variant: KernelVariant = KernelVariant.RIGHT) -> np.ndarray:
    """Map (tau, x, y, z) to its 2x2 realization for the given variant."""
    x = np.asarray(x)
    return np.tensordot(x, EUCL_SIGMA[variant], axes=(0, 0))


def minkowski_square(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2)


def euclidean_square(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.dot(x, x))


def theta_reflect(x) -> np.ndarray:
    """Euclidean time reflection (tau, x) -> (-tau, x)."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] = -out[..., 0]
    return out


def compose_poincare(g2: PoincareElement, g1: PoincareElement) -> PoincareElement:
    """Group product: (L2, A2)(L1, A1) = (L2 L1, L2 A1 L2^dag + A2)."""
    lam = g2.lam @ g1.lam
    a = g2.lam @ g1.a @ g2.lam.conj().T + g2.a
    return PoincareElement(lam, a)


def poincare_inverse(g: PoincareElement) -> PoincareElement:
    lam_inv = np.linalg.inv(g.lam)
    a = -lam_inv @ g.a @ lam_inv.conj().T
    return PoincareElement(lam_inv, a)


def lorentz_from_sl2c(A) -> np.ndarray:
    """4x4 Lorentz matrix of X -> A X A^dag, rows/cols ordered (t,x,y,z)."""
    A = np.asarray(A, dtype=complex)
    if abs(np.linalg.det(A) - 1.0) > SL2C_VERIFY_TOL:
        raise ValueError("A is not unimodular")
    out = 0.5 * np.einsum("mij,jk,nkl,li->mn", MINK_SIGMA, A, MINK_SIGMA,
                          A.conj().T)
    return out.real


def orth_from_pair(A, B) -> np.ndarray:
    """4x4 matrix O(A,B) of the Euclidean action X_e -> A X_e B^t.

    For A, B in SU(2) the result is real orthogonal; complex unimodular
    pairs yield the corresponding complex orthogonal matrix (the real part
    is returned only when the imaginary part is negligible).
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    for M in (A, B):
        if abs(np.linalg.det(M) - 1.0) > SL2C_VERIFY_TOL:
            raise ValueError("pair member is not unimodular")
    sig = EUCL_SIGMA[KernelVariant.RIGHT]
    sig_dag = sig.conj().transpose(0, 2, 1)
    out = 0.5 * np.einsum("mij,jk,nkl,li->mn", sig_dag, A, sig, B.T)
    if np.max(np.abs(out.imag)) < 1e-12:
        return out.real
    return out


def canonical_boost(p, m: float) -> np.ndarray:
    """Positive Hermitian rotationless boost taking (m, 0) to (omega, p).

    Closed form ``((omega + m) I + p.sigma) / sqrt(2 m (omega + m))`` with
    unit determinant; squaring it gives ``(p.sigma_mink) / m`` on shell.
    An ``(N, 3)`` batch of momenta gives an ``(N, 2, 2)`` stack.
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    p = np.asarray(p, dtype=float)
    omega = np.sqrt(m * m + np.einsum("...i,...i->...", p, p))
    scale = 1.0 / np.sqrt(2.0 * m * (omega + m))
    d = (omega + m) * scale
    x, y, z = (p[..., k] * scale for k in range(3))
    out = np.empty((2, 2) + p.shape[:-1], dtype=complex)
    out[0, 0], out[1, 1] = d + z, d - z
    out[0, 1], out[1, 0] = x - 1j * y, x + 1j * y
    return np.moveaxis(out, (0, 1), (-2, -1))


def _mul2(A, B) -> np.ndarray:
    """``A @ B`` for 2x2 matrices or ``(N, 2, 2)`` stacks, entry by entry.

    Stacks are built as ``(2, 2, N)`` and returned as ``(N, 2, 2)`` views,
    so each entry is contiguous: several times faster than ``matmul``.
    """
    shape = np.broadcast_shapes(np.shape(A), np.shape(B))
    out = np.empty((2, 2) + shape[:-2], dtype=complex)
    for i in range(2):
        for k in range(2):
            out[i, k] = A[..., i, 0] * B[..., 0, k] + A[..., i, 1] * B[..., 1, k]
    return np.moveaxis(out, (0, 1), (-2, -1))


def polar_decompose(L):
    """Split unimodular L into positive Hermitian boost times unitary rotation.

    Returns ``(boost, rotation)`` with ``boost = (L L^dag)**0.5`` through the
    principal (positive) Hermitian square root and ``boost @ rotation == L``.
    """
    L = np.asarray(L, dtype=complex)
    if abs(np.linalg.det(L)) < 1e-14:
        raise ValueError("singular matrix has no polar decomposition")
    gram = L @ L.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    evals, vecs = np.linalg.eigh(gram)
    evals = np.clip(evals.real, 0.0, None)
    boost = (vecs * np.sqrt(evals)) @ vecs.conj().T
    inv_boost = (vecs / np.sqrt(evals)) @ vecs.conj().T
    rotation = inv_boost @ L
    return boost, rotation


def boost_momentum(L, p, m: float) -> np.ndarray:
    """Spatial part of the on-shell momentum after X -> L X L^dag.

    Applies the Lorentz matrix of L to ``(omega, p)``, ``p`` of shape
    ``(3,)`` or ``(N, 3)``.
    """
    p = np.asarray(p, dtype=float)
    omega = np.sqrt(m * m + np.einsum("...i,...i->...", p, p))
    lam = lorentz_from_sl2c(L)
    # components contiguous, like the entries of _mul2's stacks
    q = (np.multiply.outer(lam[1:, 0], omega)
         + lam[1:, 1:] @ np.moveaxis(p, -1, 0))
    return np.moveaxis(q, 0, -1)


def wigner_rotation(L, p, m: float) -> np.ndarray:
    """Canonical-spin Wigner rotation ``Lc(Lp)^-1 L Lc(p)``.

    For unimodular L and on-shell (p, m) the result is (numerically) SU(2);
    it agrees with the adjoint-free second form built from inverse daggers.
    ``p`` of shape ``(N, 3)`` gives an ``(N, 2, 2)`` stack.
    """
    L = np.asarray(L, dtype=complex)
    q = boost_momentum(L, p, m)
    return _mul2(_mul2(canonical_boost(-q, m), L), canonical_boost(p, m))


def wigner_rotation_alt(L, p, m: float) -> np.ndarray:
    """Second, algebraically equivalent form of the Wigner rotation."""
    L = np.asarray(L, dtype=complex)
    p = np.asarray(p, dtype=float)
    q = boost_momentum(L, p, m)
    Ldag_inv = np.linalg.inv(L.conj().T)
    return canonical_boost(q, m) @ Ldag_inv @ canonical_boost(-p, m)


def rotation_su2(axis, angle: float) -> np.ndarray:
    """SU(2) rotation ``exp(i angle axis.sigma / 2)`` about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    n_sigma = axis[0] * SIGMA1 + axis[1] * SIGMA2 + axis[2] * SIGMA3
    half = 0.5 * angle
    return np.cos(half) * SIGMA0 + 1j * np.sin(half) * n_sigma


def boost_sl2c(direction, rapidity: float) -> np.ndarray:
    """Positive Hermitian boost ``exp(rapidity direction.sigma / 2)``."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    n_sigma = (direction[0] * SIGMA1 + direction[1] * SIGMA2
               + direction[2] * SIGMA3)
    half = 0.5 * rapidity
    return np.cosh(half) * SIGMA0 + np.sinh(half) * n_sigma


def spacetime_rotation_matrix(axis, angle: float) -> np.ndarray:
    """4x4 rotation in the (tau, axis) Euclidean plane.

    Realized through the pair (A, A^t) with ``A = exp(i angle axis.sigma/2)``
    so that e.g. the z-time plane mixes components 0 and 3.
    """
    A = rotation_su2(axis, angle)
    return orth_from_pair(A, A.T)
