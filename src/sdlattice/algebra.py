"""2x2 complex matrix arithmetic for su(2), sl(2,C) and their groups.

Matrices are plain ``(2, 2)`` complex numpy arrays, or stacks of them over
leading axes; `mul` alone takes stacks laid out like `Field.buf`, sites
last.  The Lie algebra basis is ``l_a = -(i/2) * sigma_a``
(``sigma_a`` the Pauli matrices), normalized so that ``[l_1, l_2] = l_3``
and cyclic permutations.  With this choice the basis is orthogonal under
``<X, Y> = tr(X^dag Y)`` with ``<l_a, l_a> = 1/2``.
"""
from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-12

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# l_1, l_2, l_3 stacked as a (3, 2, 2) array, handy for einsum projections.
BASIS = np.stack([-0.5j * s for s in PAULI])
BASIS.setflags(write=False)


def basis(a: int) -> np.ndarray:
    """Return the basis element l_a = -(i/2) sigma_a, a in {1, 2, 3}."""
    if a not in (1, 2, 3):
        raise ValueError(f"basis index must be 1, 2 or 3, got {a!r}")
    return BASIS[a - 1].copy()


def identity() -> np.ndarray:
    return np.eye(2, dtype=complex)


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.swapaxes(x, -1, -2))


def mul(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Matrix product x y of sites-last stacks of 2x2 matrices, shape
    (..., 2, 2) plus four site axes, such as `Field.buf` or its slots.

    The leading axes and the sites broadcast; a single matrix meets a stack
    as shape (2, 2, 1, 1, 1, 1).  Entry (r, c) is x_r0 y_0c + x_r1 y_1c,
    computed as the sum of two broadcast outer products (column of x times
    row of y), each a contiguous sweep over the sites; x.swapaxes(-6, -5)
    is the stack of the transposed matrices of x.  The result goes to
    `out`, which must not overlap x or y (the second product reads them
    after the first is written), or to a new array.
    """
    out = np.multiply(x[..., :, 0, None, :, :, :, :], y[..., None, 0, :, :, :, :, :], out)
    out += x[..., :, 1, None, :, :, :, :] * y[..., None, 1, :, :, :, :, :]
    return out


def _negligible(err: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Every entry of x finite and err <= tol * max(1, largest entry magnitude) per matrix."""
    scale = np.maximum(1.0, np.max(np.abs(x), axis=(-2, -1)))
    return bool(np.all(np.isfinite(x)) and np.all(err <= tol * scale))


def is_su2(x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every matrix of x is finite, anti-Hermitian and traceless to
    within tol, relative to its largest entry once that exceeds 1."""
    x = np.asarray(x)
    return is_sl2c(x, tol) and _negligible(np.max(np.abs(x + dagger(x)), axis=(-2, -1)), x, tol)


def is_sl2c(x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every matrix of x is finite and traceless to within tol,
    relative to its largest entry once that exceeds 1."""
    x = np.asarray(x)
    return _negligible(np.abs(np.trace(x, axis1=-2, axis2=-1)), x, tol)


# Membership test per algebra kind.
MEMBERSHIP = {"su2": is_su2, "sl2c": is_sl2c}


def sl2c_coefficients(x: np.ndarray) -> np.ndarray:
    """Complex coefficients c with x = sum_a c_a l_a (x traceless)."""
    return 2.0 * np.einsum("aij,...ij->...a", BASIS.conj(), x)


def from_coefficients(c: np.ndarray) -> np.ndarray:
    """Assemble sum_a c_a l_a; c has shape (..., 3), real or complex."""
    return np.einsum("...a,aij->...ij", np.asarray(c), BASIS)


def random_coefficients(rng: np.random.Generator, kind: str, scale: float, shape=()) -> np.ndarray:
    """Basis coefficients of shape shape + (3,), uniform in [-scale, scale].

    kind 'su2' draws real coefficients; kind 'sl2c' complex ones, all real
    parts first, then all imaginary parts.  The scale must be positive with
    2 * scale finite (the width of the interval).
    """
    if not (scale > 0 and math.isfinite(2.0 * scale)):
        raise ValueError(f"scale must be positive with 2 * scale finite, got {scale!r}")
    shape = tuple(shape) + (3,)
    if kind == "su2":
        return rng.uniform(-scale, scale, size=shape)
    if kind == "sl2c":
        u = rng.uniform(-scale, scale, size=shape)
        return u + 1j * rng.uniform(-scale, scale, size=shape)
    raise ValueError(f"unknown algebra kind {kind!r}")


def random_algebra(seed, kind: str, scale: float = 1.0) -> np.ndarray:
    """Deterministic random algebra element (see `random_coefficients`)."""
    return from_coefficients(random_coefficients(as_rng(seed), kind, scale))


def expm_traceless(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of traceless 2x2 matrices, batched over leading axes.

    Uses m^2 = -det(m) * I: exp(m) = cosh(mu) I + sinh(mu)/mu * m with
    mu^2 = -det(m).  The mu -> 0 limit is handled by a series.
    """
    m = np.asarray(m)
    if np.any(np.abs(np.trace(m, axis1=-2, axis2=-1)) > 1e-12):
        raise ValueError("expm_traceless requires a traceless matrix")
    mu2 = np.asarray(m[..., 0, 0] ** 2 + m[..., 0, 1] * m[..., 1, 0], dtype=complex)
    mu = np.sqrt(mu2)
    small = np.abs(mu) < 1e-6
    # cosh and sinh(mu)/mu as series in mu^2 where mu is small
    mu_safe = np.where(small, 1.0, mu)
    ch = np.where(small, 1.0 + mu2 / 2.0 + mu2**2 / 24.0, np.cosh(mu_safe))
    shc = np.where(small, 1.0 + mu2 / 6.0 + mu2**2 / 120.0, np.sinh(mu_safe) / mu_safe)
    return ch[..., None, None] * identity() + shc[..., None, None] * m


def random_group(seed, kind: str, shape=()) -> np.ndarray:
    """Deterministic random group elements, an array of shape shape + (2, 2).

    Elements are drawn one after another in row-major order over shape.
    'su2' normalizes a 4-vector of normals into a_0 I + i a.sigma (unit
    determinant, unitary by construction); 'sl2c' exponentiates a random
    sl(2,C) element (3 real, then 3 imaginary coefficients uniform in
    [-1, 1]) and renormalizes the determinant.
    """
    rng = as_rng(seed)
    shape = tuple(shape)
    if kind == "su2":
        v = rng.normal(size=shape + (4,))
        norm = np.linalg.norm(v, axis=-1)
        # degenerate vectors (never seen in practice) are redrawn after the rest
        while np.any(bad := norm < 1e-12):
            v[bad] = rng.normal(size=(np.count_nonzero(bad), 4))
            norm = np.linalg.norm(v, axis=-1)
        a0, a1, a2, a3 = (v[..., n, None, None] / norm[..., None, None] for n in range(4))
        return a0 * identity() + 1j * (a1 * PAULI[0] + a2 * PAULI[1] + a3 * PAULI[2])
    if kind == "sl2c":
        u = rng.uniform(-1.0, 1.0, size=shape + (2, 3))
        g = expm_traceless(from_coefficients(u[..., 0, :] + 1j * u[..., 1, :]))
        return g / np.sqrt(np.linalg.det(g))[..., None, None]
    raise ValueError(f"unknown group kind {kind!r}")


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed or pass through an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
