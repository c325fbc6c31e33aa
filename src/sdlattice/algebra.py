"""2x2 complex matrix arithmetic for su(2), sl(2,C) and their groups.

Matrices are plain ``(2, 2)`` complex numpy arrays, or stacks of them over
leading axes.  The Lie algebra basis is ``l_a = -(i/2) * sigma_a``
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


def _negligible(err: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """err <= tol * max(1, largest entry magnitude), matrix by matrix."""
    return bool(np.all(err <= tol * np.maximum(1.0, np.max(np.abs(x), axis=(-2, -1)))))


def is_su2(x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every matrix of x is anti-Hermitian and traceless to within
    tol, relative to its largest entry once that exceeds 1."""
    x = np.asarray(x)
    return is_sl2c(x, tol) and _negligible(np.max(np.abs(x + dagger(x)), axis=(-2, -1)), x, tol)


def is_sl2c(x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every matrix of x is traceless to within tol, relative to its
    largest entry once that exceeds 1."""
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
    """Matrix exponential of a traceless 2x2 matrix.

    Uses m^2 = -det(m) * I: exp(m) = cosh(mu) I + sinh(mu)/mu * m with
    mu^2 = -det(m).  The mu -> 0 limit is handled by a series.
    """
    if abs(np.trace(m)) > 1e-12:
        raise ValueError("expm_traceless requires a traceless matrix")
    mu2 = m[0, 0] ** 2 + m[0, 1] * m[1, 0]
    mu = np.sqrt(complex(mu2))
    if abs(mu) < 1e-6:
        # cosh and sinh(mu)/mu as series in mu^2
        ch = 1.0 + mu2 / 2.0 + mu2**2 / 24.0
        shc = 1.0 + mu2 / 6.0 + mu2**2 / 120.0
    else:
        ch = np.cosh(mu)
        shc = np.sinh(mu) / mu
    return ch * identity() + shc * m


def random_group(seed, kind: str) -> np.ndarray:
    """Deterministic random group element.

    'su2' normalizes a 4-vector of normals into a_0 I + i a.sigma (unit
    determinant, unitary by construction); 'sl2c' exponentiates a random
    sl(2,C) element and renormalizes the determinant.
    """
    rng = as_rng(seed)
    if kind == "su2":
        v = rng.normal(size=4)
        while np.linalg.norm(v) < 1e-12:
            v = rng.normal(size=4)
        v = v / np.linalg.norm(v)
        return v[0] * identity() + 1j * (
            v[1] * PAULI[0] + v[2] * PAULI[1] + v[3] * PAULI[2]
        )
    if kind == "sl2c":
        g = expm_traceless(random_algebra(rng, "sl2c", 1.0))
        return g / np.sqrt(np.linalg.det(g))
    raise ValueError(f"unknown group kind {kind!r}")


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed or pass through an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
