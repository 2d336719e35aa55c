"""Dimension-3 spin algebra on the 2-component spinor space.

Conventions (fixed once, used everywhere in the package):

  - Euclidean metric, orthonormal coframe (e^1, e^2, e^3), volume form
    dv = e^1 ^ e^2 ^ e^3.
  - Clifford relation  cc(v) cc(w) + cc(w) cc(v) = -2 <v, w> Id.
  - Representation cc(e_j) = -i sigma_j with the standard Pauli matrices;
    each cc(v) is skew-Hermitian, and the complex volume element
    (the i-rescaled top product) acts as +Id, which pins the choice among
    the two inequivalent irreducible representations.
  - Hermitian inner products are complex-linear in the FIRST slot:
    herm(u, v) = sum_a u_a conj(v_a).
  - Purely imaginary covectors a = i (alpha_1 e^1 + alpha_2 e^2 + alpha_3 e^3)
    are stored as the real array alpha; Clifford multiplication by them,
    clifford_im, is the Hermitian traceless matrix alpha . sigma.
  - The quadratic covector of a spinor is
    q(psi) = -1/2 <cc(e_j) psi, psi> e^j, a purely imaginary covector,
    returned as its real coefficient array.

Forms of degree 0..3 store complex coefficients in increasing multi-index
order: degree 1 as (e^1, e^2, e^3), degree 2 as (e^12, e^13, e^23),
degree 3 as (e^123,).  The wedge and the Hodge star are complex-bilinear /
complex-linear; consequently (i a) ^ (i b) = -(a ^ b), and for an imaginary
1-form a = i alpha the top form a ^ *a equals -<alpha, alpha> dv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI",
    "CLIFF",
    "FORM_DIMS",
    "herm",
    "clifford_matrix",
    "clifford_im_matrix",
    "clifford_im",
    "complex_volume_matrix",
    "quadratic_covector",
    "quadratic_bilinear",
    "quadratic_endomorphism",
    "Form",
    "hodge_star",
    "wedge",
    "form_inner",
]

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# cc(e_j) = -i sigma_j
CLIFF = -1j * PAULI

#: coefficient-array lengths per form degree
FORM_DIMS = (1, 3, 3, 1)


def herm(u, v):
    """Hermitian inner product, complex-linear in the first argument."""
    u = np.asarray(u)
    v = np.asarray(v)
    return np.sum(u * np.conj(v), axis=-1)


def clifford_matrix(v):
    """Matrix of Clifford multiplication by the real vector v."""
    v = np.asarray(v, dtype=float)
    return np.einsum("j,jab->ab", v, CLIFF)


def clifford_im_matrix(alpha):
    """Matrix of Clifford multiplication by the imaginary covector i*alpha.

    With cc(e_j) = -i sigma_j this is alpha . sigma: Hermitian, traceless.
    """
    alpha = np.asarray(alpha, dtype=float)
    return np.einsum("j,jab->ab", alpha, PAULI)


def clifford_im(alpha, psi):
    """Apply Clifford multiplication by the imaginary covector i*alpha."""
    return clifford_im_matrix(alpha) @ np.asarray(psi, dtype=complex)


def complex_volume_matrix():
    """Action of the complex volume element; +Id in this representation."""
    return -(CLIFF[0] @ CLIFF[1] @ CLIFF[2])


def quadratic_covector(psi):
    """Real coefficients of the imaginary covector q(psi).

    q(psi) = -1/2 <cc(e_j) psi, psi> e^j; each component is purely
    imaginary because cc(e_j) is skew-Hermitian, so q(psi) = i * (result).
    Supports a batch of spinors in the leading axes of psi.
    """
    psi = np.asarray(psi, dtype=complex)
    pairings = np.einsum("jab,...b,...a->...j", CLIFF, psi, np.conj(psi))
    return -0.5 * np.imag(pairings)


def quadratic_bilinear(psi, phi):
    """Symmetric real-bilinear polarization of the quadratic covector.

    Returns the real coefficient array of q(psi, phi)
    = 1/4 (q(psi + phi) - q(psi - phi)).
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    return 0.25 * (quadratic_covector(psi + phi) - quadratic_covector(psi - phi))


def quadratic_endomorphism(psi):
    """The traceless endomorphism psi psi^* - 1/2 |psi|^2 Id.

    Equals clifford_im_matrix(quadratic_covector(psi)).
    """
    psi = np.asarray(psi, dtype=complex)
    outer = np.outer(psi, np.conj(psi))
    return outer - 0.5 * float(np.real(herm(psi, psi))) * np.eye(2)


@dataclass(frozen=True)
class Form:
    """Constant-coefficient form of degree 0..3 in the orthonormal coframe."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.degree not in (0, 1, 2, 3):
            raise ValueError(f"bad form degree {self.degree}")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (FORM_DIMS[self.degree],):
            raise ValueError(
                f"degree-{self.degree} form needs {FORM_DIMS[self.degree]} "
                f"coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)


# Hodge star tables in increasing multi-index order.
# Degree 1 -> 2: *(e^1)=e^23, *(e^2)=-e^13, *(e^3)=e^12.
# Degree 2 -> 1 is forced by * * = id.
def hodge_star(w: Form) -> Form:
    """Hodge star with respect to the flat metric and dv = e^123."""
    c = w.coeffs
    if w.degree == 0:
        return Form(3, c.copy())
    if w.degree == 3:
        return Form(0, c.copy())
    if w.degree == 1:
        return Form(2, np.array([c[2], -c[1], c[0]]))
    return Form(1, np.array([c[2], -c[1], c[0]]))


def wedge(a: Form, b: Form) -> Form:
    """Complex-bilinear wedge product; errors if degrees exceed 3."""
    deg = a.degree + b.degree
    if deg > 3:
        raise ValueError(f"wedge degree {a.degree}+{b.degree} exceeds 3")
    if a.degree == 0:
        return Form(b.degree, a.coeffs[0] * b.coeffs)
    if b.degree == 0:
        return Form(a.degree, b.coeffs[0] * a.coeffs)
    x, y = a.coeffs, b.coeffs
    if a.degree == 1 and b.degree == 1:
        return Form(
            2,
            np.array(
                [
                    x[0] * y[1] - x[1] * y[0],
                    x[0] * y[2] - x[2] * y[0],
                    x[1] * y[2] - x[2] * y[1],
                ]
            ),
        )
    if a.degree == 1 and b.degree == 2:
        return Form(3, np.array([x[0] * y[2] - x[1] * y[1] + x[2] * y[0]]))
    # degree 2 ^ degree 1 commutes with the previous case
    return wedge(b, a)


def form_inner(a: Form, b: Form) -> complex:
    """Complex-bilinear inner product, normalized so a ^ *b = <a,b> dv."""
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    return complex(np.sum(a.coeffs * b.coeffs))
