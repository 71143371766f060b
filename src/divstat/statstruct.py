"""Statistical structure derived from a metric and a potential.

Given (g, sigma) with cubic form C = sym(dsigma (x) g), this module exposes
the difference tensor K, the four connections that the pair carries
(Levi-Civita of g, the statistical connection nabla = LC + K, its conjugate
nabla-bar, and the Levi-Civita connection of gtilde = e^sigma g), the
conjugate structure sigma -> -sigma, and the nabla-parallel volume density.
The tensors themselves, C among them, are computed by
manifold.PointGeometry; the (M, x) functions here read them from the
geometry at x.  The private forms take a PointGeometry of either shape,
one point or a batch of rows.

Index conventions follow manifold.py: connection arrays are gamma[k, i, j] =
Gamma^k_ij and derivative stacks put the new derivative index first.
"""

import numpy as np

from .exprcore import EvalDomainError, Una, _una
from .manifold import ConnKind, ManifoldDef


def difference_tensor(M, x):
    """K[k,i,j] = -(d_i sigma d^k_j + d_j sigma d^k_i + g_ij grad^k)/2."""
    return M.at(x).K


def cubic_form(M, x):
    """Totally symmetric C[i,j,k] = d_i sigma g_jk + d_j sigma g_ki + d_k sigma g_ij."""
    return M.at(x).cubic_form


def cubic_form_via_difference(M, x):
    """Cross-check route C_ijk = -2 g_kl K^l_ij."""
    P = M.at(x)
    return -2.0 * np.einsum("lij,kl->ijk", P.K, P.g_spd)


def connection_coeffs(M, x, kind):
    """Coefficients gamma[k,i,j] of the requested connection at x."""
    return M.at(x).gamma(kind)


def connection_dcoeffs(M, x, kind):
    """(gamma, dgamma) for the requested connection, dgamma[m,k,i,j] = d_m gamma[k,i,j].

    All derivatives come from the symbolic jets of g and sigma; nothing here
    differentiates numerically.
    """
    P = M.at(x)
    return P.gamma(kind), P.dgamma(kind)


def conjugate(M):
    """The conjugate structure: same metric, sigma -> -sigma.

    The parsed sigma tree is negated, a top-level negation unwrapped and a
    constant folded, and printed as the new sigma, so conjugating twice gives
    back M's sigma tree (unless that tree is a negation of a negation).
    """
    sig = M._sigma
    neg = sig.arg if isinstance(sig, Una) and sig.op == "neg" else _una("neg", sig)
    return ManifoldDef(dict(M.doc, sigma=str(neg)))


def volume_density(M, x):
    """theta_0 = e^{-(n+2) sigma / 2} sqrt(det g), the nabla-parallel density."""
    return float(_volume_form(M.at(x)))


def _volume_form(P):
    # theta_0 at P's points; EvalDomainError at the first point where it
    # does not fit in a double
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.exp(-(P.n + 2) * P.sigma / 2.0) * np.sqrt(np.linalg.det(P.g))
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        x = np.reshape(P.x, (-1, P.n))[bad[0]]
        raise EvalDomainError("e^{-(n+2) sigma/2} sqrt(det g)", "overflow", x.tolist())
    return theta


def parallel_volume_residual(M, x):
    """residual_i = d_i theta_0 - theta_0 nabla-trace_i, identically 0 in exact arithmetic.

    d_i log theta_0 = -(n+2)/2 d_i sigma + (1/2) tr(g^{-1} d_i g) by Jacobi's
    formula; factoring theta_0 out keeps the cancellation well conditioned.
    """
    return _parallel_volume_residual(M.at(x))


def _parallel_volume_residual(P):
    n = P.n
    dlog = -(n + 2) / 2.0 * P.dsigma + 0.5 * np.einsum("...kl,...ikl->...i", P.g_inv, P.dg)
    return _volume_form(P)[..., None] * (dlog - np.einsum("...kik->...i", P.gamma(ConnKind.NABLA)))


def trace_K(M, x):
    """(tr K)_i = nabla-trace_i - LC-trace_i; equals -(n+2)/2 d_i sigma."""
    return _trace_K(M.at(x))


def _trace_K(P):
    return np.einsum("...kik->...i", P.gamma(ConnKind.NABLA)) - np.einsum(
        "...kik->...i", P.christoffel
    )
