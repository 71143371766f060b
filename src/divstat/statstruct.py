"""Statistical structure derived from a metric and a potential.

Given (g, sigma) with cubic form C = sym(dsigma (x) g), this module exposes
the difference tensor K, the four connections that the pair carries
(Levi-Civita of g, the statistical connection nabla = LC + K, its conjugate
nabla-bar, and the Levi-Civita connection of gtilde = e^sigma g), the
conjugate structure sigma -> -sigma, and the nabla-parallel volume density.
The tensors themselves are computed by manifold.PointGeometry; the (M, x)
functions here read them from the geometry at x.  The private forms take
a PointGeometry of either shape, one point or a batch of rows.

Index conventions follow manifold.py: connection arrays are gamma[k, i, j] =
Gamma^k_ij and derivative stacks put the new derivative index first.
"""

import numpy as np

from .exprcore import Una
from .manifold import ConnKind, ManifoldDef


def difference_tensor(M, x):
    """K[k,i,j] = -(d_i sigma d^k_j + d_j sigma d^k_i + g_ij grad^k)/2."""
    return M.at(x).K


def cubic_form(M, x):
    """Totally symmetric C[i,j,k] = d_i sigma g_jk + d_j sigma g_ki + d_k sigma g_ij."""
    return _cubic_form(M.at(x))


def _cubic_form(P):
    # each unordered triple is evaluated once and written to all six slots,
    # so permutation symmetry holds exactly, not just to rounding
    g, ds, n = P.g, P.dsigma, P.n
    C = np.empty(P._lead + (n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                v = (ds[..., i] * g[..., j, k] + ds[..., j] * g[..., k, i]
                     + ds[..., k] * g[..., i, j])
                C[..., i, j, k] = C[..., i, k, j] = C[..., j, i, k] = v
                C[..., j, k, i] = C[..., k, i, j] = C[..., k, j, i] = v
    return C


def cubic_form_via_difference(M, x):
    """Cross-check route C_ijk = -2 g_kl K^l_ij."""
    P = M.at(x)
    return -2.0 * np.einsum("lij,kl->ijk", P.K, P.g_spd)


def connection_coeffs(M, x, kind):
    """Coefficients gamma[k,i,j] of the requested connection at x."""
    kind = ConnKind(kind)
    return M.at(x).gamma(kind)


def connection_dcoeffs(M, x, kind):
    """(gamma, dgamma) for the requested connection, dgamma[m,k,i,j] = d_m gamma[k,i,j].

    All derivatives come from the symbolic jets of g and sigma; nothing here
    differentiates numerically.
    """
    kind = ConnKind(kind)
    P = M.at(x)
    return P.gamma(kind), P.dgamma(kind)


def conjugate(M):
    """The conjugate structure: same metric, sigma -> -sigma.

    The parsed sigma tree is negated, and a top-level negation is unwrapped
    rather than nested, so conjugating twice gives back M's sigma tree
    (unless that tree is itself a negation of a negation).
    """
    sig = M._sigma
    neg = sig.arg if isinstance(sig, Una) and sig.op == "neg" else Una("neg", sig)
    return ManifoldDef(dict(M.doc, sigma=neg))


def volume_density(M, x):
    """theta_0 = e^{-(n+2) sigma / 2} sqrt(det g), the nabla-parallel density."""
    P = M.at(x)
    return float(np.exp(-(P.n + 2) * P.sigma / 2.0) * np.sqrt(np.linalg.det(P.g)))


def parallel_volume_residual(M, x):
    """residual_i = d_i theta_0 - theta_0 nabla-trace_i, identically 0 in exact arithmetic.

    d_i log theta_0 = -(n+2)/2 d_i sigma + (1/2) tr(g^{-1} d_i g) by Jacobi's
    formula; factoring theta_0 out keeps the cancellation well conditioned.
    """
    return _parallel_volume_residual(M.at(x))


def _parallel_volume_residual(P):
    n = P.n
    dlog = -(n + 2) / 2.0 * P.dsigma + 0.5 * np.einsum("...kl,...ikl->...i", P.g_inv, P.dg)
    theta = np.exp(-(n + 2) * P.sigma / 2.0) * np.sqrt(np.linalg.det(P.g))
    return theta[..., None] * (dlog - np.einsum("...kik->...i", P.gamma(ConnKind.NABLA)))


def trace_K(M, x):
    """(tr K)_i = nabla-trace_i - LC-trace_i; equals -(n+2)/2 d_i sigma."""
    return _trace_K(M.at(x))


def _trace_K(P):
    return np.einsum("...kik->...i", P.gamma(ConnKind.NABLA)) - np.einsum(
        "...kik->...i", P.christoffel
    )
