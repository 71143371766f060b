"""Statistical structure derived from a metric and a potential.

Given (g, sigma) with cubic form C = sym(dsigma (x) g), the pair carries
four connections: Levi-Civita of g, the statistical connection
nabla = LC + K with K the difference tensor, its conjugate nabla-bar, and
the Levi-Civita connection of gtilde = e^sigma g.  The tensors themselves,
K and C among them, are members of manifold.PointGeometry (M.at(x)).  This
module gives the connections by kind at a point (connection_coeffs,
connection_dcoeffs), the conjugate structure sigma -> -sigma, and the
nabla-parallel volume form with the two trace identities the check suite
tests; the private forms take a PointGeometry of either shape, one point
or a batch of rows.

Index conventions follow manifold.py: connection arrays are gamma[k, i, j] =
Gamma^k_ij and derivative stacks put the new derivative index first.
"""

import numpy as np

from .exprcore import EvalDomainError, Una, _una
from .manifold import ConnKind, ManifoldDef


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


def _volume_form(P):
    # theta_0 = e^{-(n+2) sigma/2} sqrt(det g), the nabla-parallel density,
    # at P's points; EvalDomainError at the first point where it does not
    # fit in a double
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.exp(-(P.n + 2) * P.sigma / 2.0) * np.sqrt(np.linalg.det(P.g))
    if x := P._failing(~np.isfinite(theta)):
        raise EvalDomainError("e^{-(n+2) sigma/2} sqrt(det g)", "overflow", x)
    return theta


def _parallel_volume_residual(P):
    # d_i theta_0 - theta_0 nabla-trace_i, identically 0 in exact
    # arithmetic: d_i log theta_0 = -(n+2)/2 d_i sigma + tr(g^-1 d_i g)/2
    # by Jacobi's formula, and factoring theta_0 out keeps the
    # cancellation well conditioned
    n = P.n
    dlog = -(n + 2) / 2.0 * P.dsigma + 0.5 * np.einsum("...kl,...ikl->...i", P.g_inv, P.dg)
    return _volume_form(P)[..., None] * (dlog - np.einsum("...kik->...i", P.gamma(ConnKind.NABLA)))


def _trace_K(P):
    # (tr K)_i = nabla-trace_i - LC-trace_i; equals -(n+2)/2 d_i sigma
    return np.einsum("...kik->...i", P.gamma(ConnKind.NABLA)) - np.einsum(
        "...kik->...i", P.christoffel
    )
