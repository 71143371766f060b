"""Curvature tensors of the derived connections and their structural identities.

Conventions: riemann returns R[l,k,i,j] with R(d_i, d_j) d_k = R^l_kij d_l,
built from R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
- Gamma^l_jm Gamma^m_ik by manifold.PointGeometry.riemann, and ricci
returns its trace Ric_jk = R^a_kaj.  Everything runs on the symbolic jets;
no finite differences enter any curvature quantity.  Each public (M, x)
function reads the geometry at x once; the private forms take that
PointGeometry, so a caller that evaluates several quantities at one point
shares its tensors.  The private forms are written once for both shapes
of PointGeometry: on a batch from ManifoldDef.at_many every result gains
the batch's leading axis, and a residual is one max per row.

The identities checked by curvature_relation_residuals are stated with the
signs that actually close numerically, which for eq5 means

    2 R_g = R + Rbar - 2 [K_X, K_Y]Z

(the bracket term enters eq4 and eq5 with opposite signs).
"""

import numpy as np

from .manifold import ConnKind


class DegeneratePlaneError(ValueError):
    """The two given vectors do not span a 2-plane at the base point."""


def riemann(M, x, kind):
    """Curvature coefficients R[l,k,i,j] of the requested connection at x."""
    return M.at(x).riemann(ConnKind(kind))


def ricci(M, x, kind):
    """Ric[j,k] = R^a_kaj, the trace of X -> R(X, d_j) d_k."""
    return _ricci(M.at(x), ConnKind(kind))


def _ricci(P, kind):
    P.g_spd  # outside the SPD region this raises, as metric_at does
    return np.einsum("...akaj->...jk", P.riemann(kind))


def statistical_curvature(M, x):
    """S = (R + Rbar)/2, coefficientwise."""
    return _statistical_curvature(M.at(x))


def _statistical_curvature(P):
    return 0.5 * (P.riemann(ConnKind.NABLA) + P.riemann(ConnKind.NABLA_BAR))


def _max_abs(P, a):
    # max |a| over each point's entries: one number per row of a batch
    return np.abs(a).reshape(P._lead + (-1,)).max(axis=-1)


def _quad(a, g, b):
    # a^T g b over the trailing axes, as (a @ g) @ b
    return np.einsum("...j,...j->...", np.einsum("...i,...ij->...j", a, g), b)


def _plane_basis(g, u, v):
    # g-orthonormal (X, Y) spanning each plane (u, v), g (..., n, n)
    # broadcasting against u, v (..., n), and ok, False where the vectors
    # do not span a 2-plane (X and Y are finite there, and meaningless)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    nu2, nv2, uv = _quad(u, g, u), _quad(v, g, v), _quad(u, g, v)
    ok = ~((nu2 <= 0.0) | (nv2 <= 0.0) | (nu2 * nv2 - uv * uv <= 1e-10 * nu2 * nv2))
    X = u / np.sqrt(np.where(ok, nu2, 1.0))[..., None]
    w = v - _quad(X, g, v)[..., None] * X
    return X, w / np.sqrt(np.where(ok, _quad(w, g, w), 1.0))[..., None], ok


def sectional_tilde(M, x, plane):
    """Sectional curvature of gtilde = e^sigma g on the plane, two ways.

    Returns (direct, viaS): direct contracts riemann(LC_gTilde) against
    gtilde; viaS evaluates

        e^{-sigma} ( g(S(X,Y)Y,X) - (Hess(X,X) + Hess(Y,Y) + |dsigma|^2)/2 )

    on the g-orthonormalized pair. The two must agree; keeping both routes
    separate is the point of the check.
    """
    direct, via = _sectional_tilde(M.at(x), plane)
    return float(direct), float(via)


def _sectional_tilde(P, plane):
    # plane is (u, v), each of shape (n,) or one vector per row of P
    g = P.g_spd
    X, Y, ok = _plane_basis(g, *plane)
    if not np.all(ok):
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    es = np.exp(P.sigma)
    gt = es[..., None, None] * g
    Rt = P.riemann(ConnKind.LC_G_TILDE)
    num = np.einsum("...lm,...mkij,...i,...j,...k,...l->...", gt, Rt, X, Y, Y, X)
    den = _quad(X, gt, X) * _quad(Y, gt, Y) - _quad(X, gt, Y) ** 2
    direct = num / den

    S = _statistical_curvature(P)
    H = P.hess_sigma
    n2 = np.einsum("...i,...i->...", P.dsigma, P.grad_sigma)
    sval = np.einsum("...lm,...mkij,...i,...j,...k,...l->...", g, S, X, Y, Y, X)
    via = (sval - 0.5 * (_quad(X, H, X) + _quad(Y, H, Y) + n2)) / es
    return direct, via


def curvature_relation_residuals(M, x):
    """Max-norm residuals of the identities tying R, Rbar and R_g together.

    eq3: g(R(X,Y)Z, W) + g(Z, Rbar(X,Y)W) = 0
    eq4: R = R_g + alt(nabla_g K) + [K_X, K_Y]Z
    eq5: 2 R_g = R + Rbar - 2 [K_X, K_Y]Z
    """
    return {k: float(v) for k, v in _relation_residuals(M.at(x)).items()}


def _relation_residuals(P):
    g, gam, K = P.g, P.christoffel, P.K
    Rg = P.riemann(ConnKind.LC_G)
    R = P.riemann(ConnKind.NABLA)
    Rb = P.riemann(ConnKind.NABLA_BAR)

    KK = np.einsum("...lim,...mjk->...lkij", K, K)
    KK = KK - P._t(KK, 0, 1, 3, 2)
    # (nabla_m K)^l_jk
    DK = (
        P.dK
        + np.einsum("...lmi,...ijk->...mljk", gam, K)
        - np.einsum("...imj,...lik->...mljk", gam, K)
        - np.einsum("...imk,...lji->...mljk", gam, K)
    )
    B = P._t(DK, 1, 3, 0, 2)
    alt = B - P._t(B, 0, 1, 3, 2)

    low_R = np.einsum("...lm,...mkij->...lkij", g, R)
    low_Rb_swapped = np.einsum("...km,...mlij->...lkij", g, Rb)
    return {
        "eq3": _max_abs(P, low_R + low_Rb_swapped),
        "eq4": _max_abs(P, R - Rg - alt - KK),
        "eq5": _max_abs(P, 2.0 * Rg - R - Rb + 2.0 * KK),
    }


def conjugate_symmetry_residual(M, x):
    """Eigenvalue spread of g^{-1} Hess sigma; 0 iff Hess sigma = f g at x.

    The spread is invariant under shifting by multiples of g, so this equals
    the deviation of Hess sigma from its best trace-fitted multiple of g
    measured through g itself, with no coordinate-dependent norm involved.
    """
    return float(_conjugate_symmetry_residual(M.at(x)))


def _conjugate_symmetry_residual(P):
    # the eigenvalues of the pencil (Hess sigma, g) by the Cholesky
    # reduction g = L L^T: those of L^-1 Hess sigma L^-T
    L = np.linalg.cholesky(P.g_spd)
    A = np.linalg.solve(L, P.hess_sigma)
    w = np.linalg.eigvalsh(np.linalg.solve(L, np.swapaxes(A, -1, -2)))
    return w[..., -1] - w[..., 0]


def _constant_curvature_terms(P, kind):
    # (g(R(di,dj)dk,dl), g_jk g_il - g_ik g_jl), both indexed [l,k,i,j]
    g = P.g_spd
    low = np.einsum("...lm,...mkij->...lkij", g, P.riemann(kind))
    W = np.einsum("...jk,...il->...lkij", g, g) - np.einsum("...ik,...jl->...lkij", g, g)
    return low, W


def constant_curvature_residual(M, x, lam, kind=ConnKind.NABLA):
    """max |g(R(di,dj)dk,dl) - lam (g_jk g_il - g_ik g_jl)| at x."""
    low, W = _constant_curvature_terms(M.at(x), ConnKind(kind))
    return float(np.abs(low - lam * W).max())


def closed_form_residuals(M, x):
    """Residuals of riemann/ricci of nabla against their Hessian closed forms.

    With a = dsigma, H = Hess sigma, G_X = nabla^g_X grad sigma:

      R(X,Y)Z = R_g(X,Y)Z - (H(X,Z)Y - H(Y,Z)X + g(Y,Z)G_X - g(X,Z)G_Y)/2
                + (a(Y)a(Z)X - a(X)a(Z)Y)/4
                + |a|^2 (g(Y,Z)X - g(X,Z)Y)/4
                + (g(Y,Z)a(X) - g(X,Z)a(Y)) grad sigma / 4

      Ric = Ric_g + (n H - (lap sigma) g)/2 + ((n-2) a (x) a + n |a|^2 g)/4

    These are cross-checks only; the primary computation stays with the
    connection jets.
    """
    P = M.at(x)
    g, ds, gam, n = P.g, P.dsigma, P.christoffel, P.n
    grad = P.grad_sigma
    H = P.hess_sigma
    G = P.dgrad_sigma + np.einsum("lim,m->il", gam, grad)  # G[i,l] = (nabla_i grad)^l
    n2 = float(ds @ grad)
    lap = P.laplace_sigma
    eye = np.eye(n)

    Rg = P.riemann(ConnKind.LC_G)
    R = P.riemann(ConnKind.NABLA)
    block_h = (
        np.einsum("ik,lj->lkij", H, eye)
        - np.einsum("jk,li->lkij", H, eye)
        + np.einsum("jk,il->lkij", g, G)
        - np.einsum("ik,jl->lkij", g, G)
    )
    quad = 0.25 * (
        np.einsum("j,k,li->lkij", ds, ds, eye)
        - np.einsum("i,k,lj->lkij", ds, ds, eye)
        + n2 * (np.einsum("jk,li->lkij", g, eye) - np.einsum("ik,lj->lkij", g, eye))
        + np.einsum("jk,i,l->lkij", g, ds, grad)
        - np.einsum("ik,j,l->lkij", g, ds, grad)
    )
    want_R = Rg - 0.5 * block_h + quad

    ric = _ricci(P, ConnKind.NABLA)
    ric_g = _ricci(P, ConnKind.LC_G)
    want_ric = (
        ric_g
        + 0.5 * (n * H - lap * g)
        + 0.25 * ((n - 2) * np.outer(ds, ds) + n * n2 * g)
    )
    return {
        "riemann": float(np.abs(R - want_R).max()),
        "ricci": float(np.abs(ric - want_ric).max()),
    }
