"""Curvature tensors of the derived connections and their structural identities.

Conventions: R[l,k,i,j] with R(d_i, d_j) d_k = R^l_kij d_l, built from
R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
- Gamma^l_jm Gamma^m_ik, and Ric_jk = R^a_kaj.  The curvature of each
connection (P.riemann(kind)), its Ricci trace (P.ricci(kind)) and the
statistical curvature S = (R + Rbar)/2 (P.statistical_curvature) are
members of manifold.PointGeometry, as the other tensors are.  Everything
runs on the symbolic jets; no finite differences enter any curvature
quantity.  This module gives what is built from those members: the
sectional curvature of e^sigma g by two routes, the Cartan-Hadamard plane
term and its maximum over planes, the identity residuals and the
constant-curvature fit.  Its private forms take a PointGeometry of either
shape: on a batch from ManifoldDef.at_many every result gains the batch's
leading axis, and a residual is one max per row.  ricci, sectional_tilde and
constant_curvature_residual take (M, x) and read one point.

The identities checked by _relation_residuals are stated with the signs
that actually close numerically, which for eq5 means

    2 R_g = R + Rbar - 2 [K_X, K_Y]Z

(the bracket term enters eq4 and eq5 with opposite signs).
"""

import numpy as np

from .manifold import SPD_EIG_FLOOR, ConnKind


class DegeneratePlaneError(ValueError):
    """The two given vectors do not span a 2-plane at the base point."""


def ricci(M, x, kind):
    """Ric[j,k] = R^a_kaj, the trace of X -> R(X, d_j) d_k."""
    return M.at(x).ricci(kind)


def _max_abs(P, a):
    # max |a| over each point's entries: one number per row of a batch
    return np.abs(a).reshape(P._lead + (-1,)).max(axis=-1)


def _quad(a, g, b):
    # a^T g b over the trailing axes, as (a @ g) @ b
    return np.einsum("...j,...j->...", np.einsum("...i,...ij->...j", a, g), b)


def _per_plane(a, planes):
    # the point tensor a (..., n, n) once for each of the planes (...,
    # planes, n), as a contiguous array: einsum is several times slower on
    # an operand broadcast across the planes axis
    shape = a.shape[:-2] + planes.shape[-2:-1] + a.shape[-2:]
    return np.ascontiguousarray(np.broadcast_to(a[..., None, :, :], shape))


def _plane_basis(g, u, v):
    # g-orthonormal (X, Y) spanning each plane (u, v), g (..., n, n)
    # broadcasting against u, v (..., n), and ok, False where the vectors
    # do not span a 2-plane (X and Y are finite there, and meaningless);
    # the test is on |v|^2 - <u,v>^2/|u|^2, the squared g-length of v off
    # u, which neither overflows nor underflows where g and the vectors
    # are finite, against the floor of g's own SPD test
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    nu2, nv2, uv = _quad(u, g, u), _quad(v, g, v), _quad(u, g, v)
    off = nv2 - uv * (uv / np.where(nu2 > 0.0, nu2, 1.0))
    ok = (nu2 > 0.0) & (nv2 > 0.0) & (off > SPD_EIG_FLOOR * nv2)
    X = u / np.sqrt(np.where(ok, nu2, 1.0))[..., None]
    w = v - _quad(X, g, v)[..., None] * X
    return X, w / np.sqrt(np.where(ok, _quad(w, g, w), 1.0))[..., None], ok


def _lower(g, R):
    # g_lm R^m_kij: R's first index lowered by g (..., n, n), one product per point
    return (g @ R.reshape(g.shape[:-1] + (-1,))).reshape(R.shape)


def _plane_form(P, R, X, Y):
    # g(R(X,Y)Y, X) for the curvature coefficients R[l,k,i,j] at each
    # point of P and each pair X, Y (..., planes, n): the bilinear form
    # of g_lm R^m_kij in Z = X (x) Y, Z[i,j] = X_i Y_j, one product per
    # plane, so a plane's value does not depend on the others in its stack
    n = P.n
    T = _lower(P.g_spd, R).reshape(P._lead + (1, n * n, n * n))
    Z = (X[..., :, None] * Y[..., None, :]).reshape(X.shape[:-1] + (1, n * n))
    return np.einsum("...i,...i->...", (Z @ T)[..., 0, :], Z[..., 0, :])


def _scan_term(P, X, Y):
    # the Cartan-Hadamard plane term 2 g(S(X,Y)Y, X) - Hess sigma(X,X)
    # - Hess sigma(Y,Y) on each g-orthonormal pair X, Y (..., planes, n):
    # _sectional_tilde's second route is (term - |dsigma|^2_g) / (2
    # e^sigma), independent of _plane_max's route through Rt
    H = _per_plane(P.hess_sigma, X)
    sval = _plane_form(P, P.statistical_curvature, X, Y)
    return 2.0 * sval - _quad(X, H, X) - _quad(Y, H, Y)


def sectional_tilde(M, x, plane):
    """Sectional curvature of gtilde = e^sigma g on the plane, two ways.

    Returns (direct, viaS): direct contracts riemann(LC_gTilde) against
    gtilde; viaS evaluates

        e^{-sigma} ( g(S(X,Y)Y,X) - (Hess(X,X) + Hess(Y,Y) + |dsigma|^2)/2 )

    on the g-orthonormalized pair. The two must agree; keeping both routes
    separate is the point of the check.
    """
    u, v = (np.asarray(w, dtype=float)[None] for w in plane)
    direct, via = _sectional_tilde(M.at(x), (u, v))
    return float(direct[0]), float(via[0])


def _sectional_tilde(P, planes):
    # planes is (U, V), each (..., planes, n): a stack of planes at each
    # point of P; one (direct, via) per plane
    gp = _per_plane(P.g_spd, planes[0])
    X, Y, ok = _plane_basis(gp, *planes)
    if x := P._failing(~ok.all(axis=-1)):
        raise DegeneratePlaneError(f"vectors do not span a 2-plane at {x}")
    es = P.exp_sigma[..., None]
    # with gtilde = e^sigma g the ratio is num_g / (e^sigma den_g), which
    # stays finite where e^{2 sigma} overflows
    num = _plane_form(P, P.riemann(ConnKind.LC_G_TILDE), X, Y)
    den = _quad(X, gp, X) * _quad(Y, gp, Y) - _quad(X, gp, Y) ** 2
    direct = num / (es * den)
    via = (_scan_term(P, X, Y) - P.dsigma_sq[..., None]) / (2.0 * es)
    return direct, via


def _relation_residuals(P):
    # max-norm residuals, one per point, of the identities tying R, Rbar
    # and R_g together:
    #   eq3: g(R(X,Y)Z, W) + g(Z, Rbar(X,Y)W) = 0
    #   eq4: R = R_g + alt(nabla_g K) + [K_X, K_Y]Z
    #   eq5: 2 R_g = R + Rbar - 2 [K_X, K_Y]Z
    g, gam, K = P.g, P.christoffel, P.K
    Rg = P.riemann(ConnKind.LC_G)
    R = P.riemann(ConnKind.NABLA)
    Rb = P.riemann(ConnKind.NABLA_BAR)

    KK = P._compose(K, K)
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

    low_R = _lower(g, R)
    low_Rb_swapped = P._t(_lower(g, Rb), 1, 0, 2, 3)
    return {
        "eq3": _max_abs(P, low_R + low_Rb_swapped),
        "eq4": _max_abs(P, R - Rg - alt - KK),
        "eq5": _max_abs(P, 2.0 * Rg - R - Rb + 2.0 * KK),
    }


def _pencil_eigvalsh(A, B):
    # the eigenvalues, ascending, of the symmetric-definite pencil (A, B)
    # by the Cholesky reduction B = L L^T: those of L^-1 A L^-T
    L = np.linalg.cholesky(B)
    C = np.linalg.solve(L, A)
    return np.linalg.eigvalsh(np.linalg.solve(L, np.swapaxes(C, -1, -2)))


def _plane_max(P):
    # the plane term's maximum over all planes at each point, exact for
    # n <= 3, where every 2-vector is a plane, and an upper bound for n >= 4.
    # On g-orthonormal X, Y the term is 2 g(Rt(X,Y)Y, X) + |dsigma|^2_g: Q
    # (g_lm Rt^m_kij antisymmetrized in (l, k) and (i, j), pairs a < b) on
    # X ^ Y, against g's Gram form G_(ab),(cd) = g_ac g_bd - g_ad g_bc, with
    # coordinate a scaled by 2^-k_a ~ 1/sqrt(g_aa), exactly, lest G overflow
    g = P.g_spd
    T = _lower(g, P.riemann(ConnKind.LC_G_TILDE))
    T = T - np.swapaxes(T, -4, -3)
    T = 0.25 * (T - np.swapaxes(T, -2, -1))
    a, b = np.triu_indices(P.n, 1)
    ra, rb = a[:, None], b[:, None]
    k = np.frexp(np.diagonal(g, axis1=-2, axis2=-1))[1] // 2
    h = np.ldexp(g, -k[..., :, None] - k[..., None, :])
    kp = k[..., a] + k[..., b]
    Q = np.ldexp(T[..., ra, rb, a, b], -kp[..., :, None] - kp[..., None, :])
    G = h[..., ra, a] * h[..., rb, b] - h[..., ra, b] * h[..., rb, a]
    return 2.0 * _pencil_eigvalsh(Q, G)[..., -1] + P.dsigma_sq


def _conjugate_symmetry_residual(P):
    # the eigenvalue spread of the pencil (Hess sigma, g), 0 iff Hess sigma
    # = f g at the point; the spread is invariant under shifting by
    # multiples of g, so it measures the deviation of Hess sigma from its
    # best multiple of g through g itself, with no coordinate-dependent norm
    w = _pencil_eigvalsh(P.hess_sigma, P.g_spd)
    return w[..., -1] - w[..., 0]


def _constant_curvature_terms(P, kind):
    # (g(R(di,dj)dk,dl), g_jk g_il - g_ik g_jl), both indexed [l,k,i,j]
    g = P.g_spd
    low = _lower(g, P.riemann(kind))
    W = np.einsum("...jk,...il->...lkij", g, g) - np.einsum("...ik,...jl->...lkij", g, g)
    return low, W


def constant_curvature_residual(M, x, lam, kind=ConnKind.NABLA):
    """max |g(R(di,dj)dk,dl) - lam (g_jk g_il - g_ik g_jl)| at x."""
    low, W = _constant_curvature_terms(M.at(x), kind)
    return float(np.abs(low - lam * W).max())
