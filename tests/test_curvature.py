"""Curvature of the four connections and the structural identities tying them.

Numeric oracles frozen from independent closed forms:
  - hyperbolic half-plane metric has k = -1
  - half-plane-exp S-sectional at (0,1) is k_g + |ds|^2/2 = -1 + e^-2/2
  - gtilde of half-plane-exp is e^{2phi} delta with 2phi = e^-y - 2 log y, so
    its Gauss curvature at (0,1) is -e^{-(e^-1)}(e^-1/2 + 1) = -0.8195238175771377
  - Ricci closed form at half-plane-exp (0,1): diag(-1 + e^-1/2 + e^-2/2,
    -1 - e^-1/2 + e^-2/2)
"""

import math
from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from divstat.analyze import _coordinate_planes, hadamard2d_scan
from divstat.curvature import (
    DegeneratePlaneError,
    _conjugate_symmetry_residual,
    _lower as _lower_batched,
    _per_plane,
    _plane_basis,
    _plane_form,
    _quad,
    _relation_residuals,
    _sectional_tilde,
    constant_curvature_residual,
    ricci,
    sectional_tilde,
)
from divstat.manifold import (
    BUILTINS,
    SPD_EIG_FLOOR,
    OutOfDomainError,
    PointGeometry,
    load_manifold,
    metric_at,
    sample_domain,
)
from divstat.statstruct import ConnKind

S_SEC_HALF = -0.9323323583816936
TILDE_SEC_HALF = -0.8195238175771377
RIC_HALF_11 = -0.7483926377959724
RIC_HALF_22 = -1.1162720789674148


def _lower(g, R):
    # Rlow[l,k,i,j] = g(R(di,dj)dk, dl)
    return np.einsum("lm,mkij->lkij", g, R)


def _sec(M, x, kind, u, v):
    g = metric_at(M, x)
    R = M.at(x).riemann(kind)
    num = float(np.einsum("lm,mkij,i,j,k,l->", g, R, u, v, v, u))
    den = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    return num / den


def test_euclidean_flat_all_kinds():
    eucl = load_manifold("euclidean")
    for kind in ConnKind:
        R = eucl.at((0.7, -2.1)).riemann(kind)
        assert np.array_equal(R, np.zeros((2, 2, 2, 2)))
        assert np.array_equal(ricci(eucl, (0.7, -2.1), kind), np.zeros((2, 2)))


def test_antisymmetry_exact():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 10, seed=61):
            for kind in ConnKind:
                R = m.at(x).riemann(kind)
                assert np.array_equal(R, -R.transpose(0, 1, 3, 2)), (name, kind)


def test_paraboloid_nabla_is_constant_curvature_one():
    para = load_manifold("paraboloid")
    x = (1.0, 0.0)
    g = metric_at(para, x)
    Rlow = _lower(g, para.at(x).riemann(ConnKind.NABLA))
    # g(R(d1,d2)d2,d1) = det g = 1 at this point
    assert abs(Rlow[0, 1, 0, 1] - 1.0) < 1e-10
    for x in sample_domain(para, 30, seed=62):
        assert constant_curvature_residual(para, x, 1.0) < 1e-8
        assert constant_curvature_residual(para, x, 1.0, kind=ConnKind.NABLA_BAR) < 1e-8


def test_halfplane_hyperbolic_sectional():
    half = load_manifold("half-plane-exp")
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    for x in [(0.0, 1.0), (2.0, 0.5), (-3.0, 4.0)]:
        assert abs(_sec(half, x, ConnKind.LC_G, u, v) + 1.0) < 1e-10


def test_ricci_reference_values():
    para = load_manifold("paraboloid")
    assert np.allclose(ricci(para, (1.0, 0.0), ConnKind.NABLA), np.eye(2), atol=1e-10)
    for x in sample_domain(para, 20, seed=63):
        g = metric_at(para, x)
        assert np.abs(ricci(para, x, ConnKind.NABLA) - g).max() < 1e-9
        assert np.abs(ricci(para, x, ConnKind.NABLA_BAR) - g).max() < 1e-9
    assert np.allclose(
        ricci(para, (0.0, 0.0), ConnKind.NABLA_BAR), 2.0 * np.eye(2), atol=1e-10
    )
    half = load_manifold("half-plane-exp")
    # hyperbolic plane: Ric(LC_g) = -g
    for x in [(0.0, 1.0), (1.0, 2.0)]:
        g = metric_at(half, x)
        assert np.abs(ricci(half, x, ConnKind.LC_G) + g).max() < 1e-10
    got = ricci(half, (0.0, 1.0), ConnKind.NABLA)
    assert abs(got[0, 0] - RIC_HALF_11) < 1e-12
    assert abs(got[1, 1] - RIC_HALF_22) < 1e-12
    assert abs(got[0, 1]) < 1e-12


def test_ricci_nabla_symmetric():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 50, seed=64):
            r = ricci(m, x, ConnKind.NABLA)
            assert np.abs(r - r.T).max() < 1e-9, name


def _gram_schmidt(g):
    # rows are a g-orthonormal frame: Gram-Schmidt on the coordinate frame
    basis = []
    for v in np.eye(g.shape[0]):
        for u in basis:
            v = v - float(u @ g @ v) * u
        basis.append(v / math.sqrt(v @ g @ v))
    return np.array(basis)


def test_ricci_matches_its_frame_definition():
    # Ric_jk = sum_i g(R(e_i, d_j) d_k, e_i) over a g-orthonormal frame e_i
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 10, seed=66):
            g = metric_at(m, x)
            E = _gram_schmidt(g)
            for kind in ConnKind:
                R = m.at(x).riemann(kind)
                want = np.einsum("ia,lkaj,lm,im->jk", E, R, g, E)
                got = ricci(m, x, kind)
                tol = 1e-12 * (1.0 + np.abs(got).max())
                assert np.abs(got - want).max() <= tol, (name, kind, x)


def test_ricci_outside_the_spd_region_fails():
    # g is positive definite on the sample box only; x1 < 0 is in the chart
    m = load_manifold({
        "name": "t",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "x1"]],
        "sigma": "x2",
        "sample_box": [[0.5, 1.0], [-1.0, 1.0]],
    })
    x = (-1.0, 0.0)
    with pytest.raises(OutOfDomainError):
        ricci(m, x, ConnKind.NABLA)
    with pytest.raises(OutOfDomainError):
        hadamard2d_scan(m, [x])


def test_statistical_curvature_basics():
    para = load_manifold("paraboloid")
    for x in sample_domain(para, 25, seed=65):
        P = para.at(x)
        S = P.statistical_curvature
        R = P.riemann(ConnKind.NABLA)
        Rb = P.riemann(ConnKind.NABLA_BAR)
        assert np.array_equal(S, 0.5 * (R + Rb))
        # conjugate symmetric manifold: R = Rbar = S
        assert np.abs(S - R).max() < 1e-9
    half = load_manifold("half-plane-exp")
    x = (0.0, 1.0)
    g = metric_at(half, x)  # identity here, coordinate frame is orthonormal
    S = half.at(x).statistical_curvature
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    val = float(np.einsum("lm,mkij,i,j,k,l->", g, S, u, v, v, u))
    assert abs(val - S_SEC_HALF) < 1e-12


def test_2d_sectional_of_S_identity():
    # for g-orthonormal X, Y in dimension 2: g(S(X,Y)Y,X) = k_g + |dsigma|^2/2
    rng = np.random.default_rng(66)
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 25, seed=67):
            g = metric_at(m, x)
            ds = m.at(x).dsigma
            n2 = float(ds @ np.linalg.solve(g, ds))
            u, v = rng.standard_normal((2, 2))
            kg = _sec(m, x, ConnKind.LC_G, u, v)
            S = m.at(x).statistical_curvature
            # orthonormalize the pair for the S side
            u1 = u / math.sqrt(u @ g @ u)
            w = v - (u1 @ g @ v) * u1
            v1 = w / math.sqrt(w @ g @ w)
            val = float(np.einsum("lm,mkij,i,j,k,l->", g, S, u1, v1, v1, u1))
            assert abs(val - (kg + 0.5 * n2)) < 1e-8, name


def test_sectional_tilde_agreement_and_oracles():
    rng = np.random.default_rng(68)
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 50, seed=69):
            plane = rng.standard_normal((2, 2))
            direct, via = sectional_tilde(m, x, plane)
            assert abs(direct - via) < 1e-7, (name, x)
    para = load_manifold("paraboloid")
    for x in sample_domain(para, 20, seed=70):
        direct, via = sectional_tilde(para, x, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        assert abs(direct - 1.0) < 1e-6
    half = load_manifold("half-plane-exp")
    direct, via = sectional_tilde(
        half, (0.0, 1.0), (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    )
    assert abs(direct - TILDE_SEC_HALF) < 1e-9
    assert abs(via - TILDE_SEC_HALF) < 1e-9
    punc = load_manifold("punctured-plane")
    for x in [(1.0, 0.0), (0.0, -1.2), (1.1, 0.9)]:
        direct, via = sectional_tilde(punc, x, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        assert abs(direct) < 1e-9 and abs(via) < 1e-9
    eucl = load_manifold("euclidean")
    direct, via = sectional_tilde(eucl, (0.3, 0.4), (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert direct == 0.0 and via == 0.0


def test_sectional_tilde_where_the_square_of_the_weight_overflows():
    # at (1.8, 0) e^sigma = e^360 is finite and e^{2 sigma} is not; in 2-D
    # gtilde = e^sigma delta has Gauss curvature -e^{-sigma} laplace(sigma)/2,
    # and laplace(sigma) = 2 here
    steep = load_manifold(dict(BUILTINS["euclidean"], name="steep",
                               sigma="200*x1 + x2^2", sample_box=[[1, 2], [-1, 1]]))
    direct, via = sectional_tilde(steep, (1.8, 0.0), (np.array([1.0, 0.0]), np.array([0.3, 1.0])))
    want = -math.exp(-360.0)
    assert abs(direct / want - 1.0) < 1e-12
    assert abs(via / want - 1.0) < 1e-12


def test_sectional_tilde_rejects_degenerate_plane():
    para = load_manifold("paraboloid")
    with pytest.raises(DegeneratePlaneError):
        sectional_tilde(para, (0.5, 0.5), (np.array([1.0, 2.0]), np.array([-2.0, -4.0])))


def test_curvature_relation_residuals():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 100, seed=71):
            res = _relation_residuals(m.at(x))
            assert res["eq3"] < 1e-8, (name, x, res)
            assert res["eq4"] < 1e-8, (name, x, res)
            assert res["eq5"] < 1e-8, (name, x, res)
    eucl = load_manifold("euclidean")
    res = _relation_residuals(eucl.at((1.0, 1.0)))
    assert res["eq3"] == res["eq4"] == res["eq5"] == 0.0
    para = load_manifold("paraboloid")
    assert _relation_residuals(para.at((1.0, 0.0)))["eq3"] < 1e-10


def test_conjugate_symmetry_residual():
    para = load_manifold("paraboloid")
    for x in sample_domain(para, 30, seed=72):
        P = para.at(x)
        assert _conjugate_symmetry_residual(P) < 1e-9
        R = P.riemann(ConnKind.NABLA)
        Rb = P.riemann(ConnKind.NABLA_BAR)
        assert np.abs(R - Rb).max() < 1e-8
    eucl = load_manifold("euclidean")
    assert _conjugate_symmetry_residual(eucl.at((0.0, 0.0))) == 0.0
    half = load_manifold("half-plane-exp")
    got = _conjugate_symmetry_residual(half.at((0.0, 1.0)))
    assert abs(got - math.exp(-1.0)) < 1e-12


_SKEW_3D = {
    "name": "skew-3d", "dim": 3, "coords": ["x1", "x2", "x3"],
    "metric": [["2 + x1^2", "0.3*x2", "0.1*x3"],
               ["0.3*x2", "1 + x2^2", "0.2*sin(x1)"],
               ["0.1*x3", "0.2*sin(x1)", "1.5 + x3^2"]],
    "sigma": "sin(x1) + x2*x3",
}


@pytest.mark.parametrize("doc", sorted(BUILTINS) + [_SKEW_3D],
                         ids=lambda d: d if isinstance(d, str) else d["name"])
def test_sectional_tilde_on_a_stack_of_planes_is_one_call_per_plane(doc):
    # the coordinate planes as one stack give, bit for bit, what one call
    # per plane gives, at one point and over a batch of rows
    M = load_manifold(doc)
    U, V = _coordinate_planes(M.n)
    xs = sample_domain(M, 20, seed=75)
    for P in [M.at(x) for x in xs] + [M.at_many(xs)]:
        direct, via = _sectional_tilde(P, (U, V))
        assert direct.shape == via.shape == P._lead + (len(U),)
        for k in range(len(U)):
            d1, v1 = _sectional_tilde(P, (U[k:k + 1], V[k:k + 1]))
            assert np.array_equal(direct[..., k], d1[..., 0]), (M.name, k)
            assert np.array_equal(via[..., k], v1[..., 0]), (M.name, k)


@pytest.mark.parametrize("doc", sorted(BUILTINS) + [_SKEW_3D],
                         ids=lambda d: d if isinstance(d, str) else d["name"])
def test_conjugate_symmetry_residual_matches_scipy_eigh(doc):
    # scipy's generalized symmetric eigensolver is the reference for the
    # Cholesky reduction; skew-3d has off-diagonal entries in g everywhere
    M = load_manifold(doc)
    for x in sample_domain(M, 50, seed=19):
        P = M.at(x)
        w = scipy.linalg.eigh(P.hess_sigma, P.g_spd, eigvals_only=True)
        got = _conjugate_symmetry_residual(P)
        assert abs(got - (w[-1] - w[0])) <= 1e-15 * (1.0 + np.abs(w).max()), x


def test_constant_curvature_residual_values():
    para = load_manifold("paraboloid")
    assert abs(constant_curvature_residual(para, (0.0, 0.0), 0.0) - 4.0) < 1e-12
    eucl = load_manifold("euclidean")
    assert constant_curvature_residual(eucl, (2.0, 2.0), 0.0) == 0.0
    half = load_manifold("half-plane-exp")
    # LC_g of the hyperbolic metric has constant curvature -1
    for x in [(0.0, 1.0), (1.0, 3.0)]:
        assert constant_curvature_residual(half, x, -1.0, kind=ConnKind.LC_G) < 1e-10


def test_first_bianchi():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 30, seed=73):
            for kind in ConnKind:
                R = m.at(x).riemann(kind)
                # R[l,k,i,j]: slots are R(di,dj)dk; cyclic sum over (i,j,k)
                cyc = (
                    R
                    + R.transpose(0, 3, 1, 2)
                    + R.transpose(0, 2, 3, 1)
                )
                assert np.abs(cyc).max() < 1e-8, (name, kind)


def _closed_form_residuals(M, x):
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
    n2 = P.dsigma_sq
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

    want_ric = (
        P.ricci(ConnKind.LC_G)
        + 0.5 * (n * H - lap * g)
        + 0.25 * ((n - 2) * np.outer(ds, ds) + n * n2 * g)
    )
    return {
        "riemann": float(np.abs(R - want_R).max()),
        "ricci": float(np.abs(P.ricci(ConnKind.NABLA) - want_ric).max()),
    }


def test_closed_form_cross_checks():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 50, seed=74):
            res = _closed_form_residuals(m, x)
            assert res["riemann"] < 1e-8, (name, x)
            assert res["ricci"] < 1e-8, (name, x)


def test_plane_test_does_not_depend_on_the_scale_of_g():
    # the test once multiplied |u|^2 |v|^2, which overflows for g about
    # 1e241 and underflows for 1e-200 while g and the vectors are finite
    u = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 1.0], [0.0, 0.0], [3.0, -1.0]])
    v = np.array([[0.3, 2.0], [-2.0, -4.0], [1.0, 1.0 + 1e-6], [1.0, 0.0], [0.0, 0.0]])
    want = np.array([True, False, False, False, False])
    X1, Y1, _ = _plane_basis(np.eye(2), u, v)
    for c in (1e-300, 1e-200, 1.0, 1e241, 1e300):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            X, Y, ok = _plane_basis(c * np.eye(2), u, v)
        assert np.array_equal(ok, want), c
        # X and Y are g-unit: c^(1/2) times them is the basis for c = 1
        assert np.abs(X[ok] * math.sqrt(c) - X1[ok]).max() <= 1e-15, c
        assert np.abs(Y[ok] * math.sqrt(c) - Y1[ok]).max() <= 1e-15, c


@cache
def _flat(n):
    return load_manifold({
        "name": f"flat-{n}", "dim": n, "coords": [f"x{i + 1}" for i in range(n)],
        "metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)], "sigma": "0",
    })


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), excess=st.floats(1.001, 2.0),
       exponents=st.lists(st.floats(-8.0, 8.0), min_size=4, max_size=4))
def test_coordinate_planes_span_wherever_g_passes(n, seed, excess, exponents):
    # B = C - s I for a random unit-diagonal SPD C keeps a uniform diagonal,
    # so B's eigenvalue ratio is its unit-diagonal scaling's; s sets that
    # ratio to the floor times excess (B's smallest eigenvalue is set, not
    # computed, so no cancellation enters), and g = T B T for a diagonal T
    # of 10^exponents.  g passes its SPD test and every coordinate plane
    # spans; the ratio the floor divided by excess fails, at every scale
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (Q * rng.uniform(0.1, 1.0, n)) @ Q.T
    r = np.sqrt(np.diag(A))
    lam, V = np.linalg.eigh(A / r[:, None] / r[None, :])
    t = 10.0 ** np.array(exponents[:n])
    E, F = _coordinate_planes(n)
    for ratio in (SPD_EIG_FLOOR * excess, SPD_EIG_FLOOR / excess):
        s = (lam[0] - ratio * lam[-1]) / (1.0 - ratio)
        mu = lam - s
        mu[0] = ratio * mu[-1]
        B = (V * mu) @ V.T
        g = (B + B.T) / 2.0 * t[:, None] * t[None, :]
        P = PointGeometry(_flat(n), (0.0,) * n, g, 0.0)
        if ratio < SPD_EIG_FLOOR:
            with pytest.raises(OutOfDomainError, match="metric not SPD"):
                P.g_spd
            continue
        assert P.g_spd is g
        assert _plane_basis(g, E, F)[2].all()


# the einsums that the batched products replaced, as references: each
# rewritten contraction agrees with its einsum to 1e-14 of the same
# contraction on absolute values, which bounds the rounding of either

def _agree(got, ref, ref_abs):
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= 1e-14 * ref_abs).all(), np.abs(got - ref).max()


def _ref_plane_form(g, R, X, Y):
    return np.einsum("...lm,...mkij,...pi,...pj,...pk,...pl->...p", g, R, X, Y, Y, X)


@pytest.mark.parametrize("doc", sorted(BUILTINS) + [_SKEW_3D],
                         ids=lambda d: d if isinstance(d, str) else d["name"])
def test_rewritten_contractions_match_their_einsums(doc):
    M = load_manifold(doc)
    n = M.n
    xs = sample_domain(M, 12, seed=41)
    # one point, a single row, and a batch of rows
    for P in [M.at(xs[0]), M.at_many(xs[:1]), M.at_many(xs)]:
        a = np.abs
        gi = P.g_inv
        _agree(P.dg_inv, -np.einsum("...ka,...mab,...bl->...mkl", gi, P.dg, gi),
               np.einsum("...ka,...mab,...bl->...mkl", a(gi), a(P.dg), a(gi)))
        ref = "...lim,...mjk->...lkij"
        for kind in ConnKind:
            gam = P.gamma(kind)
            _agree(P._compose(gam, gam), np.einsum(ref, gam, gam),
                   np.einsum(ref, a(gam), a(gam)))
            R = P.riemann(kind)
            _agree(_lower_batched(P.g, R), np.einsum("...lm,...mkij->...lkij", P.g, R),
                   np.einsum("...lm,...mkij->...lkij", a(P.g), a(R)))
        _agree(P._compose(P.K, P.K), np.einsum(ref, P.K, P.K),
               np.einsum(ref, a(P.K), a(P.K)))
        # the coordinate planes alone, then with three random planes
        E, F = _coordinate_planes(n)
        shape = P._lead + E.shape
        draws = np.random.default_rng(3).standard_normal(P._lead + (3, n, 2))
        for U, V in [
            (np.broadcast_to(E, shape), np.broadcast_to(F, shape)),
            (np.concatenate([np.broadcast_to(E, shape), draws[..., 0]], axis=-2),
             np.concatenate([np.broadcast_to(F, shape), draws[..., 1]], axis=-2)),
        ]:
            gp = _per_plane(P.g_spd, U)
            X, Y, ok = _plane_basis(gp, U, V)
            assert ok.all()
            H = P.hess_sigma[..., None, :, :]
            _agree(_quad(X, _per_plane(P.hess_sigma, X), Y), _quad(X, H, Y),
                   _quad(a(X), a(H), a(Y)))
            for R in (P.statistical_curvature, P.riemann(ConnKind.LC_G_TILDE)):
                _agree(_plane_form(P, R, X, Y), _ref_plane_form(P.g, R, X, Y),
                       _ref_plane_form(a(P.g), a(R), a(X), a(Y)))
