"""Derived statistical structure: K, C, the four connections, volume form.

Coefficient oracles are hand-substituted from the closed forms at specific
points of the curvature-one example manifold (g = 2/(1+r^2) delta,
sigma = -log((1+r^2)/2)), where dsigma(1,0) = (-1,0) and g(1,0) = id.
"""

import json
import math

import numpy as np
import pytest

from divstat.exprcore import parse
from divstat.manifold import (
    BUILTINS,
    load_manifold,
    metric_at,
    sample_domain,
)
from divstat.statstruct import (
    ConnKind,
    _parallel_volume_residual,
    _trace_K,
    _volume_form,
    conjugate,
    connection_coeffs,
    connection_dcoeffs,
)


def test_connkind_names():
    assert ConnKind("lc") is ConnKind.LC_G
    assert ConnKind("nabla") is ConnKind.NABLA
    assert ConnKind("bar") is ConnKind.NABLA_BAR
    assert ConnKind("lc-tilde") is ConnKind.LC_G_TILDE


def test_difference_tensor_values():
    para = load_manifold("paraboloid")
    assert np.allclose(para.at((0.0, 0.0)).K, 0.0, atol=1e-15)
    K = para.at((1.0, 0.0)).K
    want = np.zeros((2, 2, 2))  # indexed [k, i, j]
    want[0, 0, 0] = 1.5
    want[0, 1, 1] = 0.5
    want[1, 0, 1] = want[1, 1, 0] = 0.5
    assert np.allclose(K, want, atol=1e-14)
    eucl = load_manifold("euclidean")
    assert np.allclose(eucl.at((2.0, -1.0)).K, 0.0, atol=0)


def test_cubic_form_values():
    para = load_manifold("paraboloid")
    C = para.at((1.0, 0.0)).cubic_form
    assert abs(C[0, 0, 0] + 3.0) < 1e-14
    assert abs(C[0, 1, 1] + 1.0) < 1e-14
    assert abs(C[0, 0, 1]) < 1e-14
    assert np.allclose(para.at((0.0, 0.0)).cubic_form, 0.0, atol=1e-15)


def _cubic_form_via_difference(P):
    """Cross-check route C_ijk = -2 g_kl K^l_ij."""
    return -2.0 * np.einsum("lij,kl->ijk", P.K, P.g_spd)


def test_cubic_form_total_symmetry_and_cross_check():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 20, seed=8):
            P = m.at(x)
            C = P.cubic_form
            for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                assert np.array_equal(C, np.transpose(C, perm)), name
            C2 = _cubic_form_via_difference(P)
            assert np.abs(C - C2).max() < 1e-12, name


def test_connection_coefficients_curvature_one_example():
    para = load_manifold("paraboloid")
    x = (1.0, 0.0)
    nab = connection_coeffs(para, x, ConnKind.NABLA)
    bar = connection_coeffs(para, x, ConnKind.NABLA_BAR)
    til = connection_coeffs(para, x, ConnKind.LC_G_TILDE)
    assert abs(nab[0, 0, 0] - 1.0) < 1e-10
    assert abs(bar[0, 0, 0] + 2.0) < 1e-10
    assert abs(til[0, 0, 0] + 1.0) < 1e-10
    # closed forms: nabla_{di} dj = 2 delta_ij/(1+r^2) (x1 d1 + x2 d2),
    # nablabar_{di} dj = -2/(1+r^2) (x^i dj + x^j di)
    want_nab = np.zeros((2, 2, 2))
    want_bar = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want_nab[k, i, j] = (i == j) * (1.0, 0.0)[k]
                want_bar[k, i, j] = -((i == 0) * (j == k) + (j == 0) * (i == k))
    assert np.allclose(nab, want_nab, atol=1e-12)
    assert np.allclose(bar, want_bar, atol=1e-12)


def test_lc_tilde_matches_conformal_metric_christoffel():
    # gtilde = e^sigma g = 4/(1+r^2)^2 delta; its Levi-Civita symbols follow
    # the conformal formula with phi = log 2 - log(1+r^2)
    para = load_manifold("paraboloid")
    for x in [(1.0, 0.0), (0.4, -0.9), (2.0, 1.0)]:
        r2 = x[0] ** 2 + x[1] ** 2
        dphi = np.array([-2 * x[0] / (1 + r2), -2 * x[1] / (1 + r2)])
        want = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    want[k, i, j] = (
                        dphi[j] * (k == i) + dphi[i] * (k == j) - dphi[k] * (i == j)
                    )
        got = connection_coeffs(para, x, ConnKind.LC_G_TILDE)
        assert np.allclose(got, want, atol=1e-12), x


def test_torsion_free_and_mean_identity():
    rng_pts = {
        name: sample_domain(load_manifold(name), 25, seed=13) for name in BUILTINS
    }
    for name, pts in rng_pts.items():
        m = load_manifold(name)
        for x in pts:
            gam = connection_coeffs(m, x, ConnKind.LC_G)
            nab = connection_coeffs(m, x, ConnKind.NABLA)
            bar = connection_coeffs(m, x, ConnKind.NABLA_BAR)
            til = connection_coeffs(m, x, ConnKind.LC_G_TILDE)
            for arr in (gam, nab, bar, til):
                assert np.array_equal(arr, arr.transpose(0, 2, 1)), name
            scale = 1.0 + np.abs(gam).max() + np.abs(nab).max()
            assert np.abs(nab + bar - 2 * gam).max() < 1e-13 * scale, name


def test_codazzi_property():
    # (nabla_k g)_ij = C_kij with nabla the K-shifted connection
    for name in BUILTINS:
        m = load_manifold(name)
        worst = 0.0
        for x in sample_domain(m, 100, seed=21):
            P = m.at(x)
            g, dg = P.g, P.dg
            nab = connection_coeffs(m, x, ConnKind.NABLA)
            C = P.cubic_form
            grad = (
                dg
                - np.einsum("lki,lj->kij", nab, g)
                - np.einsum("lkj,il->kij", nab, g)
            )
            worst = max(worst, float(np.abs(grad - C).max()))
        assert worst < 1e-9, (name, worst)


def test_duality_identity():
    # d_k g_ij = nabla^l_ki g_lj + nablabar^l_kj g_il
    for name in BUILTINS:
        m = load_manifold(name)
        worst = 0.0
        for x in sample_domain(m, 100, seed=22):
            P = m.at(x)
            g, dg = P.g, P.dg
            nab = connection_coeffs(m, x, ConnKind.NABLA)
            bar = connection_coeffs(m, x, ConnKind.NABLA_BAR)
            res = (
                dg
                - np.einsum("lki,lj->kij", nab, g)
                - np.einsum("lkj,il->kij", bar, g)
            )
            worst = max(worst, float(np.abs(res).max()))
        assert worst < 1e-9, (name, worst)


def test_conformal_projective_consistency():
    # LC(gtilde) - LC(g) = (1/2)(d^k_i ds_j + d^k_j ds_i - g_ij grad^k)
    # and LC(gtilde) - nabla = d^k_i ds_j + d^k_j ds_i
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 30, seed=23):
            P = m.at(x)
            g, ds, grad = P.g, P.dsigma, P.grad_sigma
            gam = connection_coeffs(m, x, ConnKind.LC_G)
            nab = connection_coeffs(m, x, ConnKind.NABLA)
            til = connection_coeffs(m, x, ConnKind.LC_G_TILDE)
            eye = np.eye(m.n)
            sym = np.einsum("ki,j->kij", eye, ds) + np.einsum("kj,i->kij", eye, ds)
            want_contrans = 0.5 * (sym - np.einsum("ij,k->kij", g, grad))
            assert np.abs(til - gam - want_contrans).max() < 1e-12, name
            assert np.abs(til - nab - sym).max() < 1e-12, name


def test_connection_dcoeffs_match_fd():
    h = 1e-6
    for name in ("paraboloid", "half-plane-exp"):
        m = load_manifold(name)
        for kind in ConnKind:
            for x in sample_domain(m, 5, seed=31):
                _, dgam = connection_dcoeffs(m, x, kind)
                for k in range(m.n):
                    xp = np.array(x, float)
                    xm = np.array(x, float)
                    xp[k] += h
                    xm[k] -= h
                    fd = (
                        connection_coeffs(m, xp, kind)
                        - connection_coeffs(m, xm, kind)
                    ) / (2 * h)
                    scale = 1.0 + np.abs(fd).max()
                    assert np.abs(dgam[k] - fd).max() < 5e-5 * scale, (name, kind)


def test_conjugate_swaps_connections():
    para = load_manifold("paraboloid")
    conj = conjugate(para)
    assert abs(conj.at((0.0, 0.0)).sigma + math.log(2.0)) < 1e-15
    for x in sample_domain(para, 100, seed=41):
        bar = connection_coeffs(para, x, ConnKind.NABLA_BAR)
        nab_conj = connection_coeffs(conj, x, ConnKind.NABLA)
        assert np.abs(bar - nab_conj).max() < 1e-12
    # involution
    back = conjugate(conj)
    for x in sample_domain(para, 20, seed=42):
        a = connection_coeffs(para, x, ConnKind.NABLA)
        b = connection_coeffs(back, x, ConnKind.NABLA)
        assert np.abs(a - b).max() < 1e-12
    # gtilde of the conjugate structure is flat Euclidean
    x = (0.7, -0.3)
    gt = math.exp(conj.at(x).sigma) * metric_at(conj, x)
    assert np.allclose(gt, np.eye(2), atol=1e-14)


def test_conjugate_euclidean_is_identity():
    eucl = load_manifold("euclidean")
    conj = conjugate(eucl)
    x = (1.0, 1.0)
    assert conj.at(x).sigma == 0.0
    assert np.allclose(
        connection_coeffs(conj, x, ConnKind.NABLA),
        connection_coeffs(eucl, x, ConnKind.NABLA),
        atol=0,
    )


def test_conjugate_negates_the_sigma_tree():
    for name in BUILTINS:
        m = load_manifold(name)
        assert conjugate(conjugate(m))._sigma == m._sigma, name
    base = {
        "name": "t",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "1"]],
    }
    # a top-level negation is unwrapped, not wrapped in a second one
    m = load_manifold({**base, "sigma": "-(x1^2)"})
    assert conjugate(m)._sigma == parse("x1^2", base["coords"])
    # a leading "-(" that does not enclose the whole weight
    m = load_manifold({**base, "sigma": "-(x1) + (x2)"})
    c = conjugate(m)
    for x in sample_domain(m, 10, seed=43):
        assert c.at(x).sigma == -m.at(x).sigma
    # chart names that are positional names in another order
    m = load_manifold({**base, "coords": ["x2", "x1"], "sigma": "x2 + 2*x1^2"})
    assert conjugate(m).at((0.5, 0.25)).sigma == -(0.5 + 2 * 0.25**2)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_conjugate_document_is_plain_json(name):
    conj = conjugate(load_manifold(name))
    again = load_manifold(json.loads(json.dumps(conj.doc)))
    assert again._sigma == conj._sigma


def test_document_is_kept_as_given():
    doc = json.loads(json.dumps(BUILTINS["paraboloid"]))
    m = load_manifold(doc)
    doc["sigma"] = "0"
    doc["metric"][0][0] = "1"
    doc["sample_box"][0][0] = 0.0
    assert m.doc == BUILTINS["paraboloid"]
    assert conjugate(m).doc["metric"] == BUILTINS["paraboloid"]["metric"]


def test_volume_density_values():
    para = load_manifold("paraboloid")
    assert abs(float(_volume_form(para.at((0.0, 0.0)))) - 0.5) < 1e-14
    eucl = load_manifold("euclidean")
    assert float(_volume_form(eucl.at((0.3, 0.4)))) == 1.0
    assert np.allclose(_parallel_volume_residual(eucl.at((0.3, 0.4))), 0.0, atol=0)


def test_volume_parallel_under_nabla():
    for name in BUILTINS:
        m = load_manifold(name)
        worst = 0.0
        for x in sample_domain(m, 100, seed=51):
            worst = max(worst, float(np.abs(_parallel_volume_residual(m.at(x))).max()))
        assert worst < 1e-8, (name, worst)


def test_trace_K_identity():
    para = load_manifold("paraboloid")
    assert np.allclose(_trace_K(para.at((1.0, 0.0))), (2.0, 0.0), atol=1e-12)
    half = load_manifold("half-plane-exp")
    assert np.allclose(
        _trace_K(half.at((0.0, 1.0))), (0.0, 2.0 * math.exp(-1.0)), atol=1e-12
    )
    eucl = load_manifold("euclidean")
    assert np.allclose(_trace_K(eucl.at((5.0, 5.0))), 0.0, atol=0)
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 50, seed=52):
            P = m.at(x)
            want = -(m.n + 2) / 2.0 * P.dsigma
            assert np.abs(_trace_K(P) - want).max() < 1e-10, name
