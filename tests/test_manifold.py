"""Manifold definitions and base Riemannian geometry.

Oracle values: hyperbolic half-plane closed forms, conformal-metric
Christoffel formula, and hand-substituted potential derivatives.
"""

import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from divstat import manifold
from divstat.exprcore import EvalDomainError
from divstat.manifold import (
    BUILTINS,
    ConnKind,
    DefinitionError,
    OutOfDomainError,
    hess_sigma,
    in_domain,
    laplace_sigma,
    load_manifold,
    metric_at,
    sample_domain,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_builtin_registry():
    assert set(BUILTINS) == {"euclidean", "paraboloid", "punctured-plane", "half-plane-exp"}
    for name in BUILTINS:
        m = load_manifold(name)
        assert m.n == 2
        assert len(m.coords) == 2


def test_metric_values():
    para = load_manifold("paraboloid")
    assert np.allclose(metric_at(para, (1.0, 0.0)), np.eye(2), atol=1e-14)
    assert np.allclose(metric_at(para, (0.0, 0.0)), 2.0 * np.eye(2), atol=1e-14)
    half = load_manifold("half-plane-exp")
    assert np.allclose(metric_at(half, (0.0, 2.0)), 0.25 * np.eye(2), atol=1e-14)
    punc = load_manifold("punctured-plane")
    assert np.allclose(metric_at(punc, (1.0, 0.0)), math.exp(2.0) * np.eye(2), atol=1e-12)
    eucl = load_manifold("euclidean")
    assert np.allclose(metric_at(eucl, (17.0, -4.0)), np.eye(2), atol=0)


def test_metric_inverse():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 10, seed=3):
            g = metric_at(m, x)
            gi = m.at(x).g_inv
            assert np.allclose(g @ gi, np.eye(m.n), atol=1e-13)


def test_christoffel_hyperbolic_oracle():
    # closed form for g = y^{-2} delta: nonzero symbols are
    # G^1_{12} = G^1_{21} = G^2_{22} = -1/y and G^2_{11} = 1/y
    half = load_manifold("half-plane-exp")
    for y in (1.0, 0.4, 3.7):
        gam = half.at((0.3, y)).christoffel
        want = np.zeros((2, 2, 2))
        want[0, 0, 1] = want[0, 1, 0] = -1.0 / y
        want[1, 1, 1] = -1.0 / y
        want[1, 0, 0] = 1.0 / y
        assert np.allclose(gam, want, atol=1e-12), y


def test_christoffel_conformal_oracle():
    # g = e^{2 phi} delta has G^k_{ij} = d_i phi d^k_j + d_j phi d^k_i - d_k phi d_ij;
    # paraboloid: phi = (1/2) log(2/(1+r^2)), d_i phi = -x_i/(1+r^2)
    para = load_manifold("paraboloid")
    for x in [(1.0, 0.0), (0.5, -1.2), (2.0, 2.0)]:
        r2 = x[0] ** 2 + x[1] ** 2
        dphi = np.array([-x[0] / (1 + r2), -x[1] / (1 + r2)])
        want = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    want[k, i, j] = (
                        dphi[j] * (k == i) + dphi[i] * (k == j) - dphi[k] * (i == j)
                    )
        assert np.allclose(para.at(x).christoffel, want, atol=1e-12)
    assert np.allclose(para.at((0.0, 0.0)).christoffel, 0.0, atol=1e-15)


def test_christoffel_euclidean_zero():
    eucl = load_manifold("euclidean")
    assert np.allclose(eucl.at((3.0, -5.0)).christoffel, 0.0, atol=0)


def test_sigma_derivatives_paraboloid():
    para = load_manifold("paraboloid")
    assert abs(para.at((0.0, 0.0)).sigma - math.log(2.0)) < 1e-15
    assert np.allclose(para.at((1.0, 0.0)).grad_sigma, (-1.0, 0.0), atol=1e-14)
    assert np.allclose(hess_sigma(para, (1.0, 0.0)), -0.5 * np.eye(2), atol=1e-14)
    assert abs(laplace_sigma(para, (0.0, 0.0)) + 2.0) < 1e-14
    assert abs(laplace_sigma(para, (1.0, 0.0)) + 1.0) < 1e-14


def test_sigma_derivatives_halfplane():
    half = load_manifold("half-plane-exp")
    e1 = math.exp(-1.0)
    assert np.allclose(half.at((0.0, 1.0)).grad_sigma, (0.0, -e1), atol=1e-15)
    # g^{-1} = y^2 delta scales the gradient
    assert np.allclose(half.at((0.0, 2.0)).grad_sigma, (0.0, -4.0 * math.exp(-2.0)), atol=1e-15)
    assert np.allclose(hess_sigma(half, (0.0, 1.0)), np.diag([e1, 0.0]), atol=1e-15)
    assert abs(laplace_sigma(half, (0.0, 1.0)) - e1) < 1e-15
    # Lap sigma = y^2 e^{-y}
    assert abs(laplace_sigma(half, (1.0, 3.0)) - 9.0 * math.exp(-3.0)) < 1e-14


@pytest.mark.parametrize("kind", list(ConnKind), ids=lambda k: k.value)
def test_connection_tables_take_a_kind_or_its_name(kind):
    para = load_manifold("paraboloid")
    for x in ((0.3, -0.7), (1.2, 0.4)):
        by_kind, by_name = para.at(x), para.at(x)
        for table in ("gamma", "dgamma", "riemann"):
            want = getattr(by_kind, table)(kind)
            got = getattr(by_name, table)(kind.value)
            assert np.array_equal(got, want), table
            assert getattr(by_name, table)(kind) is got  # one cache entry
    for table in ("gamma", "dgamma", "riemann"):
        with pytest.raises(ValueError):
            getattr(para.at((0.0, 0.0)), table)("nabla-hat")


def test_domain_membership():
    half = load_manifold("half-plane-exp")
    assert in_domain(half, (0.0, 0.5))
    assert not in_domain(half, (0.0, -1.0))
    assert not in_domain(half, (0.0, 0.0))
    punc = load_manifold("punctured-plane")
    assert in_domain(punc, (1.0, 0.0))
    assert not in_domain(punc, (0.0, 0.0))
    # the metric overflows doubles near the puncture: treated as outside
    assert not in_domain(punc, (0.01, 0.0))
    # a coordinate that is not finite is no point, on a chart with no
    # domain predicate as on one whose predicate and values it passes
    for M, inside in ((load_manifold("euclidean"), (0.0, 0.0)), (half, (0.0, 1.0))):
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(2):
                x = list(inside)
                x[i] = bad
                assert not in_domain(M, x)
                with pytest.raises(OutOfDomainError, match=re.escape(f"{tuple(x)} is outside")):
                    M.at(x)
                with pytest.raises(OutOfDomainError, match=re.escape(f"{tuple(x)} is outside")):
                    M.at_many([inside, x, (bad, bad)])


def test_out_of_domain_queries_fail():
    half = load_manifold("half-plane-exp")
    with pytest.raises(OutOfDomainError):
        metric_at(half, (0.0, -2.0))
    with pytest.raises(OutOfDomainError):
        half.at((1.0, 0.0)).grad_sigma


def test_load_json_document():
    doc = {
        "name": "flatlog",
        "dim": 2,
        "coords": ["u", "v"],
        "metric": [["1", "0"], ["0", "1"]],
        "sigma": "log(1 + u^2 + v^2)",
    }
    m = load_manifold(doc)
    assert m.name == "flatlog"
    assert np.allclose(metric_at(m, (0.3, 0.4)), np.eye(2), atol=0)
    # grad = d sigma since g is flat
    x = (1.0, 2.0)
    den = 1 + x[0] ** 2 + x[1] ** 2
    assert np.allclose(m.at(x).grad_sigma, (2 * x[0] / den, 2 * x[1] / den), atol=1e-15)


def test_load_json_file(tmp_path):
    doc = {
        "name": "tilted",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [["2", "x1"], ["x1", "2 + x1^2"]],
        "sigma": "0",
        "sample_box": [[-1, 1], [-1, 1]],
    }
    p = tmp_path / "tilted.json"
    p.write_text(json.dumps(doc))
    m = load_manifold(str(p))
    g = metric_at(m, (0.5, 0.0))
    assert np.allclose(g, [[2.0, 0.5], [0.5, 2.25]], atol=1e-15)


def test_builtins_are_shared_and_documents_are_not(tmp_path):
    # a built-in name gives one definition per process; a dict, even the
    # built-in's own, and a file give a new one on every call
    for name in BUILTINS:
        assert load_manifold(name) is load_manifold(name)
        assert load_manifold(BUILTINS[name]) is not load_manifold(BUILTINS[name])
        assert load_manifold(BUILTINS[name]) is not load_manifold(name)
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(BUILTINS["euclidean"]))
    assert load_manifold(str(p)) is not load_manifold(str(p))


def test_concurrent_first_uses_of_a_builtin_agree_with_a_fresh_load():
    # threads that load and first evaluate the built-ins at once, with a
    # short switch interval, read what a definition of their own gives
    xs = np.array([(0.5, 1.0), (1.0, 0.5), (-0.7, 1.3)])

    def values(M):
        P = M.at_many(xs)
        return [P.g, P.dg, P.d2g, P.dsigma, P.d2sigma, P.riemann(ConnKind.NABLA)] + [
            np.array(M.spray(kind)((0.5, 1.0, 0.2, 0.1))) for kind in ConnKind]

    names = list(BUILTINS) * 4
    want = {name: values(load_manifold(dict(BUILTINS[name]))) for name in BUILTINS}
    manifold._builtin.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(lambda n=name: values(load_manifold(n))) for name in names]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for name, arrays in zip(names, got):
        for a, b in zip(arrays, want[name]):
            np.testing.assert_array_equal(a, b, err_msg=name)
    assert all(load_manifold(name) is load_manifold(name) for name in BUILTINS)


def test_load_rejects_bad_documents():
    base = {
        "name": "t",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "1"]],
        "sigma": "0",
    }
    with pytest.raises(DefinitionError):
        load_manifold({**base, "dim": 1, "coords": ["x1"], "metric": [["1"]]})
    with pytest.raises(DefinitionError):
        load_manifold({**base, "metric": [["1", "0"]]})  # row count
    with pytest.raises(DefinitionError):
        load_manifold({**base, "metric": [["1", "x1"], ["1", "1"]]})  # asymmetric
    with pytest.raises(DefinitionError):
        load_manifold({**base, "coords": ["x1", "x1"]})  # duplicate names
    no_sigma = {k: v for k, v in base.items() if k != "sigma"}
    with pytest.raises(DefinitionError):
        load_manifold(no_sigma)
    with pytest.raises(DefinitionError):
        load_manifold("nosuch-manifold")


def test_load_rejects_bad_sample_guard():
    # a guard that does not parse is a bad document, like a bad domain
    doc = {
        "name": "t",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "1"]],
        "sigma": "0",
        "sample_guard": "tanh(x1) > 0",
    }
    with pytest.raises(DefinitionError, match="sample_guard"):
        load_manifold(doc)


def test_domain_parse_errors_name_offsets_in_the_whole_predicate():
    base = {
        "name": "t",
        "dim": 2,
        "coords": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "1"]],
        "sigma": "0",
    }
    cases = [
        ("x2 > 0 and x1 < foo", "unknown identifier 'foo' (offset 17)"),
        ("x2 > 0 or bar < x1", "unknown identifier 'bar' (offset 11)"),
        ("x2 > 0 and x1", "domain predicate chunk 'x1' has no comparison (offset 12)"),
    ]
    for pred, msg in cases:
        with pytest.raises(DefinitionError) as ei:
            load_manifold({**base, "domain": pred})
        assert str(ei.value) == f"t: domain: {msg}"
        with pytest.raises(DefinitionError) as ei:
            load_manifold({**base, "sample_guard": pred})
        assert str(ei.value) == f"t: sample_guard: {msg}"


def test_load_rejects_indefinite_metric():
    # the SPD test reads g scaled to unit diagonal: c g, and g with one
    # coordinate rescaled, get the verdict g gets, however small or large
    # c is
    for c in ("1e-13", "1", "1e13"):
        doc = {
            "name": "bad",
            "dim": 2,
            "coords": ["x1", "x2"],
            "metric": [[c, "0"], ["0", f"-{c}"]],
            "sigma": "0",
        }
        with pytest.raises(DefinitionError) as ei:
            load_manifold(doc)
        assert str(ei.value) == (
            "bad: metric not SPD at (-0.6816920285312484, -0.3625406643531197)"
        ), c
        M = load_manifold(dict(doc, name="good", metric=[[c, "0"], ["0", c]]))
        assert np.array_equal(metric_at(M, (0.1, 0.2)), float(c) * np.eye(2)), c
        M = load_manifold(dict(doc, name="good", metric=[[c, "0"], ["0", "1"]]))
        assert np.array_equal(metric_at(M, (0.1, 0.2)), np.diag([float(c), 1.0])), c


def test_readme_spd_floor_matches_the_code():
    text = " ".join(README.read_text().split())
    floor = re.search(r"smallest eigenvalue is at most `([^`]+)` times", text).group(1)
    assert float(floor) == manifold.SPD_EIG_FLOOR


def test_domain_predicate_from_json():
    doc = {
        "name": "strip",
        "dim": 2,
        "coords": ["x1", "x2"],
        "domain": "x2 > 0 and x2 < 1",
        "metric": [["1", "0"], ["0", "1"]],
        "sigma": "x2",
        "sample_box": [[-1, 1], [0.01, 0.99]],
    }
    m = load_manifold(doc)
    assert in_domain(m, (0.0, 0.5))
    assert not in_domain(m, (0.0, 1.5))
    assert not in_domain(m, (0.0, -0.5))


def test_sample_domain_deterministic():
    punc = load_manifold("punctured-plane")
    # a count or a seed is refused here, naming it, not inside numpy
    for bad, message in ((2.5, "count must be an integer, got 2.5"),
                         ("3", "count must be an integer, got '3'"),
                         (True, "count must be an integer, got True"),
                         (-1, "count must be at least 0")):
        with pytest.raises(ValueError) as info:
            sample_domain(punc, bad, seed=42)
        assert str(info.value) == message
    for bad in (-1, 2.5):
        with pytest.raises(ValueError) as info:
            sample_domain(punc, 3, seed=bad)
        assert str(info.value) == f"seed must be a non-negative integer, got {bad!r}"
    a = sample_domain(punc, 25, seed=42)
    b = sample_domain(punc, 25, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (25, 2)
    r = np.hypot(a[:, 0], a[:, 1])
    assert (r > 0.1).all()  # guarded away from the overflow wall
    for x in a:
        assert in_domain(punc, x)


def test_sample_domain_refuses_a_bool_seed():
    # True is an integer to operator.index, but no seed here, as it is no count
    punc = load_manifold("punctured-plane")
    with pytest.raises(ValueError) as info:
        sample_domain(punc, 3, seed=True)
    assert str(info.value) == "seed must be a non-negative integer, got True"


def _sample_domain_by_points(M, count, seed):
    # the scalar reference: one draw at a time through in_domain and the
    # guard, a guard that cannot be evaluated meaning False
    rng = np.random.default_rng(seed)
    lo, hi = M.sample_box[:, 0], M.sample_box[:, 1]
    out, attempts, limit = [], 0, 200 * count + 1000
    while len(out) < count:
        if attempts >= limit:
            raise DefinitionError(
                f"{M.name}: could not draw {count} in-domain samples "
                f"({len(out)} found in {attempts} attempts)")
        batch = rng.uniform(lo, hi, size=(min(count, 64), M.n))
        attempts += len(batch)
        for x in batch:
            tx = tuple(x.tolist())
            ok = in_domain(M, tx)
            if ok and M.sample_guard is not None:
                try:
                    ok = M.sample_guard(tx)
                except EvalDomainError:
                    ok = False
            if ok:
                out.append(x)
                if len(out) == count:
                    break
    return np.asarray(out)


_PLANE = {"name": "guarded", "dim": 2, "coords": ["x1", "x2"],
          "metric": [["1", "0"], ["0", "1"]], "sigma": "0.1*x1"}


@pytest.mark.parametrize("doc", [
    *BUILTINS,
    # the `or` side overflows where the first side is false
    dict(_PLANE, sample_guard="x1 > 0.3 or exp(800*x2) > 5"),
    # a second side that overflows on nearly every draw: numpy flags each
    # batch, and the rows it rejects are decided one by one
    dict(_PLANE, sample_guard="x2 > 0 or x1 * 1e300 * 1e10 < 1"),
    # a guard that cannot be evaluated on half the box
    dict(_PLANE, domain="x1^2 + x2^2 > 0.04", sample_guard="log(x1) < -0.5 or x2 > 0.5"),
])
def test_sample_domain_matches_the_scalar_loop(doc):
    m = load_manifold(doc)
    for seed in range(4):
        for count in (1, 32, 100):
            got = sample_domain(m, count, seed=seed)
            want = _sample_domain_by_points(m, count, seed)
            assert got.shape == want.shape == (count, 2)
            assert got.tobytes() == want.tobytes(), (doc, seed, count)


def test_sample_domain_limit_message():
    m = load_manifold(dict(_PLANE, sample_guard="x1 > 2 or log(x1 - 0.5) > 9",
                           sample_box=[[2, 3], [-1, 1]]))
    # a box where the guard holds on no draw and cannot be evaluated on
    # half of them: loading would have refused it
    m.sample_box = np.array([[0.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(DefinitionError) as got:
        sample_domain(m, 5, seed=1)
    with pytest.raises(DefinitionError) as want:
        _sample_domain_by_points(m, 5, 1)
    assert str(got.value) == str(want.value)
    assert "attempts" in str(got.value)


def test_metric_compatibility_invariant():
    # d_k g_ij = G^l_{ki} g_lj + G^l_{kj} g_il for the Levi-Civita connection
    for name in BUILTINS:
        m = load_manifold(name)
        worst = 0.0
        for x in sample_domain(m, 100, seed=11):
            P = m.at(x)
            gam, g, dg = P.christoffel, P.g, P.dg
            res = (
                dg
                - np.einsum("lki,lj->kij", gam, g)
                - np.einsum("lkj,il->kij", gam, g)
            )
            worst = max(worst, float(np.abs(res).max()))
        assert worst < 1e-9, name


def test_metric_jet_matches_fd():
    # the symbolic first derivatives against central differences
    h = 1e-6
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 10, seed=11):
            dg = m.at(x).dg
            for k in range(m.n):
                xp = np.array(x, float)
                xm = np.array(x, float)
                xp[k] += h
                xm[k] -= h
                fd = (metric_at(m, xp) - metric_at(m, xm)) / (2 * h)
                scale = 1.0 + float(np.abs(fd).max())
                assert np.abs(dg[k] - fd).max() < 5e-5 * scale, (name, k)


def test_hessian_symmetry_and_trace():
    for name in BUILTINS:
        m = load_manifold(name)
        for x in sample_domain(m, 20, seed=5):
            hess = hess_sigma(m, x)
            assert np.array_equal(hess, hess.T)
            gi = m.at(x).g_inv
            assert laplace_sigma(m, x) == float(np.einsum("ij,ij->", gi, hess))


def test_hessian_matches_fd_of_dsigma():
    # independent check: FD of the coordinate dsigma corrected by Gamma
    h = 1e-5
    for name in ("paraboloid", "half-plane-exp"):
        m = load_manifold(name)
        for x in sample_domain(m, 10, seed=9):
            P = m.at(x)
            gam, g = P.christoffel, P.g_spd
            ds = g @ P.grad_sigma  # lower the index back to dsigma
            fd = np.zeros((m.n, m.n))
            for i in range(m.n):
                xp = np.array(x, float)
                xm = np.array(x, float)
                xp[i] += h
                xm[i] -= h
                dsp = metric_at(m, xp) @ m.at(xp).grad_sigma
                dsm = metric_at(m, xm) @ m.at(xm).grad_sigma
                fd[i] = (dsp - dsm) / (2 * h)
            want = fd - np.einsum("kij,k->ij", gam, ds)
            assert np.allclose(hess_sigma(m, x), want, atol=1e-6)


def test_custom_coordinate_names():
    doc = {
        "name": "polarish",
        "dim": 2,
        "coords": ["r", "t"],
        "domain": "r > 0",
        "metric": [["1", "0"], ["0", "r^2"]],
        "sigma": "-log(r)",
        "sample_box": [[0.5, 2.0], [-3.0, 3.0]],
    }
    m = load_manifold(doc)
    assert np.allclose(metric_at(m, (2.0, 1.0)), np.diag([1.0, 4.0]), atol=0)
    assert np.allclose(m.at((2.0, 0.0)).grad_sigma, (-0.5, 0.0), atol=1e-15)
