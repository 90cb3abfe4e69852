"""``pitomo._lapack`` loads scipy's own compiled LAPACK and BLAS routines:
each gives the result of its ``scipy.linalg.lapack``/``blas`` namesake bit
for bit, called the way ``src/`` calls it."""

import importlib

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack

import pitomo._lapack as own
from pitomo.reconstruct import BlockFactors

reconstruct_module = importlib.import_module("pitomo.reconstruct")


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def test_potrf_potrs_in_place_on_the_transposed_buffer():
    # as NewtonSystem: W C-ordered, factored as the Fortran-ordered W.T
    # in place, then solved against a fresh right-hand side
    rng = np.random.default_rng(0)
    a, g = spd(rng, 37), rng.normal(size=37)
    outs = []
    for module in (own, lapack):
        W = a.copy()
        c, info = module.dpotrf(W.T, lower=1, clean=0, overwrite_a=1)
        assert info == 0 and np.shares_memory(c, W)
        x, info = module.dpotrs(c, -g, lower=1)
        assert info == 0
        outs.append((W, x))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_cho_factor_and_solve_match_scipy():
    rng = np.random.default_rng(1)
    a, g = spd(rng, 29), rng.normal(size=29)
    W, V = a.copy(), a.copy()
    factor = reconstruct_module.cho_factor(W.T)
    expected = scipy.linalg.cho_factor(V.T, lower=True, overwrite_a=True, check_finite=False)
    assert factor[1] is True and np.array_equal(factor[0], expected[0])
    assert np.array_equal(W, V)
    assert np.array_equal(reconstruct_module.cho_solve(factor, -g),
                          scipy.linalg.cho_solve(expected, -g, check_finite=False))


def test_cho_factor_raises_on_an_indefinite_matrix():
    a = np.diag([2.0, 1.0, -1.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf"):
        reconstruct_module.cho_factor(np.asfortranarray(a))


def test_ztrtri_on_a_complex_lower_factor():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    L = np.linalg.cholesky(z @ z.conj().T + np.eye(6))
    ours, info = own.ztrtri(L, lower=1)
    theirs, their_info = lapack.ztrtri(L, lower=1)
    assert info == their_info == 0
    assert np.array_equal(ours, theirs)


def test_inverse_factor_raises_on_a_singular_factor():
    chol = np.eye(3, dtype=complex)[None].copy()
    chol[0, 1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="ztrtri"):
        BlockFactors(chol, np.zeros(0), 0.0).inv_l


def test_geqrf_then_orgqr():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(15, 6))
    outs = []
    for module in (own, lapack):
        qr, tau, _, info = module.dgeqrf(np.asfortranarray(mat), lwork=64 * 6, overwrite_a=True)
        assert info == 0
        q, _, info = module.dorgqr(qr.copy(order="F"), tau, lwork=64 * 6, overwrite_a=True)
        assert info == 0
        outs.append((qr, tau, q))
    for ours, theirs in zip(*outs):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_syrk_adds_into_one_triangle_of_the_transpose(sign):
    # as FitModel: rows of G (as columns) added into H's lower triangle,
    # the upper one of the Fortran-ordered H.T
    rng = np.random.default_rng(4)
    block, start = rng.normal(size=(9, 5)), rng.normal(size=(9, 9))
    outs = []
    for module in (own, blas):
        H = start.copy()
        module.dsyrk(sign, block.T, 1.0, H.T, trans=1, overwrite_c=1, lower=0)
        outs.append(H)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(np.triu(outs[0], 1), np.triu(start, 1))


def test_trsm_right_transposed():
    rng = np.random.default_rng(5)
    r = np.asfortranarray(np.triu(rng.normal(size=(6, 6))) + 6 * np.eye(6))
    q = rng.normal(size=(15, 6))
    ours = own.dtrsm(1.0, r, np.asfortranarray(q), side=1, trans_a=1, overwrite_b=True)
    theirs = blas.dtrsm(1.0, r, np.asfortranarray(q), side=1, trans_a=1, overwrite_b=True)
    assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("info, error", [(2, np.linalg.LinAlgError), (-3, ValueError)])
def test_nonzero_status_raises_naming_the_routine(info, error):
    own.check_info("dgeqrf", 0)
    with pytest.raises(error, match="dgeqrf"):
        own.check_info("dgeqrf", info)


def test_a_missing_module_is_named():
    with pytest.raises(ImportError, match="linalg/_no_such_module"):
        own._load("_no_such_module")
