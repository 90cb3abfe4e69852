import dataclasses
import importlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from pitomo.povm import Setting, probabilities, rotated_blocks
from pitomo.reconstruct import (
    CENTERING,
    LAG,
    AffineBlockMap,
    FitModel,
    FitSpec,
    LinearFit,
    NewtonSystem,
    NonConvergenceError,
    Overlap,
    Parametrization,
    RankOneBlocks,
    SolverConfig,
    StageCarry,
    StageResult,
    build_fit_model,
    fit_value,
    fixed_point_reconstruct,
    likelihood_residual,
    newton_stage,
    reconstruct,
    resolve_least_squares_weights,
    t_schedule,
)
from pitomo.design import determined_setting_count, random_settings as design_random_settings
from pitomo.sim import Dataset, DatasetRecord as Record, dicke_mixture_state, sample_dataset
from pitomo.spin_blocks import (
    SpinEnsemble,
    maximally_mixed_ensemble,
    sector_layout,
    trace_distance,
)

import oracles

reconstruct_module = importlib.import_module("pitomo.reconstruct")


def random_settings(rng, count):
    vs = rng.normal(size=(count, 3))
    return [Setting(axis=v / np.linalg.norm(v)) for v in vs]


def exact_dataset(state, settings, reps=1.0):
    """Dataset whose frequencies are the exact outcome distributions."""
    n = state.layout.n_qubits
    records = [
        Record(s, probabilities(state, rotated_blocks(n, s)) * reps, reps)
        for s in settings
    ]
    return Dataset(n, records)


def sampled_dataset(state, settings, reps, rng):
    n = state.layout.n_qubits
    records = []
    for s in settings:
        p = probabilities(state, rotated_blocks(n, s))
        records.append(Record(s, rng.multinomial(reps, p / p.sum()), reps))
    return Dataset(n, records)


def interior_ensemble(n, rng):
    """Random PI state with every block comfortably positive definite."""
    layout = sector_layout(n)
    w = 1.0 + rng.uniform(size=layout.num_sectors)
    w /= w.sum()
    blocks = {}
    for wj, two_j in zip(w, layout.two_j_values):
        d = two_j + 1
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho = 0.7 * rho / np.trace(rho).real + 0.3 * np.eye(d) / d
        blocks[two_j] = wj * rho
    return SpinEnsemble(layout=layout, blocks=blocks)


def pure_block_ensemble(n, rng):
    """Boundary-rank PI state: one random pure state per sector."""
    layout = sector_layout(n)
    w = rng.dirichlet([0.5] * layout.num_sectors)
    blocks = {}
    for wj, two_j in zip(w, layout.two_j_values):
        v = rng.normal(size=two_j + 1) + 1j * rng.normal(size=two_j + 1)
        v /= np.linalg.norm(v)
        blocks[two_j] = wj * np.outer(v, v.conj())
    return SpinEnsemble(layout=layout, blocks=blocks)


class TestFitSpec:
    def test_constructors(self):
        assert FitSpec.max_lik().principle == "ml"
        assert FitSpec.least_squares().principle == "ls"
        assert FitSpec.free_least_squares().principle == "freels"
        spec = FitSpec.hedged(0.01)
        assert spec.principle == "hedged" and spec.beta == 0.01

    def test_unknown_principle(self):
        with pytest.raises(ValueError):
            FitSpec(principle="ridge")

    def test_hedged_requires_beta(self):
        with pytest.raises(ValueError):
            FitSpec(principle="hedged")
        with pytest.raises(ValueError):
            FitSpec.hedged(0.0)
        # an infinite beta would run one stage at t = inf
        for beta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="beta"):
                FitSpec.hedged(beta)

    def test_beta_only_for_hedged(self):
        with pytest.raises(ValueError):
            FitSpec(principle="ml", beta=0.1)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            FitSpec(principle="ls", weights=np.array([1.0, 0.0]))
        # a NaN or infinite weight would fail only inside the Newton solve
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                FitSpec.least_squares(weights=np.array([1.0, bad]))
        with pytest.raises(ValueError):
            FitSpec(principle="ml", weights=np.ones(3))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.t0 == 1.0 and cfg.t_min == 1e-10 and cfg.grad_tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t0": 0.0},
            {"t_min": -1.0},
            {"max_newton_iters": 0},
            {"grad_tol": -1.0},
            {"grad_tol": 0.0},
            {"grad_tol": math.inf},
            {"grad_tol": math.nan},
            {"t0": math.nan},
            {"t0": math.inf},
            {"t_min": math.nan},
            {"t0": 1e-12},
            {"t0": 1e-3, "t_min": 1e-2},
            {"max_newton_iters": math.nan},
            {"max_newton_iters": math.inf},
            {"max_newton_iters": 2.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_t_min_may_equal_t0(self):
        cfg = SolverConfig(t0=1e-3, t_min=1e-3)
        assert t_schedule(cfg) == [1e-3]


class TestParametrization:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_dimension_formula(self, n):
        layout = sector_layout(n)
        param = Parametrization(layout)
        assert param.dimension == sum((t + 1) ** 2 for t in layout.two_j_values) - 1

    def test_zero_is_maximally_mixed(self):
        layout = sector_layout(4)
        param = Parametrization(layout)
        mm = maximally_mixed_ensemble(layout)
        ens = param.ensemble(np.zeros(param.dimension))
        for two_j in layout.two_j_values:
            np.testing.assert_allclose(ens.blocks[two_j], mm.blocks[two_j], atol=1e-14)

    def test_basis_orthonormal(self):
        # Frobenius inner product summed over sectors, one direction at a time.
        param = Parametrization(sector_layout(4))
        d = param.dimension
        gram = np.zeros((d, d))
        elements = [param.basis_element(i) for i in range(d)]
        for i in range(d):
            for k in range(i, d):
                val = sum(
                    np.trace(elements[i][t].conj().T @ elements[k][t]).real
                    for t in param.layout.two_j_values
                )
                gram[i, k] = gram[k, i] = val
        np.testing.assert_allclose(gram, np.eye(d), atol=1e-12)

    def test_basis_total_trace_free(self):
        # Directions must not move the overall trace off 1.
        param = Parametrization(sector_layout(5))
        for i in range(param.dimension):
            element = param.basis_element(i)
            total = sum(np.trace(element[t]).real for t in param.layout.two_j_values)
            assert abs(total) < 1e-12

    def test_basis_hermitian(self):
        param = Parametrization(sector_layout(3))
        for i in range(param.dimension):
            for mat in param.basis_element(i).values():
                np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)

    def test_coordinates_roundtrip(self):
        rng = np.random.default_rng(7)
        param = Parametrization(sector_layout(4))
        truth = interior_ensemble(4, rng)
        x = param.coordinates(truth)
        back = param.ensemble(x)
        for two_j in param.layout.two_j_values:
            np.testing.assert_allclose(
                back.blocks[two_j], truth.blocks[two_j], atol=1e-12
            )
        np.testing.assert_allclose(param.coordinates(back), x, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_coordinates_are_overlaps_with_the_basis(self, n):
        # x_i = tr((rho - base) B_i) over every sector, and the entry
        # read-off the package used before, sector by sector
        param = Parametrization(sector_layout(n))
        truth = interior_ensemble(n, np.random.default_rng(70 + n))
        delta = {two_j: truth.blocks[two_j] - C
                 for two_j, C in zip(param.layout.two_j_values, param.affine.constants)}
        overlaps = [sum(np.trace(delta[t] @ B[t]).real for t in delta)
                    for B in map(param.basis_element, range(param.dimension))]
        entries = np.zeros(param.dimension)
        for b, two_j in enumerate(param.layout.two_j_values):
            rows, cols = np.triu_indices(two_j + 1, 1)
            entries[param.indices[b]] += oracles.gell_mann_coordinates(
                delta[two_j][rows, cols][:, None], delta[two_j].diagonal().real[:, None],
                param.shift_coeff[b])[0]
        x = param.coordinates(truth)
        np.testing.assert_allclose(x, overlaps, rtol=0, atol=1e-15)
        np.testing.assert_allclose(x, entries, rtol=0, atol=1e-15)

    def test_basis_element_bounds(self):
        param = Parametrization(sector_layout(2))
        with pytest.raises(IndexError):
            param.basis_element(param.dimension)
        with pytest.raises(IndexError):
            param.basis_element(-1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_element_matches_dense_oracle(self, n):
        # B_i is the oracle's Gell-Mann matrix or trace shift in every
        # sector that reads coordinate i, and zero in the others
        param = Parametrization(sector_layout(n))
        dense = [oracles.sector_directions(two_j + 1, coeff)
                 for two_j, coeff in zip(param.layout.two_j_values, param.shift_coeff)]
        for i in range(param.dimension):
            element = param.basis_element(i)
            for D, idx, two_j in zip(dense, param.indices, param.layout.two_j_values):
                pos = np.flatnonzero(idx == i)
                expected = D[pos[0]] if pos.size else np.zeros((two_j + 1,) * 2)
                np.testing.assert_allclose(element[two_j], expected, rtol=0, atol=1e-15)

    def test_layout_mismatch(self):
        param = Parametrization(sector_layout(2))
        other = maximally_mixed_ensemble(sector_layout(4))
        with pytest.raises(ValueError):
            param.coordinates(other)

    def test_fits_share_one_read_only_instance(self):
        rng = np.random.default_rng(3)
        ds = exact_dataset(interior_ensemble(3, rng), random_settings(rng, 12))
        shared = build_fit_model(ds, FitSpec.max_lik()).parametrization
        assert build_fit_model(ds, FitSpec.free_least_squares()).parametrization is shared
        affine, tables = shared.affine, shared.affine.directions
        for array in (shared.shift_coeff, shared.centre, tables.Q, tables.Qc,
                      tables.diag_coord, *affine.constants, *shared.indices):
            assert not array.flags.writeable
        multipoles = build_fit_model(ds, FitSpec.max_lik()).G.multipoles
        assert multipoles is shared.multipoles
        for array in (multipoles.coefficients, multipoles.columns, *multipoles.entries,
                      *(Q for Q, _, _ in multipoles.blocks)):
            assert not array.flags.writeable
        own = Parametrization(shared.layout)
        assert build_fit_model(ds, FitSpec.max_lik(), own).parametrization is own

    def test_single_sector_has_no_shifts(self):
        # N = 1 has one sector; all directions are Gell-Mann matrices.
        param = Parametrization(sector_layout(1))
        assert param.dimension == 3


class TestOverlapTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_trace_oracle(self, n):
        # G[(a, k), i] = tr(B_i M_k^a) and p0[(a, k)] = tr(base M_k^a),
        # summed over the sectors where the block is not structurally zero.
        rng = np.random.default_rng(40 + n)
        layout = sector_layout(n)
        param = Parametrization(layout)
        settings = random_settings(rng, 3)
        model = build_fit_model(exact_dataset(maximally_mixed_ensemble(layout), settings),
                                FitSpec.max_lik(), param)
        base = param.ensemble(np.zeros(param.dimension)).blocks
        basis = [param.basis_element(i) for i in range(param.dimension)]
        G = np.zeros((len(settings) * (n + 1), param.dimension))
        p0 = np.zeros(G.shape[0])
        for a, setting in enumerate(settings):
            bs = rotated_blocks(n, setting)
            for k in range(n + 1):
                for two_j in layout.two_j_values:
                    M = bs.block(k, two_j)
                    if M is None:
                        continue
                    row = a * (n + 1) + k
                    p0[row] += np.trace(base[two_j] @ M).real
                    for i, element in enumerate(basis):
                        G[row, i] += np.trace(element[two_j] @ M).real
        # G is read as the operator applied to the identity
        applied = np.column_stack([model.G.matvec(e) for e in np.eye(param.dimension)])
        np.testing.assert_allclose(applied, G, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.p0, p0, rtol=0, atol=1e-13)


    @pytest.mark.parametrize("n", range(1, 13))
    def test_operator_matches_dense_assembly(self, n):
        # G x, G^T v and the rows the operator builds, against the dense
        # Gell-Mann assembly, on random settings with a repeated one, an
        # antipodal pair and both poles, to 1e-13 of the sums' scale
        rng = np.random.default_rng(60 + n)
        param = Parametrization(sector_layout(n))
        settings = random_settings(rng, 6)
        settings += [settings[0], Setting(axis=-settings[1].axis),
                     Setting(axis=np.array([0.0, 0.0, 1.0])), Setting(axis=np.array([0.0, 0.0, -1.0]))]
        G = oracles.dense_overlap(param, settings)
        op = Overlap(param, settings)
        assert op.shape == G.shape
        x, v = rng.normal(size=G.shape[1]), rng.normal(size=G.shape[0])
        assert np.all(np.abs(op.matvec(x) - G @ x) <= 1e-13 * (np.abs(G) @ np.abs(x)).max())
        assert np.all(np.abs(op.rmatvec(v) - G.T @ v) <= 1e-13 * (np.abs(G).T @ np.abs(v)).max())
        index = rng.permutation(G.shape[0])
        out = np.full((G.shape[1], index.size), np.nan)
        op.rows(index, out, np.full(2 * out.size, np.nan))
        assert np.all(np.abs(out.T - G[index]) <= 1e-13 * np.abs(G).max())


class TestMultipoles:
    """The factors of G against closed forms: C_j's columns are
    Clebsch-Gordan coefficients, and Y's rows are real harmonics."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_columns_are_clebsch_gordan(self, n):
        # column L of C_j is <j m; L 0 | j m> over m = -j..j, up to one
        # norm and one sign per (j, L)
        from sympy import Rational
        from sympy.physics.wigner import clebsch_gordan

        coefficients = Parametrization(sector_layout(n)).multipoles.coefficients
        first = 0
        for two_j in sector_layout(n).two_j_values:
            j = Rational(two_j, 2)
            outcomes = (n - two_j) // 2 + np.arange(two_j + 1)  # m = -j..j
            for L in range(two_j + 1):
                cg = np.array([float(clebsch_gordan(j, L, j, m, 0, m))
                               for m in (-j + i for i in range(two_j + 1))])
                column = coefficients[outcomes, first + L]
                assert np.all(coefficients[:, first + L][
                    np.setdiff1d(np.arange(n + 1), outcomes)] == 0.0)
                a, b = column / np.linalg.norm(column), cg / np.linalg.norm(cg)
                assert np.abs(a - np.sign(a @ b) * b).max() <= 1e-13
            first += two_j + 1

    def test_rows_are_real_harmonics(self):
        # Y_lm(a) are the coordinates of R_a T_L0 R_a^dagger in an
        # orthonormal basis of degree L, so sum_M Y_LM(a)^2 = 1 for every
        # axis (the addition theorem: (2L+1)/4pi in the usual norm), and
        # Y_L0(a) = D^L_00 = P_L(a_z), with either sign of T_L0
        rng = np.random.default_rng(12)
        settings = random_settings(rng, 20) + [Setting(axis=np.array([0.0, 0.0, 1.0])),
                                               Setting(axis=np.array([0.0, 0.0, -1.0]))]
        Y = Overlap(Parametrization(sector_layout(12)), settings).harmonics
        z = np.array([s.axis[2] for s in settings])
        for L in range(13):
            degree = Y[:, L * L : (L + 1) ** 2]
            np.testing.assert_allclose((degree**2).sum(axis=1), 1.0, rtol=0, atol=1e-13)
            legendre = np.polynomial.legendre.legval(z, np.eye(L + 1)[L])
            np.testing.assert_allclose(degree[:, 0], legendre, rtol=0, atol=1e-13)


POLE_AXES = ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-9, 0.0, 1.0], [-1e-12, 0.0, 1.0],
             [0.0, 1e-9, -1.0], [0.0, -1e-12, -1.0])
HARMONICS_PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


class TestHarmonics:
    """Y computed from the axes by the Legendre recurrence, against the
    rotation read-off it replaced and against the addition theorem."""

    @pytest.mark.parametrize("n", [1, 2, 12, 30])
    def test_matches_the_rotation_read_off(self, n):
        # random axes, a repeated one, an antipode, both poles, and axes
        # 1e-9 and 1e-12 from either pole
        rng = np.random.default_rng(80 + n)
        axes = random_settings(rng, 12)
        axes += [axes[0], Setting(axis=-axes[1].axis)]
        axes += [Setting.from_vector(a) for a in POLE_AXES]
        Y = Overlap(Parametrization(sector_layout(n)), axes).harmonics
        np.testing.assert_allclose(Y, oracles.rotation_harmonics(axes, n), rtol=0, atol=1e-13)

    @HARMONICS_PROPERTY
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**16))
    def test_addition_theorem_and_parity(self, n, seed):
        # sum_M Y_LM(a) Y_LM(b) = P_L(a.b) in this norm (Y_LM(a)^2 sums to
        # P_L(1) = 1), and Y_LM(-a) = (-1)^L Y_LM(a), on ten pairs
        a, b = (np.array([s.axis for s in random_settings(np.random.default_rng(seed), 10)])
                for _ in range(2))
        Ya, Yb, Yminus = (reconstruct_module._harmonics(axes, n + 1) for axes in (a, b, -a))
        degree = np.repeat(np.arange(n + 1), 2 * np.arange(n + 1) + 1)
        addition = np.add.reduceat(Ya * Yb, np.arange(n + 1) ** 2, axis=0)
        legendre = np.polynomial.legendre.legvander(np.einsum("ai,ai->a", a, b), n).T
        np.testing.assert_allclose(addition, legendre, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Yminus, (-1.0) ** degree[:, None] * Ya, rtol=0, atol=1e-13)


class TestFitValue:
    def test_perfect_fit(self):
        f = np.array([0.25, 0.5, 0.25])
        assert fit_value(FitSpec.least_squares(np.ones(3)), f, f) == 0.0
        assert fit_value(FitSpec.free_least_squares(), f, f) == 0.0
        ml = fit_value(FitSpec.max_lik(), f, f)
        assert ml == pytest.approx(-np.sum(f * np.log(f)))

    def test_ml_hand_example(self):
        val = fit_value(FitSpec.max_lik(), [1.0, 0.0], [0.5, 0.5])
        assert val == pytest.approx(math.log(2.0))

    def test_ml_skips_zero_frequency(self):
        # p = 0 is allowed wherever f = 0.
        val = fit_value(FitSpec.max_lik(), [1.0, 0.0], [1.0, 0.0])
        assert val == pytest.approx(0.0)

    def test_ls_hand_example(self):
        spec = FitSpec.least_squares(np.ones(2))
        val = fit_value(spec, [0.6, 0.4], [0.5, 0.5])
        assert val == pytest.approx(0.02)

    def test_freels_hand_example(self):
        val = fit_value(FitSpec.free_least_squares(), [0.6, 0.4], [0.5, 0.5])
        assert val == pytest.approx(0.01 / 0.5 + 0.01 / 0.5)

    def test_hedged_is_likelihood_part(self):
        f = np.array([0.3, 0.7])
        p = np.array([0.4, 0.6])
        assert fit_value(FitSpec.hedged(0.1), f, p) == fit_value(
            FitSpec.max_lik(), f, p
        )

    def test_ls_requires_weights(self):
        with pytest.raises(ValueError):
            fit_value(FitSpec.least_squares(), [0.5, 0.5], [0.5, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_value(FitSpec.max_lik(), [1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            fit_value(FitSpec.least_squares(np.ones(3)), [0.5, 0.5], [0.5, 0.5])

    def test_non_interior_rejected(self):
        with pytest.raises(ValueError):
            fit_value(FitSpec.max_lik(), [0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            fit_value(FitSpec.free_least_squares(), [0.5, 0.5], [1.0, 0.0])

    def test_resolve_weights(self):
        w = resolve_least_squares_weights([0.5, 0.001, 0.499], 100)
        np.testing.assert_allclose(w, [2.0, 1000.0, 1.0 / 0.499])


def finite_difference_hessian_action(grad, x, v, h=1e-5):
    return (grad(x + h * v) - grad(x - h * v)) / (2 * h)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(11)
    truth = interior_ensemble(3, rng)
    settings = random_settings(rng, 6)
    ds = sampled_dataset(truth, settings, 500, rng)
    param = Parametrization(sector_layout(3))
    x = param.coordinates(interior_ensemble(3, rng))
    return ds, param, x


def fit_spec(principle):
    """The FitSpec of a principle, with beta = 0.01 for the hedged one."""
    return FitSpec.hedged(0.01) if principle == "hedged" else FitSpec(principle)


every_principle = pytest.mark.parametrize("principle", reconstruct_module.PRINCIPLES)


class TestDerivatives:
    """Finite-difference checks of every gradient and Hessian."""

    @every_principle
    def test_fit_gradient_matches_fd(self, problem, principle):
        ds, param, x = problem
        model = build_fit_model(ds, fit_spec(principle), param)
        g = model.gradient(model.probabilities(x))
        g_fd = oracles.fd_gradient(lambda y: model.value(model.probabilities(y)), x, h=1e-6)
        np.testing.assert_allclose(g, g_fd, rtol=0, atol=1e-6 * (1 + abs(g).max()))

    @pytest.mark.parametrize(
        "spec",
        [FitSpec.max_lik(), FitSpec.least_squares(), FitSpec.free_least_squares(),
         FitSpec.hedged(0.01)],
        ids=lambda spec: spec.principle,
    )
    def test_fit_hessian_matches_fd(self, problem, spec):
        ds, param, x = problem
        model = build_fit_model(ds, spec, param)
        g, H = oracles.fit_gradient_hessian(model, model.probabilities(x))
        np.testing.assert_allclose(g, model.gradient(model.probabilities(x)), atol=1e-13)
        assert np.array_equal(H, H.T)
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.normal(size=param.dimension)
            v /= np.linalg.norm(v)
            hv_fd = finite_difference_hessian_action(
                lambda y: model.gradient(model.probabilities(y)), x, v)
            np.testing.assert_allclose(
                H @ v, hv_fd, atol=1e-4 * (1 + np.abs(H @ v).max())
            )

    @every_principle
    def test_fit_hessian_psd(self, problem, principle):
        ds, param, x = problem
        model = build_fit_model(ds, fit_spec(principle), param)
        _, H = oracles.fit_gradient_hessian(model, model.probabilities(x))
        assert np.linalg.eigvalsh(H).min() > -1e-10

    @every_principle
    def test_curvature_power(self, problem, principle):
        # phi'' scales as p^-k, which the held-Hessian bound (1 + drift)^k
        # rests on: doubling p divides the Hessian by 2^k exactly
        ds, param, x = problem
        model = build_fit_model(ds, fit_spec(principle), param)
        p = model.probabilities(x)
        _, H = oracles.fit_gradient_hessian(model, p)
        _, H_doubled = oracles.fit_gradient_hessian(model, 2.0 * p)
        np.testing.assert_allclose(H_doubled * 2.0**model.curvature_power, H, rtol=1e-12)

    def test_ls_hessian_constant(self, problem):
        ds, param, x = problem
        model = build_fit_model(ds, FitSpec.least_squares(), param)
        _, h1 = oracles.fit_gradient_hessian(model, model.probabilities(x))
        _, h2 = oracles.fit_gradient_hessian(model, model.probabilities(0.5 * x))
        np.testing.assert_array_equal(h1, h2)

    def test_ls_hessian_held_through_barrier_path(self, problem, monkeypatch):
        # the constant LS Hessian is formed once per fit, into the Newton
        # buffer; every stage's factorizations leave it there intact
        ds, param, _ = problem
        model = build_fit_model(ds, FitSpec.least_squares(), param)
        fresh = oracles.fit_gradient_hessian(model, model.probabilities(param.centre))[1]
        held = []
        original = reconstruct_module.newton_stage

        def stage(*args, carry, **kwargs):
            result = original(*args, carry=carry, **kwargs)
            held.append(oracles.held_fit_hessian(carry[0].system))
            return result

        monkeypatch.setattr(reconstruct_module, "newton_stage", stage)
        cfg = SolverConfig()
        stages = list(reconstruct_module._barrier_path(
            model, param.affine, t_schedule(cfg), param.centre, cfg))
        assert len(held) == len(stages) >= 3
        assert sum(result.iterations for _, result in stages) > 0
        assert sum(result.hessians for _, result in stages) == 1
        for H in held:
            assert np.array_equal(H, fresh)

    def test_barrier_matches_fd(self, problem):
        _, param, x = problem
        t = 0.7
        value, grad, hess = oracles.barrier_value_grad_hess(param.affine, x, t)
        g_fd = oracles.fd_gradient(
            lambda y: oracles.barrier_value_grad_hess(param.affine, y, t)[0], x, h=1e-6
        )
        np.testing.assert_allclose(grad, g_fd, atol=1e-5 * (1 + np.abs(grad).max()))
        np.testing.assert_allclose(hess, hess.T, atol=1e-10)
        assert np.linalg.eigvalsh(hess).min() > 0

        rng = np.random.default_rng(1)
        v = rng.normal(size=param.dimension)
        v /= np.linalg.norm(v)
        hv_fd = finite_difference_hessian_action(
            lambda y: oracles.barrier_value_grad_hess(param.affine, y, t)[1], x, v
        )
        np.testing.assert_allclose(
            hess @ v, hv_fd, atol=1e-4 * (1 + np.abs(hess @ v).max())
        )

    def test_barrier_grad_only_path_agrees(self, problem):
        _, param, x = problem
        affine = param.affine
        chols = affine.cholesky_list(affine.blocks(x))
        value_full, grad_full, _ = affine.barrier_grad_hess(chols)
        value_only, grad_only = affine.barrier_grad(chols)
        assert value_only == pytest.approx(value_full, rel=1e-13)
        np.testing.assert_allclose(grad_only, grad_full, atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [FitSpec.max_lik(), FitSpec.least_squares(), FitSpec.free_least_squares(),
         FitSpec.hedged(0.01), None],
        ids=lambda spec: spec.principle if spec else "linear",
    )
    def test_ray_derivatives(self, problem, spec):
        # (F', F'') along x + a delta against the gradient's directional
        # derivative and a central difference of it
        ds, param, x = problem
        rng = np.random.default_rng(6)
        if spec is None:
            fit = LinearFit(rng.normal(size=param.dimension))
        else:
            fit = build_fit_model(ds, spec, param)
        delta = rng.normal(size=param.dimension)
        mu = param.affine.ray_eigenvalues(param.affine.cholesky_list(param.affine.blocks(x)),
                                          delta)
        assert mu.min() < 0.0  # traceless: some eigenvalue falls
        delta *= 0.5 / -mu.min()  # the ray stays interior up to a = 2
        ray = fit.ray(fit.probabilities(x), delta)
        h = 1e-5

        def directional(a):
            return float(fit.gradient(fit.probabilities(x + a * delta)) @ delta)

        for a in (0.0, 0.4, 1.3):
            d1, d2 = ray(a)
            assert d1 == pytest.approx(directional(a), rel=1e-10, abs=1e-12)
            fd = (directional(a + h) - directional(a - h)) / (2 * h)
            assert d2 == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @every_principle
    def test_fit_convexity(self, problem, principle):
        ds, param, _ = problem
        rng = np.random.default_rng(5)
        x1 = param.coordinates(interior_ensemble(3, rng))
        x2 = param.coordinates(interior_ensemble(3, rng))
        lam = 0.3
        model = build_fit_model(ds, fit_spec(principle), param)

        def value(x):
            return model.value(model.probabilities(x))

        mixed = value(lam * x1 + (1 - lam) * x2)
        assert mixed <= lam * value(x1) + (1 - lam) * value(x2) + 1e-10


class TestBarrierClosedForm:
    def test_value_at_maximally_mixed(self):
        # Every eigenvalue of block j is multiplicity_j / 2^N there.
        n = 5
        layout = sector_layout(n)
        param = Parametrization(layout)
        expected = -sum(
            (t + 1) * math.log(layout.multiplicity(t) / 2.0**n)
            for t in layout.two_j_values
        )
        x = np.zeros(param.dimension)
        value, _, _ = oracles.barrier_value_grad_hess(param.affine, x, 1.0)
        assert value == pytest.approx(expected, rel=1e-12)
        value_t, _, _ = oracles.barrier_value_grad_hess(param.affine, x, 2.5)
        assert value_t == pytest.approx(2.5 * expected, rel=1e-12)

    def test_non_interior_raises(self):
        param = Parametrization(sector_layout(2))
        x = np.zeros(param.dimension)
        x[0] = 10.0  # pushes a block eigenvalue far below zero
        with pytest.raises(ValueError):
            oracles.barrier_value_grad_hess(param.affine, x, 1.0)


class TestMLStationarityAtUniformData:
    def test_gradient_vanishes(self):
        # Exact maximally mixed data: f = p(0), and each setting's POVM is
        # complete, so the likelihood gradient at x = 0 is exactly zero.
        rng = np.random.default_rng(3)
        layout = sector_layout(4)
        mm = maximally_mixed_ensemble(layout)
        ds = exact_dataset(mm, random_settings(rng, 5))
        model = build_fit_model(ds, FitSpec.max_lik())
        g = model.gradient(model.probabilities(np.zeros(model.parametrization.dimension)))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


def stage_end(principle, exact=True):
    """A sampled N=3 fit and its stage at t = 0.1 from x = 0, with the
    carry that stage leaves: (model, parametrization, stage, carry)."""
    rng = np.random.default_rng(4)
    ds = sampled_dataset(interior_ensemble(3, rng), random_settings(rng, 12), 500, rng)
    model = build_fit_model(ds, FitSpec(principle=principle))
    param = model.parametrization
    carry = []
    first = newton_stage(model, param.affine, 0.1, np.zeros(param.dimension), exact=exact,
                         carry=carry)
    assert first.converged and len(carry) == 1
    return model, param, first, carry


def assert_same_stage(a, b, skip=()):
    for field in dataclasses.fields(StageResult):
        if field.name not in skip:
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name),
                                  equal_nan=True), field.name


def assert_same_carry(a, b):
    """Equal carried derivatives, equal systems: the same held fit
    Hessian weighted at the same points, the same ratio and equal
    factors (or both None)."""
    for name in ("fit_gradient", "barrier_gradient"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    s, u = a.system, b.system
    assert np.array_equal(s.diagonal, u.diagonal) and s.ratio == u.ratio
    assert np.array_equal(oracles.held_fit_hessian(s), oracles.held_fit_hessian(u))
    assert np.array_equal(a.barrier_hessian.data, b.barrier_hessian.data)
    assert (s.hessian_at is None) == (u.hessian_at is None)
    if s.hessian_at is not None:
        assert np.array_equal(s.hessian_at, u.hessian_at)
    assert (s.factor is None) == (u.factor is None)
    if s.factor is not None:
        assert np.array_equal(s.factor[0], u.factor[0]) and s.factor[1] == u.factor[1]


def system_holding(model, W, diagonal, hessian_at, ratio=math.inf):
    """A ``NewtonSystem`` of ``model`` holding a copy of the buffer W, its
    strict lower triangle with ``diagonal`` the fit Hessian, with rows
    weighted at a copy of ``hessian_at``, the given ratio and no factor:
    no two systems share an array a stage writes."""
    system = NewtonSystem(model, len(W))
    system.W[...] = W
    system.diagonal = diagonal.copy()
    system.hessian_at = None if hessian_at is None else hessian_at.copy()
    system.ratio = ratio
    return system


def copied(system):
    """A copy of ``system`` without its factor."""
    return system_holding(system.fit, system.W, system.diagonal, system.hessian_at,
                          system.ratio)


def carry_at(model, param, x, system):
    """A ``StageCarry`` at x with p and every derivative evaluated afresh
    there, holding a copy of ``system`` without its factor."""
    p = model.probabilities(x)
    _, bg, bH = param.affine.barrier_grad_hess(param.affine.cholesky_list(param.affine.blocks(x)))
    return StageCarry(p, model.gradient(p), copied(system), bg, bH)


def assert_carry_is_fresh_at(model, param, x, carry):
    """The carry's p and derivatives are x's, bit for bit, and its held
    fit Hessian is G^T diag(phi''(hessian_at)) G (for LS, at any p) to
    roundoff, with every row's drift within LAG."""
    fresh = carry_at(model, param, x, carry.system)
    for name in ("probabilities", "fit_gradient", "barrier_gradient"):
        assert np.array_equal(getattr(carry, name), getattr(fresh, name)), name
    assert np.array_equal(carry.barrier_hessian.data, fresh.barrier_hessian.data)
    hessian_at = carry.system.hessian_at
    at = carry.probabilities if hessian_at is None else hessian_at
    reference, scale = oracles.weighted_gram(oracles.model_overlap(model),
                                             oracles.fit_curvature(model, at))
    held = oracles.held_fit_hessian(carry.system)
    assert np.abs(held - reference).max() <= 1e-12 * scale.max()
    if hessian_at is not None:
        assert np.all(model.drift(carry.probabilities, hessian_at) <= LAG)


def newton_decrement(model, affine, t, x, fit_hessian=None):
    """lambda^2 = g^T (t H_bar + H_fit)^-1 g at x, from fresh derivatives,
    or with the fit Hessian ``fit_hessian`` in place of the fresh one."""
    g_fit, H_fit = oracles.fit_gradient_hessian(model, model.probabilities(x))
    H_fit = H_fit if fit_hessian is None else fit_hessian
    _, bg, bH = oracles.barrier_value_grad_hess(affine, x, 1.0)
    g = g_fit + t * bg
    return float(g @ np.linalg.solve(t * bH + H_fit, g))


class TestNewtonStage:
    def make_model(self, seed=2):
        rng = np.random.default_rng(seed)
        truth = interior_ensemble(2, rng)
        ds = exact_dataset(truth, random_settings(rng, 6))
        param = Parametrization(sector_layout(2))
        return build_fit_model(ds, FitSpec.max_lik(), param), param

    def test_converges_quickly(self):
        model, param = self.make_model()
        stage = newton_stage(model, param.affine, 1.0, np.zeros(param.dimension))
        assert stage.converged
        assert stage.iterations <= 25
        assert stage.grad_norm <= 1e-8

    def test_restart_at_optimum_is_free(self):
        model, param = self.make_model()
        stage = newton_stage(model, param.affine, 1.0, np.zeros(param.dimension))
        again = newton_stage(model, param.affine, 1.0, stage.x)
        assert again.converged
        assert again.iterations == 0
        np.testing.assert_array_equal(again.x, stage.x)

    def test_objective_decreases(self):
        model, param = self.make_model()
        x0 = np.zeros(param.dimension)
        chols = param.affine.cholesky_list(param.affine.blocks(x0))
        start_obj = (model.value(model.probabilities(x0))
                     + 1.0 * param.affine.barrier_value(chols))
        stage = newton_stage(model, param.affine, 1.0, x0)
        assert stage.objective < start_obj

    def test_infeasible_start_rejected(self):
        model, param = self.make_model()
        x = np.zeros(param.dimension)
        x[0] = 10.0
        with pytest.raises(ValueError):
            newton_stage(model, param.affine, 1.0, x)

    def test_iteration_cap_respected(self):
        model, param = self.make_model()
        cfg = SolverConfig(max_newton_iters=1)
        stage = newton_stage(model, param.affine, 1.0, np.zeros(param.dimension), cfg)
        assert stage.iterations == 1

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_exhausted_budget_hands_on_a_valid_carry(self, principle):
        # a stage cut by its budget stops on the derivatives it formed at
        # the point it returns: grad_norm is that point's, and its carry
        # seeds the next stage as a fresh evaluation there would
        model, param, first, _ = stage_end(principle)
        carry = []
        cut = newton_stage(model, param.affine, 0.01, first.x,
                           SolverConfig(max_newton_iters=1), carry=carry)
        assert cut.iterations == 1 and not cut.converged
        p = model.probabilities(cut.x)
        _, bg, _ = oracles.barrier_value_grad_hess(param.affine, cut.x, 1.0)
        assert cut.grad_norm == float(np.linalg.norm(model.gradient(p) + 0.01 * bg))
        assert len(carry) == 1 and carry[0].system.factor is None
        assert np.array_equal(carry[0].probabilities, p)
        assert_carry_is_fresh_at(model, param, cut.x, carry[0])
        # the held fit Hessian legitimately differs from one formed at
        # cut.x (its rows are weighted where they last drifted), so the
        # stage it seeds is compared with one seeded by fresh evaluations
        # beside the same held Hessian, and with a stage from scratch to
        # the stopping tolerance
        rebuilt = [carry_at(model, param, cut.x, carry[0].system)]
        seeded = newton_stage(model, param.affine, 0.001, cut.x, carry=carry)
        again = newton_stage(model, param.affine, 0.001, cut.x, carry=rebuilt)
        fresh = newton_stage(model, param.affine, 0.001, cut.x)
        assert seeded.iterations > 0 and seeded.converged and fresh.converged
        assert_same_stage(seeded, again)
        assert_same_carry(carry.pop(), rebuilt.pop())
        np.testing.assert_allclose(seeded.x, fresh.x, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_endgame_step_needs_a_smaller_gradient(self, principle):
        # the endgame takes the full step only if it strictly shrinks |g|:
        # the Newton step from the centre of a nearby t does, while the
        # zero step (|g| unchanged) and the reversed step do not
        model, param, first, carry = stage_end(principle)
        _, g_fit, system, bg, bH = carry.pop()
        x, t = first.x, 0.09
        g = g_fit + t * bg
        grad_norm = float(np.linalg.norm(g))
        delta, _ = system.direction(bH, t, g)
        trial = reconstruct_module._endgame_step(model, param.affine, x, t, delta, grad_norm)
        assert trial is not None
        x_new, p_new, chols, obj, fit_v = trial
        assert np.array_equal(x_new, x + delta)
        assert np.array_equal(p_new, model.probabilities(x_new))
        assert fit_v == model.value(p_new)
        assert obj == fit_v + t * param.affine.barrier_value(chols)
        _, bg_new, _ = oracles.barrier_value_grad_hess(param.affine, x_new, t)
        assert np.linalg.norm(model.gradient(p_new) + bg_new) < grad_norm
        for step in (0.0 * delta, -delta):
            assert reconstruct_module._endgame_step(
                model, param.affine, x, t, step, grad_norm) is None

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_carried_derivatives_seed_exactly(self, principle, exact):
        # the derivatives that end one stage do not depend on t: they are
        # the returned point's, bit for bit, beside a held fit Hessian
        # that is G^T diag(phi''(hessian_at)) G to roundoff.  Seeding the
        # next stage with them, its factor slot empty, is seeding it with
        # fresh evaluations there beside the same Hessian, bit for bit
        model, param, first, carry = stage_end(principle)
        held = carry.pop()
        held.system.factor = None
        assert_carry_is_fresh_at(model, param, first.x, held)
        seeded_carry = [held]
        rebuilt_carry = [carry_at(model, param, first.x, held.system)]
        seeded = newton_stage(model, param.affine, 0.01, first.x, exact=exact,
                              carry=seeded_carry)
        rebuilt = newton_stage(model, param.affine, 0.01, first.x, exact=exact,
                               carry=rebuilt_carry)
        assert seeded.iterations > 0
        assert_same_stage(seeded, rebuilt)
        assert_same_carry(seeded_carry.pop(), rebuilt_carry.pop())
        # and a carry whose Hessian was formed at the start changes
        # nothing, bit for bit, against a stage that forms it there, but
        # saves that formation and the rows it reads
        p = model.probabilities(first.x)
        formed_at_start = NewtonSystem(model, param.dimension)
        formed_at_start.update(p, exact)
        formed_carry = [carry_at(model, param, first.x, formed_at_start)]
        fresh_carry = []
        formed = newton_stage(model, param.affine, 0.01, first.x, exact=exact,
                              carry=formed_carry)
        fresh = newton_stage(model, param.affine, 0.01, first.x, exact=exact,
                             carry=fresh_carry)
        assert_same_stage(formed, fresh, skip=("hessians", "hessian_rows"))
        assert formed.hessians == fresh.hessians - 1
        assert formed.hessian_rows == fresh.hessian_rows - p.size
        assert_same_carry(formed_carry.pop(), fresh_carry.pop())
        assert seeded_carry == rebuilt_carry == formed_carry == fresh_carry == []

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels", "hedged"])
    def test_one_derivative_evaluation_per_step_plus_one(self, principle, monkeypatch):
        # a derivative evaluation is a gradient_hessian call, or a gradient
        # call beside a held (lagged or constant) fit Hessian.  The only
        # other gradient call, the endgame's test of a full step, comes
        # with one barrier_grad call
        calls = []
        for owner, name in ((FitModel, "gradient_hessian"), (FitModel, "gradient"),
                            (AffineBlockMap, "barrier_grad")):
            original = getattr(owner, name)

            def counted(self, *args, original=original, name=name, **kwargs):
                calls.append(name)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        rng = np.random.default_rng(9)
        ds = sampled_dataset(interior_ensemble(3, rng), random_settings(rng, 12), 500, rng)
        spec = fit_spec(principle)
        result = reconstruct(ds, spec)
        assert result.converged
        lagged = calls.count("gradient") - calls.count("barrier_grad")
        assert calls.count("gradient_hessian") == result.total_hessians
        assert result.total_hessians + lagged == result.total_iterations + 1


class TestTangentStart:
    """A stage handed the factor that ended the last one starts with the
    central-path tangent step, then continues with Newton steps."""

    def test_first_direction_is_the_tangent_step(self, monkeypatch):
        # at a t-centre grad F = -t grad B, so the first direction
        # -M_t^-1 (grad F + t' grad B) is (t' - t) x'(t) with the tangent
        # x' = -M_t^-1 grad B; the centre must be exact to the 1e-10
        # compared here, so this stage is centred to a tighter tolerance
        rng = np.random.default_rng(4)
        ds = sampled_dataset(interior_ensemble(4, rng), random_settings(rng, 17), 500, rng)
        model = build_fit_model(ds, FitSpec.least_squares())
        param = model.parametrization
        carry = []
        centre = newton_stage(model, param.affine, 1.0, np.zeros(param.dimension),
                              SolverConfig(grad_tol=1e-11), carry=carry)
        H_fit = oracles.held_fit_hessian(carry[0].system)
        bg, bH, factor = (carry[0].barrier_gradient,
                          oracles.dense_hessian(carry[0].barrier_hessian), carry[0].system.factor)
        assert centre.decrement <= 1e-22 and factor is not None
        expected = (0.1 - 1.0) * -np.linalg.solve(1.0 * bH + H_fit, bg)
        directions = []
        original = NewtonSystem.tangent

        def recorded(self, g):
            delta, slope = original(self, g)
            directions.append(delta)
            return delta, slope

        monkeypatch.setattr(NewtonSystem, "tangent", recorded)
        newton_stage(model, param.affine, 0.1, centre.x, carry=carry)
        assert len(directions) == 1
        error = np.linalg.norm(directions[0] - expected)
        assert error <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    @pytest.mark.parametrize("max_iters", [1, 200])
    def test_stage_steps_and_reports_its_own_decrement(self, principle, max_iters):
        # the tangent's slope is formed with the last stage's system and
        # is never reported: a stage whose last direction was the
        # tangent reports NaN
        model, param, first, carry = stage_end(principle, exact=False)
        assert carry[0].system.factor is not None
        cfg = SolverConfig(max_newton_iters=max_iters)
        stage = newton_stage(model, param.affine, 0.01, first.x, cfg, exact=False, carry=carry)
        assert stage.iterations >= 1
        if max_iters == 1:
            assert math.isnan(stage.decrement)
        else:
            # the decrement of the system the stage solved, whose fit
            # Hessian may lag (LAG); the true Newton decrement is within
            # the factor (1 + LAG)^3 that keeps it in the quadratic region
            held = oracles.held_fit_hessian(carry[0].system)
            assert stage.decrement == pytest.approx(
                newton_decrement(model, param.affine, 0.01, stage.x, held), rel=1e-8)
            assert stage.decrement <= CENTERING * 0.01
            true = newton_decrement(model, param.affine, 0.01, stage.x)
            assert true <= (1.0 + LAG) ** 3 * stage.decrement * (1.0 + 1e-8)

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_failed_tangent_falls_back_to_newton(self, principle, monkeypatch):
        # with a non-descent tangent the stage takes the Newton direction
        # at the same point: exactly the stage started without a factor
        model, param, first, carry = stage_end(principle, exact=False)
        assert carry[0].system.factor is not None
        original = NewtonSystem.tangent

        def uphill(self, g):
            delta, slope = original(self, g)
            return -delta, -slope

        monkeypatch.setattr(NewtonSystem, "tangent", uphill)
        # a carry's system owns its Newton buffer and the rows' reference
        # p, which a stage writes in place: the second stage gets a copy
        plain_carry = [carry[0]._replace(system=copied(carry[0].system))]
        fallback = newton_stage(model, param.affine, 0.01, first.x, carry=carry)
        plain = newton_stage(model, param.affine, 0.01, first.x, carry=plain_carry)
        assert fallback.converged and fallback.iterations > 0
        assert_same_stage(fallback, plain)
        assert_same_carry(carry.pop(), plain_carry.pop())

    def test_no_factor_is_alive_during_derivative_evaluation(self, monkeypatch):
        # a factor is dropped once its direction is formed, or once the
        # next stage's tangent is: the Newton system's memory is not
        # held beside the fit Hessian being built
        factors, alive = [], []
        original_factor = reconstruct_module.cho_factor
        original_derivatives = FitModel.gradient_hessian

        def tracked(*args, **kwargs):
            factor = original_factor(*args, **kwargs)
            factors.append(weakref.ref(factor[0]))
            return factor

        def checked(self, p, out, **kwargs):
            alive.append(sum(ref() is not None for ref in factors))
            return original_derivatives(self, p, out, **kwargs)

        monkeypatch.setattr(reconstruct_module, "cho_factor", tracked)
        monkeypatch.setattr(FitModel, "gradient_hessian", checked)
        rng = np.random.default_rng([4, 0])
        state = interior_ensemble(4, rng)
        ds = sampled_dataset(state, random_settings(rng, 17), 500, rng)
        assert reconstruct(ds, FitSpec.max_lik()).converged
        assert len(factors) > 0 and len(alive) > 0
        assert max(alive) == 0

    @pytest.mark.parametrize("n, spec", [
        (4, FitSpec.max_lik()),
        (4, FitSpec.least_squares()),
        (4, FitSpec.free_least_squares()),
        (3, FitSpec.hedged(0.01)),
    ])
    def test_final_stage_gets_no_factor(self, n, spec, monkeypatch):
        rng = np.random.default_rng([n, 0 if spec.beta is None else 1])
        state = interior_ensemble(n, rng)
        settings = random_settings(rng, (n + 1) * (n + 2) // 2 + 2)
        ds = sampled_dataset(state, settings, 500, rng)
        received = []
        original = reconstruct_module.newton_stage

        def recording(*args, carry, **kwargs):
            received.append(carry[0].system.factor if carry else "empty")
            return original(*args, carry=carry, **kwargs)

        monkeypatch.setattr(reconstruct_module, "newton_stage", recording)
        result = reconstruct(ds, spec)
        assert result.converged
        assert len(received) == len(result.trace) >= 3
        assert received[0] == "empty"
        # a stage that ended on the decrement test hands on its factor;
        # one that ended on the gradient-norm test formed none
        for before, factor in zip(result.trace[:-2], received[1:-1]):
            assert isinstance(factor, tuple) == (not math.isnan(before.decrement))
        # the stage before the last ended on the decrement test, with a
        # factor; the last stage gets only the derivatives
        assert not math.isnan(result.trace[-2].decrement)
        assert received[-1] is None

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_stop_at_the_start_hands_on_no_factor(self, principle):
        # a carried stage that stops at its start on |g| <= grad_tol has
        # formed no direction: it neither uses the carried factor nor hands
        # it on, and the system the next stage gets holds none
        model, param, first, carry = stage_end(principle, exact=False)
        system = carry[0].system
        assert system.factor is not None
        stopped = newton_stage(model, param.affine, 0.01, first.x, SolverConfig(grad_tol=1e3),
                               exact=False, carry=carry)
        assert stopped.converged and stopped.iterations == 0
        assert math.isnan(stopped.decrement) and stopped.hessians == 0
        assert len(carry) == 1 and carry[0].system is system
        assert system.factor is None

    def test_carry_of_another_fit_is_refused(self):
        # the carry of an ML stage holds ML's system: its fit Hessian is
        # not the LS one, so an LS stage seeded with it would step and
        # stop on the wrong Newton system
        truth = dicke_mixture_state(4, seed=1)
        settings = design_random_settings(determined_setting_count(4), seed=2)
        ds = sample_dataset(truth, settings, 500, seed=3)
        ml = build_fit_model(ds, FitSpec.max_lik())
        ls = build_fit_model(ds, FitSpec.least_squares(), ml.parametrization)
        param = ml.parametrization
        carry = []
        centred = newton_stage(ml, param.affine, 1.0, param.centre, exact=False, carry=carry)
        with pytest.raises(ValueError, match="another fit"):
            newton_stage(ls, param.affine, 0.1, centred.x, carry=carry)
        # refused before it is used: the carry still seeds its own fit
        assert len(carry) == 1
        assert newton_stage(ml, param.affine, 0.1, centred.x, carry=carry).converged


class TestTSchedule:
    def test_default_schedule(self):
        sched = t_schedule(SolverConfig())
        assert len(sched) == 11
        np.testing.assert_allclose(sched[:-1], [10.0**-k for k in range(10)])
        assert sched[-1] == 1e-10
        assert all(a > b for a, b in zip(sched, sched[1:]))

    def test_hedged_floor(self):
        sched = t_schedule(SolverConfig(), floor=1e-3)
        np.testing.assert_allclose(sched, [1.0, 0.1, 0.01, 1e-3])
        assert sched[-1] == 1e-3

    def test_floor_at_or_above_t0(self):
        assert t_schedule(SolverConfig(), floor=2.0) == [2.0]
        assert t_schedule(SolverConfig(), floor=1.0) == [1.0]


class TestReconstructExactData:
    def test_maximally_mixed(self):
        rng = np.random.default_rng(0)
        layout = sector_layout(2)
        mm = maximally_mixed_ensemble(layout)
        ds = exact_dataset(mm, random_settings(rng, 6))
        result = reconstruct(ds, FitSpec.max_lik())
        assert result.converged
        assert trace_distance(result.estimate, mm) < 1e-6
        assert result.gap_bound == pytest.approx(1e-10 * layout.compressed_dim)
        assert len(result.trace) == 11
        assert result.total_iterations == sum(s.iterations for s in result.trace)

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_interior_truth_recovered(self, principle):
        rng = np.random.default_rng(42)
        truth = interior_ensemble(3, rng)
        # (N+1)(N+2)/2 = 10 settings are needed for identifiability at N=3.
        ds = exact_dataset(truth, random_settings(rng, 12))
        result = reconstruct(ds, FitSpec(principle=principle))
        assert result.converged
        assert trace_distance(result.estimate, truth) < 1e-5

    def test_boundary_truth_recovered(self):
        # Rank-one blocks: the optimum sits on the cone boundary, the
        # estimate approaches it along the central path.
        rng = np.random.default_rng(6)
        truth = pure_block_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 12))
        result = reconstruct(ds, FitSpec.max_lik())
        assert result.converged
        assert trace_distance(result.estimate, truth) < 1e-4

    def test_gap_certificate_brackets_optimum(self):
        # For exact data the optimal ML value is the data entropy; the
        # final fit value must lie within gap_bound above it.
        rng = np.random.default_rng(9)
        truth = interior_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 9))
        result = reconstruct(ds, FitSpec.max_lik())
        optimum = sum(
            -np.sum(rec.counts[rec.counts > 0] * np.log(rec.counts[rec.counts > 0]))
            for rec in ds.records
        )
        assert result.fit_value >= optimum - 1e-9
        assert result.fit_value <= optimum + result.gap_bound

    def test_stage_fit_values_decrease(self):
        rng = np.random.default_rng(9)
        truth = interior_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 9))
        result = reconstruct(ds, FitSpec.free_least_squares())
        values = [s.fit_value for s in result.trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_stage_t_follows_schedule(self):
        rng = np.random.default_rng(1)
        truth = interior_ensemble(2, rng)
        ds = exact_dataset(truth, random_settings(rng, 6))
        result = reconstruct(ds, FitSpec.max_lik())
        np.testing.assert_allclose(
            [s.t for s in result.trace], t_schedule(SolverConfig())
        )

    def test_hedged_stops_at_beta(self):
        rng = np.random.default_rng(12)
        truth = interior_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 12))
        beta = 1e-6
        result = reconstruct(ds, FitSpec.hedged(beta))
        layout = truth.layout
        assert result.trace[-1].t == beta
        assert result.gap_bound == pytest.approx(beta * layout.compressed_dim)
        # Reported value is likelihood plus the hedging penalty.
        param = Parametrization(layout)
        x = param.coordinates(result.estimate)
        penalty, _, _ = oracles.barrier_value_grad_hess(param.affine, x, beta)
        freqs = np.concatenate([np.asarray(r.counts, float) / r.repetitions
                                for r in ds.records])
        probs = np.concatenate([
            probabilities(result.estimate, rotated_blocks(3, r.setting))
            for r in ds.records
        ])
        likelihood = fit_value(FitSpec.max_lik(), freqs, probs)
        assert result.fit_value == pytest.approx(likelihood + penalty, rel=1e-9)
        assert trace_distance(result.estimate, truth) < 1e-3

    def test_strict_mode_raises(self):
        rng = np.random.default_rng(4)
        truth = interior_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 9))
        cfg = SolverConfig(max_newton_iters=1, strict=True)
        with pytest.raises(NonConvergenceError):
            reconstruct(ds, FitSpec.max_lik(), cfg)

    def test_warm_start_against_full_expansion(self):
        # Cross-check the compressed estimate against the 2^N-space truth.
        rng = np.random.default_rng(8)
        truth = interior_ensemble(2, rng)
        ds = exact_dataset(truth, random_settings(rng, 6))
        result = reconstruct(ds, FitSpec.max_lik())
        from pitomo.spin_blocks import expand_full

        full_est = expand_full(result.estimate)
        full_truth = expand_full(truth)
        assert oracles.full_trace_distance(full_est, full_truth) < 1e-5


def exact_path(dataset, spec, config=SolverConfig()):
    """Reference barrier path with every stage centred exactly, built
    from the public schedule and stage: (estimate, total Newton steps)."""
    model = build_fit_model(dataset, spec)
    param = model.parametrization
    x = np.zeros(param.dimension)
    steps = 0
    for t in t_schedule(config, spec.beta):
        stage = newton_stage(model, param.affine, t, x, config, exact=True)
        x, steps = stage.x, steps + stage.iterations
    return param.ensemble(x), steps


class TestApproximateCentring:
    """Intermediate stages centred to lambda^2 <= CENTERING * t reach the
    exact path's estimate in fewer Newton steps."""

    @pytest.mark.parametrize("data", ["sampled", "exact"])
    @pytest.mark.parametrize("truth", ["pure", "mixed"])
    @pytest.mark.parametrize("principle", ["ml", "ls", "freels", "hedged"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_estimate_in_fewer_steps(self, n, principle, truth, data):
        rng = np.random.default_rng([n, len(truth), len(data)])
        state = (pure_block_ensemble if truth == "pure" else interior_ensemble)(n, rng)
        settings = random_settings(rng, (n + 1) * (n + 2) // 2 + 2)
        ds = (sampled_dataset(state, settings, 1000, rng) if data == "sampled"
              else exact_dataset(state, settings))
        spec = fit_spec(principle)
        reference, reference_steps = exact_path(ds, spec)
        result = reconstruct(ds, spec)
        assert result.converged
        for two_j, block in reference.blocks.items():
            np.testing.assert_allclose(result.estimate.blocks[two_j], block, rtol=0, atol=1e-8)
        assert result.total_iterations <= reference_steps
        if n == 6 and principle == "ml":
            assert result.total_iterations <= 0.8 * reference_steps
        # an intermediate stage ends inside the quadratic region, or on
        # the gradient-norm test, which forms no direction (NaN decrement)
        for stage in result.trace[:-2]:
            assert (stage.decrement <= CENTERING * stage.t
                    or stage.grad_norm <= SolverConfig().grad_tol)
        for stage in result.trace[-2:]:
            assert not stage.decrement > SolverConfig().grad_tol ** 2


def lag_case(n, principle, truth, data, seed):
    """A dataset and fit spec of the lag tests: (N+1)(N+2)/2 + 2 random
    settings, 1000 shots or exact data, a pure-block or mixed truth."""
    rng = np.random.default_rng([n, seed, len(truth), len(data)])
    state = (pure_block_ensemble if truth == "pure" else interior_ensemble)(n, rng)
    settings = random_settings(rng, (n + 1) * (n + 2) // 2 + 2)
    ds = (sampled_dataset(state, settings, 1000, rng) if data == "sampled"
          else exact_dataset(state, settings))
    return ds, fit_spec(principle)


LAG_CASES = dict(
    n=st.integers(1, 6),
    principle=st.sampled_from(["ml", "hedged", "freels", "ls"]),
    truth=st.sampled_from(["pure", "mixed"]),
    data=st.sampled_from(["sampled", "exact"]),
    seed=st.integers(0, 2**16),
)
LAG_PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


class TestLaggedHessian:
    """Stages centred approximately reuse the fit Hessian while p moves
    by at most LAG; the exact stages while it moves by at most LAG times
    the last Newton direction's lambda^2 / t, and stop on a certified
    decrement."""

    @LAG_PROPERTY
    @given(**LAG_CASES)
    def test_same_estimate_as_fresh_path(self, n, principle, truth, data, seed):
        # LAG = -1 forms the Hessian at every step: the all-fresh path.
        # The default stop (|g| or lambda <= 1e-8) leaves either path up
        # to a few 1e-9 from the centre where the curvature is small (N <=
        # 3), so 1e-10 is compared with the centres pinned by grad_tol =
        # 1e-10, and the default answers to their stopping tolerance 1e-8
        ds, spec = lag_case(n, principle, truth, data, seed)
        for config, atol in ((SolverConfig(grad_tol=1e-10), 1e-10), (SolverConfig(), 1e-8)):
            lagged = reconstruct(ds, spec, config)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(reconstruct_module, "LAG", -1.0)
                fresh = reconstruct(ds, spec, config)
            assert lagged.converged and fresh.converged
            for two_j, block in fresh.estimate.blocks.items():
                np.testing.assert_allclose(lagged.estimate.blocks[two_j], block,
                                           rtol=0, atol=atol)
            if spec.principle != "ls":  # one Hessian per evaluation, steps + 1
                assert fresh.total_hessians > fresh.total_iterations

    @LAG_PROPERTY
    @given(**LAG_CASES)
    def test_exact_stages_hold_within_the_bound_and_stop_certified(self, n, principle,
                                                                   truth, data, seed):
        # The path is recorded as it runs: every fit derivative evaluation
        # (the point where the engine decides which rows of a held Hessian
        # stand), every fit Hessian formed or re-weighted, by the p_ref its
        # rows are then weighted at, and every Newton direction, each point
        # by the p = p0 + G x the fit reads it through.
        # Each held Hessian an exact-stage direction uses must be within
        # the hold limit of the stage that held it at that point, on every
        # row: LAG, or in an exact stage LAG * min(1, lambda^2 / t) of the
        # last Newton direction formed before it.  Each exact stage that stops on its
        # decrement test, (1 + drift)^k lambda^2 <= grad_tol^2, must have
        # a fresh-Hessian Newton decrement <= grad_tol^2 where it stops.
        ds, spec = lag_case(n, principle, truth, data, seed)
        config = SolverConfig()
        events, formed, stops = [], [], []
        state = {"exact": False}
        original_hessian = FitModel.gradient_hessian
        original_gradient = FitModel.gradient
        original_stage = reconstruct_module.newton_stage
        original_direction = NewtonSystem.direction

        def gradient_hessian(self, p, out, reference=None, **kwargs):
            events.append(("eval", p.copy(), state["exact"]))
            result = original_hessian(self, p, out, reference=reference, **kwargs)
            # the fit's one Newton buffer holds the latest Hessian, formed
            # at p or with its drifted rows re-weighted to p: row r is then
            # weighted at reference[r]
            formed.append(p.copy() if reference is None else reference.copy())
            return result

        def gradient(self, p):
            events.append(("eval", p.copy(), state["exact"]))
            return original_gradient(self, p)

        def stage(fit, affine, t, x, *args, exact, **kwargs):
            state["exact"] = exact
            result = original_stage(fit, affine, t, x, *args, exact=exact, **kwargs)
            stops.append((len(events), fit, affine, t, exact, result))
            return result

        def direction(self, H_bar, t, g):
            delta, slope = original_direction(self, H_bar, t, g)
            p = next(e[1] for e in reversed(events) if e[0] == "eval")
            events.append(("dir", p, state["exact"], t, -slope, len(formed) - 1))
            return delta, slope

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FitModel, "gradient_hessian", gradient_hessian)
            patch.setattr(FitModel, "gradient", gradient)
            patch.setattr(reconstruct_module, "newton_stage", stage)
            patch.setattr(NewtonSystem, "direction", direction)
            result = reconstruct(ds, spec, config)
        assert result.converged
        model = stops[0][1]
        power = {"ml": 2, "hedged": 2, "freels": 3, "ls": 0}[principle]

        def drift_of(i):
            """The drift of direction i's Hessian from where its rows were
            weighted."""
            _, p, _, _, _, key = events[i]
            return model.drift(p, formed[key]).max(initial=0.0)

        held = 0
        for i, event in enumerate(events):
            if event[0] != "dir" or not event[2] or principle == "ls":
                continue
            p, at = event[1], formed[event[5]]
            if np.array_equal(p, at):
                continue
            held += 1
            # the evaluation at p that decided the hold, and its limit
            check = max(j for j in range(i) if events[j][0] == "eval"
                        and np.array_equal(events[j][1], p))
            limit = LAG
            if events[check][2]:
                last = [e for e in events[:check] if e[0] == "dir"]
                limit = LAG * min(1.0, last[-1][4] / last[-1][3] if last else math.inf)
            assert drift_of(i) <= limit
        certified = 0
        for end, fit, affine, t, exact, stage_result in stops:
            if not exact or math.isnan(stage_result.decrement):
                continue
            i = max(j for j in range(end) if events[j][0] == "dir")
            assert events[i][4] == stage_result.decrement
            if (1.0 + drift_of(i)) ** power * events[i][4] > config.grad_tol ** 2:
                continue  # stopped by the line search, not on the decrement
            certified += 1
            true = newton_decrement(fit, affine, t, stage_result.x)
            assert true <= config.grad_tol ** 2 * (1.0 + 1e-6)
        # an exact stage that reports no decrement stopped on |g| <= grad_tol
        assert certified or all(math.isnan(s.decrement) for s in result.trace[-2:])

    @pytest.mark.parametrize("principle", ["ml", "freels"])
    def test_exact_stop_inflates_a_held_decrement(self, principle):
        # a carried Hessian is held whatever its drift; held with drift 0.1
        # its decrement lambda^2 bounds the true one only within 1.1^k, so
        # with lambda^2 <= grad_tol^2 < 1.1^k lambda^2 an exact stage must
        # step rather than stop at once on the held decrement alone
        model, param, first, _ = stage_end(principle)
        x, t = first.x, 0.01
        p = model.probabilities(x)
        g_fit, H = oracles.fit_gradient_hessian(model, p)
        _, bg, bH = param.affine.barrier_grad_hess(
            param.affine.cholesky_list(param.affine.blocks(x)))
        decrement = newton_decrement(model, param.affine, t, x)
        grad_tol = math.sqrt(1.1 * decrement)
        assert np.linalg.norm(g_fit + t * bg) > grad_tol
        system = system_holding(model, H, H.diagonal(), p / 1.1)
        carry = [StageCarry(p, g_fit, system, bg, bH)]
        assert system.inflation(p) == pytest.approx(1.1 ** model.curvature_power, rel=1e-12)
        stage = newton_stage(model, param.affine, t, x, SolverConfig(grad_tol=grad_tol),
                             exact=True, carry=carry)
        assert stage.iterations >= 1 and stage.converged

    def test_fewer_hessians_than_steps(self, monkeypatch):
        calls = []
        original = FitModel.gradient_hessian

        def counted(self, p, out, **kwargs):
            calls.append(None)
            return original(self, p, out, **kwargs)

        monkeypatch.setattr(FitModel, "gradient_hessian", counted)
        ds, spec = lag_case(6, "ml", "mixed", "sampled", 0)
        result = reconstruct(ds, spec)
        assert result.converged
        assert len(calls) == result.total_hessians < result.total_iterations

    def test_exact_stages_of_an_n12_fit_hold_their_hessians(self):
        # the two exact stages of an N=12 ML fit formed 7 fit Hessians when
        # they formed one at every Newton iterate; held within the
        # decrement-tied limit, they need at most 3, at no cost in steps
        truth = dicke_mixture_state(12, seed=5)
        ds = sample_dataset(truth, design_random_settings(91, seed=5), 1000, seed=5)
        lagged = reconstruct(ds, FitSpec.max_lik())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruct_module, "LAG", -1.0)
            fresh = reconstruct(ds, FitSpec.max_lik())
        assert lagged.converged and fresh.converged
        assert sum(stage.hessians for stage in lagged.trace[-2:]) <= 3
        assert ([stage.iterations for stage in lagged.trace]
                == [stage.iterations for stage in fresh.trace])

    def test_lag_costs_at_most_one_hessian_of_memory(self):
        # tracemalloc sees numpy's buffers; a warm-up fit fills the caches
        ds, spec = lag_case(8, "ml", "mixed", "sampled", 0)
        dim = Parametrization(sector_layout(8)).dimension
        reconstruct(ds, spec)

        def peak():
            tracemalloc.start()
            try:
                assert reconstruct(ds, spec).converged
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        lagged = peak()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruct_module, "LAG", -1.0)
            fresh = peak()
        assert lagged <= fresh + dim * dim * 8

    def test_only_the_carry_holds_a_hessian_or_factor(self, monkeypatch):
        # between stages, the one carried StageCarry is the only holder
        # of the Newton buffer (the held fit Hessian) and of a Newton
        # factor; once the fit returns, neither is alive
        hessians, factors, alive = [], [], []
        original_factor = reconstruct_module.cho_factor
        original_derivatives = FitModel.gradient_hessian
        original_stage = reconstruct_module.newton_stage

        def tracked_factor(*args, **kwargs):
            factor = original_factor(*args, **kwargs)
            factors.append(weakref.ref(factor[0]))
            return factor

        def tracked_derivatives(self, p, out, **kwargs):
            g, H = original_derivatives(self, p, out, **kwargs)
            hessians.append(weakref.ref(H))
            return g, H

        def stage(*args, carry, **kwargs):
            result = original_stage(*args, carry=carry, **kwargs)
            held = {id(carry[0].system.W)} if carry else set()
            if carry and carry[0].system.factor is not None:
                held.add(id(carry[0].system.factor[0]))
            for ref in hessians + factors:
                if ref() is not None:
                    alive.append(id(ref()) in held)
            return result

        monkeypatch.setattr(reconstruct_module, "cho_factor", tracked_factor)
        monkeypatch.setattr(FitModel, "gradient_hessian", tracked_derivatives)
        monkeypatch.setattr(reconstruct_module, "newton_stage", stage)
        ds, spec = lag_case(8, "ml", "mixed", "sampled", 0)
        result = reconstruct(ds, spec)
        assert result.converged and result.total_hessians < result.total_iterations
        assert alive and all(alive)
        assert all(ref() is None for ref in hessians + factors)


REFRESH_CASES = dict(
    principle=st.sampled_from(["ml", "freels", "hedged"]),
    seed=st.integers(0, 2**16),
    chunk=st.sampled_from([3, 12, 21, 1536]),
    spread=st.sampled_from([0.003, 0.03, 0.3]),
    limits=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=1, max_size=6),
    fill=st.sampled_from([math.nan, math.inf, 1.0]),
)


class TestRowRefresh:
    """A held fit Hessian re-weights only the rows that drifted past the
    hold limit, and stays G^T diag(phi''(hessian_at)) G to roundoff."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(**REFRESH_CASES)
    def test_refreshed_hessian_is_the_oracle_at_its_reference(self, principle, seed, chunk,
                                                             spread, limits, fill):
        # p wanders around an interior point, each row up or down (so the
        # weight changes of one refresh have both signs), over the 65 rows
        # of chunk_case, many of them with zero counts, built ROW_CHUNK // 3
        # rows at a time (1 and 4 and 7 rows cross chunk boundaries; 512 is
        # one chunk).  Each pass's limit is a fraction of LAG, 0 re-weighting
        # every drifted row.  The first pass forms the Hessian in a buffer
        # filled with ``fill``, of which it may read nothing.  Between
        # passes, NaN stands for the factor a Newton direction leaves in
        # the buffer's upper triangle and diagonal, which the held Hessian
        # must not read.  Every row r
        # carries the sum m_r of the |weights| it was ever given (its
        # formation's, then each refresh's change), and syrk sums of k
        # terms err by at most k eps |terms|, so after each pass
        #     |H_held - G^T diag(phi''(hessian_at)) G| <= 8 eps (rows + passes) |G|^T diag(m) |G|
        ds, spec = chunk_case(principle)
        model = build_fit_model(ds, spec)
        rng = np.random.default_rng(seed)
        centre = model.probabilities(
            0.5 * model.parametrization.coordinates(interior_ensemble(4, rng)))
        G = oracles.model_overlap(model)
        d = G.shape[1]
        system = NewtonSystem(model, d)
        system.W[...] = fill
        upper = np.triu_indices(d)
        weights = None
        eps = np.finfo(float).eps
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruct_module, "ROW_CHUNK", chunk)
            for passes, fraction in enumerate(limits, start=1):
                p = centre * np.exp(spread * rng.normal(size=centre.size))
                # an exact stage's limit LAG * min(1, ratio) is LAG * fraction
                system.ratio = fraction
                before = None if system.hessian_at is None else system.hessian_at.copy()
                counted = system.hessian_rows
                g_fit = system.update(p, exact=True)
                rows = system.hessian_rows - counted
                hessian_at = system.hessian_at
                system.W[upper] = np.nan
                assert np.array_equal(g_fit, model.gradient(p))
                assert np.all(model.drift(p, hessian_at) <= LAG * fraction)
                curvature = oracles.fit_curvature(model, hessian_at)
                if before is None:  # formed over every row
                    assert rows == p.size and np.array_equal(hessian_at, p)
                    weights = curvature
                else:
                    weights = weights + np.abs(curvature - oracles.fit_curvature(model, before))
                    moved = np.flatnonzero(hessian_at != before)
                    assert rows == moved.size
                    assert np.all(model.frequencies[moved] > 0)
                reference, _ = oracles.weighted_gram(G, curvature)
                _, scale = oracles.weighted_gram(G, weights)
                held = oracles.held_fit_hessian(system)
                bound = 8 * eps * (p.size + passes) * scale
                assert np.all(np.abs(held - reference) <= bound)


def chunk_case(principle):
    """An N=4 fit with 13 settings of 10 shots, so that many rows have
    zero counts, and 65 = 5 * 13 outcome rows."""
    rng = np.random.default_rng(13)
    state = interior_ensemble(4, rng)
    ds = sampled_dataset(state, random_settings(rng, 13), 10, rng)
    return ds, fit_spec(principle)


def memory_case():
    """An N=8 ML fit whose G spans four chunks of ``ROW_CHUNK`` rows."""
    rng = np.random.default_rng(8)
    state = interior_ensemble(8, rng)
    settings = random_settings(rng, 3 * reconstruct_module.ROW_CHUNK // 9 + 1)
    return sampled_dataset(state, settings, 1000, rng), FitSpec.max_lik()


def traced_peak(call):
    """(result, peak bytes allocated while ``call()`` ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowChunks:
    """A fit builds rows of G from its factors in chunks of ROW_CHUNK // 3
    rows, beside twice as much scratch: it holds G's factors plus the
    engine's d x d arrays, and never an array the size of G."""

    # ROW_CHUNK for syrk chunks of a third as many rows, on the 65 rows of
    # chunk_case: one chunk with rows to spare (the buffer then has G's 65
    # rows), exactly one chunk, one chunk and one row, two chunks less one
    # row, five full chunks
    CHUNKS = {"below": 390, "one": 195, "one+1": 192, "two-1": 99, "five": 39}

    @every_principle
    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    def test_hessian_matches_one_product(self, principle, chunk, monkeypatch):
        ds, spec = chunk_case(principle)
        whole = build_fit_model(ds, spec)
        monkeypatch.setattr(reconstruct_module, "ROW_CHUNK", chunk)
        # d = 34 zeroed and mirrored in blocks of 13, 13 and 8 rows: the
        # copies between blocks and a partial last block are all exercised
        monkeypatch.setattr(reconstruct_module, "MIRROR_ROWS", 13)
        model = build_fit_model(ds, spec)
        G = oracles.model_overlap(model)
        assert model.G.shape == G.shape and G.shape[0] == 65 and np.any(model.frequencies == 0)
        x = 0.5 * model.parametrization.coordinates(interior_ensemble(4, np.random.default_rng(1)))
        p = model.probabilities(x)
        _, H = oracles.fit_gradient_hessian(model, p)
        c = np.zeros_like(p)
        rows = model.loss.rows(model.frequencies)
        w = None if model.spec.weights is None else model.spec.weights[rows]
        c[rows] = model.loss.d2(model.frequencies[rows], p[rows], w)
        reference = G.T @ (c[:, None] * G)
        assert np.abs(H - reference).max() <= 1e-13 * np.abs(reference).max()
        assert np.array_equal(H, H.T) and H.flags.c_contiguous
        # into a caller's buffer, whatever it held, the same bits in the
        # lower triangle and diagonal, and its strict upper one untouched
        out = np.full_like(H, np.nan)
        _, into = model.gradient_hessian(p, out=out)
        lower = np.tril_indices_from(H)
        assert into is out and np.array_equal(out[lower], H[lower])
        assert np.all(np.isnan(out[np.triu_indices_from(H, 1)]))

    def test_gradient_hessian_holds_no_copy_of_G(self):
        # at most the Hessian, one chunk of weighted rows and a few
        # vectors of one entry per row; the whole weighted copy
        # sqrt(phi'') G would be G.nbytes more
        ds, spec = memory_case()
        model = build_fit_model(ds, spec)
        rows, d = model.G.shape
        assert rows > 3 * reconstruct_module.ROW_CHUNK
        p = model.probabilities(model.parametrization.centre)
        (_, H), peak = traced_peak(lambda: model.gradient_hessian(p, np.empty((d, d))))
        assert H.shape == (d, d)
        assert peak <= d * d * 8 + reconstruct_module.ROW_CHUNK * d * 8 + 16 * rows * 8

    def test_fit_holds_G_and_one_newton_buffer(self):
        # a step holds G's factors, the one Newton buffer (the held fit
        # Hessian and the factor) and the barrier Hessian's upper entries.
        # The slack of two chunks of ROW_CHUNK rows of d covers the
        # refresh's rows and scratch (one chunk), the build of the factors
        # (Y and the few rows of its recurrence) and the vectors of one
        # entry per row; an array the size of G (13 times its factors
        # here) does not fit in it.  A warm-up fit fills the caches
        ds, spec = memory_case()
        model = build_fit_model(ds, spec)
        rows, d = model.G.shape
        reconstruct(ds, spec)
        result, peak = traced_peak(lambda: reconstruct(ds, spec))
        assert result.converged
        assert rows * d * 8 > 2 * reconstruct_module.ROW_CHUNK * d * 8
        slack = 2 * reconstruct_module.ROW_CHUNK * d * 8
        barrier = model.parametrization.affine.directions.positions.size * 8
        assert peak <= model.G.nbytes + d * d * 8 + barrier + slack

    def test_build_holds_a_tenth_of_dense_G(self):
        # at N = 20 a dense G would take 69 MB; building a model holds G's
        # factors (1.8 MB), p0 and the frequencies, and computes Y from the
        # axes.  A warm-up build fills the shared parametrization and its
        # multipoles
        settings = design_random_settings(determined_setting_count(20), seed=20)
        ds = exact_dataset(maximally_mixed_ensemble(sector_layout(20)), settings)
        dense = math.prod(build_fit_model(ds, FitSpec.max_lik()).G.shape) * 8
        model, peak = traced_peak(lambda: build_fit_model(ds, FitSpec.max_lik()))
        assert dense > 68e6 and peak < 7e6
        assert model.G.nbytes < 2e6

    def test_no_step_allocates_a_d_by_d_array(self, monkeypatch):
        # the Newton system is formed and factored in the fit's one buffer,
        # and the barrier Hessian is its upper entries on the sector blocks
        # and shift columns: neither a direction (with its retries) nor the
        # barrier derivatives allocate d x d doubles at any moment.  The
        # buffer itself is allocated once, at the fit's first Hessian; each
        # refresh of its drifted rows writes into it too.  At N = 8 (d = 164)
        # the temporaries of the barrier's closed forms are below d^2
        rng = np.random.default_rng(8)
        ds = sampled_dataset(interior_ensemble(8, rng), random_settings(rng, 20), 1000, rng)
        spec = FitSpec.max_lik()
        d = build_fit_model(ds, spec).G.shape[1]
        peaks = {"direction": [], "barrier": []}
        buffers = []

        def measured(name, call):
            def wrapper(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = call(*args, **kwargs)
                peaks[name].append(tracemalloc.get_traced_memory()[1] - before)
                return result
            return wrapper

        original_hessian = FitModel.gradient_hessian

        def gradient_hessian(self, p, out, **kwargs):
            buffers.append(out)
            return original_hessian(self, p, out, **kwargs)

        monkeypatch.setattr(NewtonSystem, "direction",
                            measured("direction", NewtonSystem.direction))
        monkeypatch.setattr(AffineBlockMap, "barrier_grad_hess",
                            measured("barrier", AffineBlockMap.barrier_grad_hess))
        monkeypatch.setattr(FitModel, "gradient_hessian", gradient_hessian)
        reconstruct(ds, spec)  # fills the caches
        for record in (peaks["direction"], peaks["barrier"], buffers):
            record.clear()
        result, _ = traced_peak(lambda: reconstruct(ds, spec))
        assert result.converged
        assert len(peaks["direction"]) >= result.total_iterations > 0
        assert max(peaks["direction"] + peaks["barrier"]) < d * d * 8
        assert len(buffers) == result.total_hessians
        assert len({id(buffer) for buffer in buffers}) == 1 and buffers[0].shape == (d, d)

    def test_one_barrier_hessian_alive_at_a_time(self, monkeypatch):
        # the stage drops its barrier Hessian before it forms the next
        # fit or barrier Hessian
        barrier, alive = [], []
        original_barrier = reconstruct_module.AffineBlockMap.barrier_grad_hess
        original_derivatives = FitModel.gradient_hessian

        def count():
            alive.append(sum(ref() is not None for ref in barrier))

        def tracked_barrier(self, chols):
            count()
            value, grad, hess = original_barrier(self, chols)
            barrier.append(weakref.ref(hess))
            return value, grad, hess

        def checked(self, p, out, **kwargs):
            count()
            return original_derivatives(self, p, out, **kwargs)

        monkeypatch.setattr(reconstruct_module.AffineBlockMap, "barrier_grad_hess",
                            tracked_barrier)
        monkeypatch.setattr(FitModel, "gradient_hessian", checked)
        ds, spec = lag_case(5, "ml", "mixed", "sampled", 0)
        result = reconstruct(ds, spec)
        assert result.converged and len(barrier) > result.total_hessians
        assert max(alive) == 0


class TestProbabilitiesHandOff:
    """The engine forms p = p0 + G x once per point and hands it on."""

    @pytest.mark.parametrize("principle", ["ml", "ls"])
    def test_no_point_evaluates_p_twice(self, principle, monkeypatch):
        # a stage's start and each feasible trial point form p once; the
        # accepted trial's p serves the next iterate, and the p a stage
        # ends at serves the next stage's start.  Every stage start and
        # trial point (line search or endgame) factors the blocks once
        points, factored = [], []
        original_p = FitModel.probabilities
        original_factor = AffineBlockMap.cholesky_list

        def probabilities(self, x):
            points.append(x.tobytes())
            return original_p(self, x)

        def cholesky_list(self, blocks):
            factored.append(None)
            return original_factor(self, blocks)

        rng = np.random.default_rng([6, 1])
        ds = sampled_dataset(interior_ensemble(6, rng), random_settings(rng, 30), 1000, rng)
        monkeypatch.setattr(FitModel, "probabilities", probabilities)
        monkeypatch.setattr(AffineBlockMap, "cholesky_list", cholesky_list)
        result = reconstruct(ds, FitSpec(principle))
        assert result.converged and result.total_iterations > len(result.trace)
        assert len(points) == len(set(points))
        assert len(points) <= len(factored)

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels", "hedged"])
    def test_value_with_p_is_value(self, principle):
        rng = np.random.default_rng([3, 2])
        ds = sampled_dataset(interior_ensemble(3, rng), random_settings(rng, 12), 500, rng)
        spec = fit_spec(principle)
        model = build_fit_model(ds, spec)
        x = 0.01 * rng.normal(size=model.parametrization.dimension)
        # a fit reads a point only through p = probabilities(x): its value
        # there is the principle's at the state's outcome distribution
        state = model.parametrization.ensemble(x)
        direct = np.concatenate([probabilities(state, rotated_blocks(3, r.setting))
                                 for r in ds.records])
        assert model.value(model.probabilities(x)) == pytest.approx(
            fit_value(model.spec, model.frequencies, direct), rel=1e-12)
        # a linear objective's p is the point itself
        linear = LinearFit(rng.normal(size=x.size))
        assert linear.probabilities(x) is x
        assert linear.value(linear.probabilities(x)) == float(linear.c @ x)


class TestReconstructSampledData:
    def test_noisy_counts_land_near_truth(self):
        rng = np.random.default_rng(21)
        truth = interior_ensemble(3, rng)
        ds = sampled_dataset(truth, random_settings(rng, 12), 2000, rng)
        result = reconstruct(ds, FitSpec.max_lik())
        assert result.converged
        assert trace_distance(result.estimate, truth) < 0.1

    def test_principles_agree_on_large_samples(self):
        rng = np.random.default_rng(22)
        truth = interior_ensemble(2, rng)
        ds = sampled_dataset(truth, random_settings(rng, 8), 10**6, rng)
        estimates = [
            reconstruct(ds, FitSpec(principle=p)).estimate
            for p in ("ml", "ls", "freels")
        ]
        for a in estimates:
            for b in estimates:
                assert trace_distance(a, b) < 5e-3


def path_estimate(ds, spec, x0):
    """The estimate reconstruct's barrier path reaches from x0."""
    model = build_fit_model(ds, spec)
    cfg = SolverConfig()
    x = x0
    for _, stage in reconstruct_module._barrier_path(
            model, model.parametrization.affine, t_schedule(cfg, spec.beta), x0, cfg):
        assert stage.converged
        x = stage.x
    return model.parametrization.ensemble(x)


def assert_same_estimate(a, b, atol):
    for two_j, block in a.blocks.items():
        np.testing.assert_allclose(b.blocks[two_j], block, rtol=0, atol=atol)


class TestAnalyticCentre:
    """reconstruct starts its barrier path at the analytic centre of
    -sum_j log det rho_j on unit trace, the state with every block I/D."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.0, 1.0))
    def test_centre_minimizes_the_barrier(self, n, seed, fraction):
        param = reconstruct_module._shared_parametrization(sector_layout(n))
        D = param.layout.compressed_dim
        centre = param.ensemble(param.centre)
        for block in centre.blocks.values():
            np.testing.assert_allclose(block, np.eye(len(block)) / D, rtol=0, atol=1e-15)
        assert sum(np.trace(b).real for b in centre.blocks.values()) == pytest.approx(1.0, abs=1e-14)
        value, grad, _ = oracles.barrier_value_grad_hess(param.affine, param.centre, 1.0)
        assert np.abs(grad).max() <= 1e-13 * D
        if n <= 2:  # base is I/D already
            assert np.array_equal(param.centre, np.zeros(param.dimension))
        # any other unit-trace state, here on the segment from the centre
        # to a random interior one, has a larger barrier value
        other = interior_ensemble(n, np.random.default_rng(seed))
        x = param.centre + fraction * (param.coordinates(other) - param.centre)
        other_value = oracles.barrier_value_grad_hess(param.affine, x, 1.0)[0]
        assert other_value >= value - 1e-12 * abs(value)

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels", "hedged"])
    @pytest.mark.parametrize("n, data", [(4, "sampled"), (4, "exact"), (8, "sampled")])
    def test_same_estimate_as_from_maximally_mixed(self, n, data, principle):
        # the start changes the path, not its end; exact data leave flat
        # directions that the default stop resolves only to about 1e-5
        rng = np.random.default_rng([n, len(principle), len(data)])
        state = interior_ensemble(n, rng)
        settings = random_settings(rng, (n + 1) * (n + 2) // 2 + 2)
        ds = (sampled_dataset(state, settings, 1000, rng) if data == "sampled"
              else exact_dataset(state, settings))
        spec = fit_spec(principle)
        param = reconstruct_module._shared_parametrization(sector_layout(n))
        assert_same_estimate(path_estimate(ds, spec, np.zeros(param.dimension)),
                             path_estimate(ds, spec, param.centre),
                             1e-10 if data == "sampled" else 1e-6)

    @pytest.mark.parametrize("principle", ["ml", "ls"])
    def test_first_stage_is_short(self, principle):
        # from the compressed maximally mixed state the first stage spends
        # 6-7 Newton steps on re-centring the barrier alone
        n = 12
        truth = dicke_mixture_state(n, seed=5)
        rng = np.random.default_rng(5)
        ds = sample_dataset(truth, design_random_settings(91, seed=rng), 1000, seed=rng)
        spec = fit_spec(principle)
        cfg = SolverConfig(t_min=1e-2)  # t = 1, 0.1, 0.01: the first stage is approximate
        result = reconstruct(ds, spec, cfg)
        assert result.converged
        assert result.trace[0].iterations <= 3
        model = build_fit_model(ds, spec)
        param = model.parametrization
        from_zero = newton_stage(model, param.affine, cfg.t0, np.zeros(param.dimension), cfg,
                                 exact=False)
        assert from_zero.iterations > 3


def antipodal_case(n, seed, both):
    """(along a, along -a): a sampled dataset, and the same counts with a
    random subset of its records moved to -a with the outcomes reversed
    (k -> N - k).  With ``both`` the subset is measured twice instead:
    along a and again along a, or along a and along -a."""
    rng = np.random.default_rng([n, seed])
    state = interior_ensemble(n, rng)
    ds = sampled_dataset(state, random_settings(rng, (n + 1) * (n + 2) // 2 + 2), 1000, rng)
    flip = rng.random(len(ds.records)) < 0.5
    flip[0] = True
    moved = [Record(Setting(axis=-r.setting.axis), r.counts[::-1], r.repetitions)
             for r in ds.records]
    if both:
        return (Dataset(n, ds.records + tuple(r for r, f in zip(ds.records, flip) if f)),
                Dataset(n, ds.records + tuple(m for m, f in zip(moved, flip) if f)))
    return ds, Dataset(n, [m if f else r for r, m, f in zip(ds.records, moved, flip)])


class TestAntipodalSettings:
    """sim and reconstruct accept antipodal settings (only DesignProblem
    rejects them): a record along -a is the record along a with its
    outcomes reversed, k -> N - k, so it gives the same estimate."""

    @settings(derandomize=True, deadline=None, max_examples=16)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**16),
           principle=st.sampled_from(["ml", "ls", "freels", "hedged"]), both=st.booleans())
    def test_reversed_record_along_minus_a_gives_same_estimate(self, n, seed, principle,
                                                               both):
        along_a, along_minus_a = antipodal_case(n, seed, both)
        if both:
            axes = [rec.setting.axis for rec in along_minus_a.records]
            assert any(np.array_equal(u, -v) for u in axes for v in axes)
        spec = fit_spec(principle)
        ours, theirs = reconstruct(along_a, spec), reconstruct(along_minus_a, spec)
        assert ours.converged and theirs.converged
        assert_same_estimate(ours.estimate, theirs.estimate, 1e-10)


class TestDatasetValidation:
    # the dataset constructors check what a fit reads, so no invalid
    # dataset reaches build_fit_model
    def test_wrong_outcome_count(self):
        rng = np.random.default_rng(0)
        rec = Record(random_settings(rng, 1)[0], np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="counts"):
            Dataset(2, [rec])

    def test_negative_counts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="negative"):
            Record(random_settings(rng, 1)[0], np.array([-0.1, 0.6, 0.5]), 1.0)

    def test_sum_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="inconsistent"):
            Record(random_settings(rng, 1)[0], np.array([0.2, 0.5, 0.3]), 2.0)

    def test_nonpositive_repetitions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="repetitions"):
            Record(random_settings(rng, 1)[0], np.array([0.0, 0.0, 0.0]), 0.0)

    def test_counted_data_accepted(self):
        rng = np.random.default_rng(0)
        rec = Record(random_settings(rng, 1)[0], np.array([200, 500, 300]), 1000)
        model = build_fit_model(Dataset(2, [rec]), FitSpec.max_lik())
        np.testing.assert_allclose(model.frequencies, [0.2, 0.5, 0.3])


class TestFixedPoint:
    def test_exact_data_is_fixed(self):
        # f = p(maximally mixed) makes R a multiple of the identity.
        rng = np.random.default_rng(2)
        layout = sector_layout(3)
        mm = maximally_mixed_ensemble(layout)
        ds = exact_dataset(mm, random_settings(rng, 5))
        result = fixed_point_reconstruct(ds, iterations=50)
        assert result.iterations == 50
        assert result.fit_trace.shape == (51,)
        np.testing.assert_allclose(
            result.fit_trace, result.fit_trace[0], rtol=0, atol=1e-12
        )
        assert trace_distance(result.estimate, mm) < 1e-12

    def test_custom_start_fixed_point(self):
        rng = np.random.default_rng(14)
        truth = interior_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 9))
        result = fixed_point_reconstruct(ds, iterations=20, start=truth)
        assert trace_distance(result.estimate, truth) < 1e-10

    def test_agrees_with_convex_solver(self):
        rng = np.random.default_rng(17)
        truth = interior_ensemble(3, rng)
        ds = sampled_dataset(truth, random_settings(rng, 12), 1000, rng)
        convex = reconstruct(ds, FitSpec.max_lik())
        fp = fixed_point_reconstruct(ds, iterations=3000)
        assert trace_distance(fp.estimate, convex.estimate) < 1e-3
        # The iteration never undercuts the convex optimum.
        assert fp.fit_trace[-1] >= convex.fit_value - convex.gap_bound - 1e-9

    def test_fit_trace_decreases(self):
        rng = np.random.default_rng(17)
        truth = interior_ensemble(3, rng)
        ds = sampled_dataset(truth, random_settings(rng, 12), 1000, rng)
        fp = fixed_point_reconstruct(ds, iterations=300)
        diffs = np.diff(fp.fit_trace)
        assert np.all(diffs <= 1e-10)

    def test_degenerate_data_raises(self):
        # Start state entirely in the N=2 singlet sector, but all counts on
        # an outcome the singlet never produces (zero "+1" results needs
        # j = 1): the multiplicative update annihilates the state and the
        # normalization collapses to zero.
        layout = sector_layout(2)
        start = SpinEnsemble(
            layout=layout,
            blocks={2: np.zeros((3, 3), complex), 0: np.array([[1.0 + 0j]])},
        )
        setting = Setting(axis=np.array([0.0, 0.0, 1.0]))
        rec = Record(setting, np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            fixed_point_reconstruct(Dataset(2, [rec]), iterations=5, start=start)

    def test_rejects_negative_iterations(self):
        rng = np.random.default_rng(5)
        ds = exact_dataset(interior_ensemble(2, rng), random_settings(rng, 4))
        with pytest.raises(ValueError, match="iterations"):
            fixed_point_reconstruct(ds, iterations=-1)
        assert fixed_point_reconstruct(ds, iterations=0).fit_trace.shape == (1,)

    @pytest.mark.parametrize("start_n", [3, 6])
    def test_rejects_start_of_other_size(self, start_n):
        rng = np.random.default_rng(5)
        ds = exact_dataset(interior_ensemble(4, rng), random_settings(rng, 4))
        start = maximally_mixed_ensemble(sector_layout(start_n))
        with pytest.raises(ValueError, match=f"start state has N={start_n}"):
            fixed_point_reconstruct(ds, iterations=2, start=start)


class TestLikelihoodResidual:
    def test_zero_at_exact_truth(self):
        rng = np.random.default_rng(23)
        truth = interior_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 9))
        assert likelihood_residual(ds, truth) < 1e-10

    def test_small_at_convex_estimate(self):
        rng = np.random.default_rng(24)
        truth = interior_ensemble(3, rng)
        ds = sampled_dataset(truth, random_settings(rng, 9), 1000, rng)
        result = reconstruct(ds, FitSpec.max_lik())
        res_est = likelihood_residual(ds, result.estimate)
        res_mm = likelihood_residual(
            ds, maximally_mixed_ensemble(sector_layout(3))
        )
        assert res_est < 1e-5
        assert res_est < res_mm

    def test_layout_mismatch(self):
        rng = np.random.default_rng(0)
        truth = interior_ensemble(3, rng)
        ds = exact_dataset(truth, random_settings(rng, 4))
        with pytest.raises(ValueError):
            likelihood_residual(ds, maximally_mixed_ensemble(sector_layout(2)))


class TestAffineBlockMapDirect:
    def test_constant_only_map(self):
        # A map with no directions reproduces its constants and a scalar
        # barrier.
        const = np.eye(2, dtype=complex) * 0.5
        none = RankOneBlocks([np.zeros((2, 0))], [np.zeros(0)], [np.zeros(0, np.intp)], 0)
        amap = AffineBlockMap([const], none, [], 0)
        blocks = amap.blocks(np.zeros(0))
        np.testing.assert_allclose(blocks[0], const)
        chols = amap.cholesky_list(blocks)
        assert amap.barrier_value(chols) == pytest.approx(-math.log(0.25))


def random_block_map(rng, sizes, m, dim, floor=0.05):
    """Rank-one Hermitian blocks of the given sizes plus one diagonal
    block of m slacks; each block reads a random subset of the dim
    coordinates, so coordinates are shared between blocks.  A Hermitian
    direction is w v v^dagger with v a random complex unit column and w
    a signed weight in (-1, 1); every constant has smallest eigenvalue
    (or slack) ``floor`` and every direction spectral norm below 1, so x
    with |x|_1 < floor stays interior."""
    constants, columns, weights, indices = [], [], [], []
    for n in sizes:
        q = int(rng.integers(0, dim + 1))
        V = rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q))
        columns.append(V / np.linalg.norm(V, axis=0))
        weights.append(rng.uniform(-1.0, 1.0, q))
        indices.append(rng.choice(dim, size=q, replace=False))
        vecs = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        eigs = np.concatenate([[floor], rng.uniform(floor, 2.0, n - 1)])
        constants.append((vecs * eigs) @ vecs.conj().T)
    q = int(rng.integers(0, dim + 1))
    diagonal = (floor + rng.uniform(0.0, 2.0, m), rng.uniform(-1.0, 1.0, size=(q, m)),
                rng.choice(dim, size=q, replace=False))
    return AffineBlockMap(constants, RankOneBlocks(columns, weights, indices, dim),
                          [diagonal], dim)


def rank_one_parts(amap):
    """(V, w, idx) of each rank-one block of a map, padding removed."""
    kind = amap.directions
    for C, V, w, idx in zip(amap.constants, kind.columns, kind.weights, kind.indices):
        keep = idx < amap.dim
        yield V[: C.shape[0], keep], w[keep], idx[keep]


def dense_terms(amap, param=None):
    """(constant, dense direction stack, indices) of every block of a
    map: the oracle's Gell-Mann basis and trace shifts for the map of
    ``param``, w v v^dagger from the map's columns for a rank-one map,
    and diagonal blocks as diagonal matrices."""
    if param is not None:
        hermitian = [(oracles.sector_directions(C.shape[0], coeff), idx) for C, coeff, idx
                     in zip(amap.constants, param.shift_coeff, param.indices)]
    else:
        hermitian = [(w[:, None, None] * np.einsum("mq,nq->qmn", V, V.conj()), idx)
                     for V, w, idx in rank_one_parts(amap)]
    terms = [(C, D, idx) for C, (D, idx) in zip(amap.constants, hermitian)]
    for c, D, idx in amap.diagonal:
        terms.append((np.diag(c), np.einsum("qm,mn->qmn", D, np.eye(c.size)), idx))
    return terms


def barrier_oracle(terms, x):
    """-sum log det B_b(x), its gradient -tr(B^-1 D_i) and Hessian
    tr(B^-1 D_i B^-1 D_l) from dense inverses, over ``dense_terms``."""
    value, grad = 0.0, np.zeros(x.size)
    hess = np.zeros((x.size, x.size))
    for C, D, idx in terms:
        B = C + np.einsum("q,qmn->mn", x[idx], D)
        BD = np.linalg.inv(B) @ D
        value -= np.linalg.slogdet(B)[1]
        grad[idx] -= np.einsum("qmm->q", BD).real
        hess[np.ix_(idx, idx)] += np.einsum("imn,lnm->il", BD, BD).real
    return value, grad, hess


def ray_limit(mu):
    """1 / max(-mu) over the eigenvalues that fall by more than
    roundoff, inf if none.  A step of rank below its block's size leaves
    eigenvalues that are zero up to roundoff (about 1e-16 |mu|), and a
    limit of order 1e16 drawn from one of them is not a boundary."""
    falling = -mu[mu < -1e-12 * np.abs(mu).max(initial=1.0)]
    return 1.0 / falling.max() if falling.size else math.inf


def assert_close(actual, expected, rel):
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= rel * scale


BARRIER_PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
MAP_SHAPES = dict(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    m=st.integers(1, 4),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


class TestBarrierProperties:
    """The barrier layer of AffineBlockMap against dense-inverse oracles."""

    @BARRIER_PROPERTY
    @given(**MAP_SHAPES)
    def test_derivatives_match_oracle(self, sizes, m, dim, seed):
        rng = np.random.default_rng(seed)
        amap = random_block_map(rng, sizes, m, dim)
        x = rng.uniform(-1.0, 1.0, dim)
        x *= 0.04 / np.abs(x).sum()  # |x|_1 below the floor 0.05: interior
        chols = amap.cholesky_list(amap.blocks(x))
        assert chols is not None
        value, grad, hess = amap.barrier_grad_hess(chols)
        hess = oracles.dense_hessian(hess)
        ref_value, ref_grad, ref_hess = barrier_oracle(dense_terms(amap), x)
        assert_close(value, ref_value, 1e-10)
        assert_close(grad, ref_grad, 1e-10)
        assert_close(hess, ref_hess, 1e-10)
        assert np.array_equal(hess, hess.T)
        assert amap.barrier_value(chols) == value
        value_only, grad_only = amap.barrier_grad(chols)
        assert value_only == value
        assert_close(grad_only, grad, 1e-12)

    @BARRIER_PROPERTY
    @given(**MAP_SHAPES, scale=st.floats(0.0, 10.0),
           nan_at=st.one_of(st.none(), st.integers(0, 5)),
           pinned=st.sampled_from([-1.0, 0.0, 1.0]))
    def test_cholesky_list_none_iff_not_positive(self, sizes, m, dim, seed, scale,
                                                 nan_at, pinned):
        # one slack ignores x and is pinned at -1, 0 or 1; a NaN
        # coordinate poisons every block that reads it
        rng = np.random.default_rng(seed)
        amap = random_block_map(rng, sizes, m, dim)
        slacks, D, _ = amap.diagonal[0]
        slacks[0] = pinned
        D[:, 0] = 0.0
        x = rng.uniform(-1.0, 1.0, dim)
        x *= scale * 0.05 / np.abs(x).sum()
        if nan_at is not None:
            x[nan_at % dim] = np.nan
        blocks = amap.blocks(x)

        def positive(blk):
            if not np.all(np.isfinite(blk)):
                return False
            if blk.ndim == 1:
                return bool(np.all(blk > 0.0))
            lowest = np.linalg.eigvalsh(blk)[0]
            # Cholesky and eigvalsh may disagree within roundoff of zero
            assume(abs(lowest) > 1e-9)
            return lowest > 0.0

        feasible = all([positive(blk) for blk in blocks])
        assert (amap.cholesky_list(blocks) is None) == (not feasible)

    @BARRIER_PROPERTY
    @given(**MAP_SHAPES, fraction=st.floats(1e-3, 0.99), length=st.floats(0.01, 100.0))
    def test_ray_barrier_is_exact(self, sizes, m, dim, seed, fraction, length):
        # -log det(x + a delta) = -log det(x) - sum log(1 + a mu), a < a_max
        rng = np.random.default_rng(seed)
        amap = random_block_map(rng, sizes, m, dim)
        x = rng.uniform(-1.0, 1.0, dim)
        x *= 0.04 / np.abs(x).sum()
        chols = amap.cholesky_list(amap.blocks(x))
        delta = rng.normal(size=dim)
        mu = amap.ray_eigenvalues(chols, delta)
        limit = ray_limit(mu)
        alpha = fraction * (limit if limit < math.inf else length)
        moved = amap.cholesky_list(amap.blocks(x + alpha * delta))
        assert moved is not None
        assert_close(amap.barrier_value(chols) - np.sum(np.log1p(alpha * mu)),
                     amap.barrier_value(moved), 1e-10)

    @BARRIER_PROPERTY
    @given(**MAP_SHAPES)
    def test_ray_limit_is_the_feasibility_limit(self, sizes, m, dim, seed):
        rng = np.random.default_rng(seed)
        amap = random_block_map(rng, sizes, m, dim)
        x = rng.uniform(-1.0, 1.0, dim)
        x *= 0.04 / np.abs(x).sum()
        chols = amap.cholesky_list(amap.blocks(x))
        delta = rng.normal(size=dim)
        mu = amap.ray_eigenvalues(chols, delta)
        alpha_max = ray_limit(mu)
        assume(alpha_max < math.inf)
        assert amap.cholesky_list(amap.blocks(x + 0.999 * alpha_max * delta)) is not None
        assert amap.cholesky_list(amap.blocks(x + 1.001 * alpha_max * delta)) is None

    def test_diagonal_block_equals_scalar_blocks(self):
        rng = np.random.default_rng(11)
        dim, m = 5, 6
        herm = random_block_map(rng, [3], m, dim)
        c, D, idx = herm.diagonal[0]
        [(V, w, own)] = rank_one_parts(herm)
        # slack k as a 1 x 1 rank-one block: column 1, weights D[:, k]
        ones = np.ones((1, idx.size))
        scalars = AffineBlockMap(
            herm.constants + [np.array([[v]]) for v in c],
            RankOneBlocks([V] + [ones] * m, [w] + list(D.T), [own] + [idx] * m, dim),
            [],
            dim,
        )
        x = rng.uniform(-1.0, 1.0, dim)
        x *= 0.04 / np.abs(x).sum()
        ours = herm.barrier_grad_hess(herm.cholesky_list(herm.blocks(x)))
        theirs = scalars.barrier_grad_hess(scalars.cholesky_list(scalars.blocks(x)))
        for a, b in zip(ours[:2], theirs[:2]):
            assert_close(a, b, 1e-12)
        assert_close(oracles.dense_hessian(ours[2]), oracles.dense_hessian(theirs[2]), 1e-12)

    def test_repeated_index_within_block_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RankOneBlocks([np.ones((2, 2))], [np.ones(2)], [[0, 0]], 1)
        none = RankOneBlocks([], [], [], 1)
        with pytest.raises(ValueError, match="distinct"):
            AffineBlockMap([], none, [(np.ones(2), np.zeros((2, 2)), [0, 0])], 1)


class TestGellMannClosedForm:
    """Parametrization's barrier derivatives, read off rho^-1 in closed
    form, against the dense-inverse oracle."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.0, 1.0))
    def test_matches_dense_oracle(self, n, seed, fraction):
        # N=1 is one 2x2 block without shift coordinates; even N ends in
        # a 1x1 block without pairs
        param = Parametrization(sector_layout(n))
        amap = param.affine
        x = fraction * param.coordinates(interior_ensemble(n, np.random.default_rng(seed)))
        chols = amap.cholesky_list(amap.blocks(x))
        value, grad, hess = amap.barrier_grad_hess(chols)
        hess = oracles.dense_hessian(hess)
        ref_value, ref_grad, ref_hess = barrier_oracle(dense_terms(amap, param), x)
        assert_close(value, ref_value, 1e-12)
        assert_close(grad, ref_grad, 1e-12)
        assert_close(hess, ref_hess, 1e-12)
        assert np.array_equal(hess, hess.T)
        value_only, grad_only = amap.barrier_grad(chols)
        assert amap.barrier_value(chols) == value == value_only
        assert np.array_equal(grad_only, grad)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("pair_slice", [1, 3, 50])
    def test_pair_slices_write_the_same_bits(self, n, pair_slice):
        # the pair-pair terms of every block in slices of 1, 3 or 50 (slices
        # that cross blocks, or split the (S_p, Y_p) terms of one pair p from
        # its neighbours) write every entry one slice writes, to roundoff:
        # numpy's vector and scalar loops may round a complex product
        # differently.  N = 2 already takes two slices of its 6 terms
        param = Parametrization(sector_layout(n))
        tables = param.affine.directions
        x = 0.5 * param.coordinates(interior_ensemble(n, np.random.default_rng(n)))
        A = param.affine.cholesky_list(param.affine.blocks(x)).inverse
        whole, sliced = (reconstruct_module.BlockHessian(tables.positions) for _ in range(2))
        saved = tables.pair_slice
        try:
            tables.pair_slice = tables.pp_src.shape[1]
            tables.hessian(A, whole)
            tables.pair_slice = pair_slice
            tables.hessian(A, sliced)
        finally:
            tables.pair_slice = saved
        scale = np.abs(whole.data).max()
        np.testing.assert_allclose(sliced.data, whole.data, rtol=0,
                                   atol=4 * np.finfo(float).eps * scale)
        assert (n == 2) == (saved < tables.pp_src.shape[1])


def assert_upper_positions(hess, dim):
    """``positions`` strictly increasing, in the upper triangle of a
    (dim, dim) matrix, one value per position."""
    rows, cols = np.divmod(hess.positions, dim)
    assert np.all(np.diff(hess.positions) > 0)
    assert np.all(rows <= cols) and hess.positions[-1] < dim * dim
    assert hess.data.shape == hess.positions.shape


class TestBlockHessian:
    """The barrier Hessian as its upper entries at their Newton-matrix
    positions (sector blocks plus the trace-shift columns), and the Newton
    system formed in the fit's one buffer, against the dense routes they
    replaced (``oracles.reference_barrier_hessian`` and
    ``oracles.reference_newton_direction``), bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.0, 1.0))
    def test_gell_mann_blocks_expand_to_the_dense_hessian(self, n, seed, fraction):
        # the upper triangle of one block per sector's n^2 - 1 Gell-Mann
        # coordinates, and of the S = sectors - 1 trace-shift columns
        param = reconstruct_module._shared_parametrization(sector_layout(n))
        amap = param.affine
        x = fraction * param.coordinates(interior_ensemble(n, np.random.default_rng(seed)))
        chols = amap.cholesky_list(amap.blocks(x))
        _, _, hess = amap.barrier_grad_hess(chols)
        sizes = [(t + 1) ** 2 - 1 for t in param.layout.two_j_values]
        d, S = param.dimension, param.layout.num_sectors - 1
        assert_upper_positions(hess, d)
        assert hess.positions.size == (sum(k * (k + 1) // 2 for k in sizes)
                                       + S * (d - S) + S * (S + 1) // 2)
        assert np.array_equal(oracles.dense_hessian(hess),
                              oracles.reference_barrier_hessian(amap, chols, param))

    @BARRIER_PROPERTY
    @given(**MAP_SHAPES)
    def test_rank_one_maps_are_the_whole_upper_triangle(self, sizes, m, dim, seed):
        rng = np.random.default_rng(seed)
        amap = random_block_map(rng, sizes, m, dim)
        x = rng.uniform(-1.0, 1.0, dim)
        x *= 0.04 / np.abs(x).sum()
        chols = amap.cholesky_list(amap.blocks(x))
        _, _, hess = amap.barrier_grad_hess(chols)
        assert_upper_positions(hess, dim)
        assert hess.positions.size == dim * (dim + 1) // 2
        assert np.array_equal(oracles.dense_hessian(hess),
                              oracles.reference_barrier_hessian(amap, chols))

    def test_diagonal_block_needs_border_coordinates(self):
        # a slack on a sector's Gell-Mann coordinate would couple it with
        # every coordinate of the slack block, outside the sector block
        param = Parametrization(sector_layout(3))
        affine = param.affine
        with pytest.raises(ValueError, match="border"):
            AffineBlockMap(affine.constants, affine.directions,
                           [(np.ones(1), np.ones((1, 1)), [0])], param.dimension)
        shift = param.dimension - 1
        AffineBlockMap(affine.constants, affine.directions,
                       [(np.ones(1), np.ones((1, 1)), [shift])], param.dimension)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           t=st.floats(1e-10, 10.0), ridge=st.booleans())
    def test_newton_direction_matches_the_dense_route(self, n, seed, t, ridge):
        # a random held fit Hessian in the buffer's strict lower triangle
        # (the upper one and the diagonal NaN, so that reading them shows);
        # with ``ridge`` it is shifted so that the system's least
        # eigenvalue is -5e-12 (1 + max diag): the factorization fails until
        # the ridge grows past it
        rng = np.random.default_rng(seed)
        param = reconstruct_module._shared_parametrization(sector_layout(n))
        amap = param.affine
        x = 0.5 * param.coordinates(interior_ensemble(n, rng))
        _, _, bH = amap.barrier_grad_hess(amap.cholesky_list(amap.blocks(x)))
        H_bar = oracles.dense_hessian(bH)
        d = param.dimension
        F = rng.normal(size=(2 * d, d))
        H_fit = F.T @ F
        H_fit = np.triu(H_fit) + np.triu(H_fit, 1).T
        if ridge:
            system = t * H_bar + H_fit
            scale = 1.0 + system.diagonal().max()
            H_fit -= (np.linalg.eigvalsh(system)[0] + 5e-12 * scale) * np.eye(d)
        g = rng.normal(size=d)
        W = H_fit.copy()
        W[np.triu_indices(d)] = np.nan
        lower = np.tril(W, -1)
        system = system_holding(None, W, H_fit.diagonal(), None)
        factored = []
        original = reconstruct_module.cho_factor

        def counted(*args, **kwargs):
            factored.append(None)
            return original(*args, **kwargs)

        try:
            expected = oracles.reference_newton_direction(H_fit, H_bar, t, g)
        except NonConvergenceError:
            with pytest.raises(NonConvergenceError):
                system.direction(bH, t, g)
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruct_module, "cho_factor", counted)
            delta, slope = system.direction(bH, t, g)
        assert np.array_equal(delta, expected[0]) and slope == expected[1]
        assert system.ratio == -slope / t
        # the factor is the buffer's upper triangle, and the held Hessian
        # is still its strict lower triangle and diagonal vector
        factor = system.factor
        assert factor[0].base is system.W and factor[1] == expected[2][1]
        assert np.array_equal(np.triu(system.W), np.triu(expected[2][0].T))
        assert np.array_equal(np.tril(system.W, -1), lower)
        assert np.array_equal(system.diagonal, H_fit.diagonal())
        if ridge:
            assert len(factored) > 1

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_one_buffer_per_fit(self, principle, monkeypatch):
        # every stage of a fit's barrier path hands on the same buffer,
        # and the factor it hands on, if any, is that buffer's triangle
        carried = []
        original = reconstruct_module.newton_stage

        def stage(*args, carry, **kwargs):
            result = original(*args, carry=carry, **kwargs)
            carried.append((carry[0].system, carry[0].system.factor))
            return result

        monkeypatch.setattr(reconstruct_module, "newton_stage", stage)
        rng = np.random.default_rng([5, 2])
        ds = sampled_dataset(interior_ensemble(4, rng), random_settings(rng, 17), 500, rng)
        result = reconstruct(ds, fit_spec(principle))
        assert result.converged and len(carried) == len(result.trace) >= 3
        system = carried[0][0]
        W = system.W
        d = build_fit_model(ds, fit_spec(principle)).G.shape[1]
        assert W.shape == (d, d) and W.flags.c_contiguous
        assert all(s is system and s.W is W for s, _ in carried)
        factors = [f for _, f in carried if f is not None]
        assert factors and all(f[0].base is W for f in factors)


class TestPaddedFactors:
    """Every Hermitian block is factored in one identity-padded stack."""

    @pytest.mark.parametrize("entry", [0.0, -1e-300, -0.5, np.nan])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_failing_smallest_block_is_never_hidden(self, entry, reverse):
        # blocks of sizes 1, 3 and 5 (in either order) and the slacks;
        # only the 1x1 one fails, and the padding around it has unit pivots
        rng = np.random.default_rng(3)
        sizes = [5, 3, 1] if reverse else [1, 3, 5]
        amap = random_block_map(rng, sizes, 2, 6)
        x = rng.uniform(-1.0, 1.0, 6)
        x *= 0.04 / np.abs(x).sum()
        blocks = amap.blocks(x)
        assert amap.cholesky_list(blocks) is not None
        smallest = [b.shape for b in blocks].index((1, 1))
        blocks[smallest] = np.array([[entry]], dtype=complex)
        assert amap.cholesky_list(blocks) is None

    def test_blocks_hand_their_stack_to_the_factor(self):
        # the blocks of ``blocks`` view one padded stack, which
        # cholesky_list factors as it is: with the identity padding it
        # copies from made NaN, they still factor, and a plain list of the
        # same blocks (copied into that padding) does not
        rng = np.random.default_rng(5)
        amap = random_block_map(rng, [1, 3, 5], 2, 6)
        x = rng.uniform(-1.0, 1.0, 6)
        x *= 0.04 / np.abs(x).sum()
        blocks = amap.blocks(x)
        plain = amap.cholesky_list(list(blocks))
        handed = amap.cholesky_list(blocks)
        assert np.array_equal(handed.chol, plain.chol) and handed.log_det == plain.log_det
        amap._base = np.full_like(amap._base, np.nan)
        assert np.array_equal(amap.cholesky_list(blocks).chol, plain.chol)
        assert amap.cholesky_list(list(blocks)) is None

    @pytest.mark.parametrize("entry", [0.0, -0.5, np.nan])
    def test_an_edit_in_place_is_factored(self, entry):
        # an edit of a block of ``blocks`` in place is an edit of the
        # stack it views, so the factor sees it as a copied list would
        rng = np.random.default_rng(6)
        amap = random_block_map(rng, [1, 3, 5], 2, 6)
        x = rng.uniform(-1.0, 1.0, 6)
        x *= 0.04 / np.abs(x).sum()
        blocks = amap.blocks(x)
        blocks[2][0, 0] = entry
        assert amap.cholesky_list(blocks) is None
        assert amap.cholesky_list(list(blocks)) is None
        blocks[2][0, 0] = 10.0
        assert np.array_equal(amap.cholesky_list(blocks).chol,
                              amap.cholesky_list(list(blocks)).chol)

    @BARRIER_PROPERTY
    @given(**MAP_SHAPES)
    def test_ray_eigenvalues_are_each_blocks_own(self, sizes, m, dim, seed):
        # block b fills entries [b*pad, (b+1)*pad) with its own generalized
        # eigenvalues eig(Delta_b, rho_b) and pad - n_b zeros; the slacks follow
        rng = np.random.default_rng(seed)
        amap = random_block_map(rng, sizes, m, dim)
        x = rng.uniform(-1.0, 1.0, dim)
        x *= 0.04 / np.abs(x).sum()
        delta = rng.normal(size=dim)
        mu = amap.ray_eigenvalues(amap.cholesky_list(amap.blocks(x)), delta)
        blocks = amap.blocks(x)
        constants = amap.constants + [c for c, _, _ in amap.diagonal]
        steps = [b - c for b, c in zip(amap.blocks(delta), constants)]
        pad = max(sizes)
        assert mu.size == len(sizes) * pad + m
        for b, n in enumerate(sizes):
            own = scipy.linalg.eigh(steps[b], blocks[b], eigvals_only=True)
            expected = np.sort(np.concatenate([own, np.zeros(pad - n)]))
            assert_close(np.sort(mu[b * pad : (b + 1) * pad]), expected, 1e-10)
        assert_close(mu[len(sizes) * pad :], steps[-1] / blocks[-1], 1e-12)
