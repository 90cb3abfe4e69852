import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pitomo.povm import Setting, probabilities, rotated_blocks
from pitomo.reconstruct import (
    CENTERING,
    AffineBlockMap,
    FitModel,
    FitSpec,
    LinearFit,
    NonConvergenceError,
    Parametrization,
    SolverConfig,
    StageResult,
    barrier_value_grad_hess,
    build_fit_model,
    fit_value,
    fixed_point_reconstruct,
    likelihood_residual,
    newton_stage,
    reconstruct,
    resolve_least_squares_weights,
    t_schedule,
)
from pitomo.sim import Dataset, DatasetRecord as Record
from pitomo.spin_blocks import (
    SpinEnsemble,
    maximally_mixed_ensemble,
    sector_layout,
    trace_distance,
)

import oracles


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

    def test_beta_only_for_hedged(self):
        with pytest.raises(ValueError):
            FitSpec(principle="ml", beta=0.1)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            FitSpec(principle="ls", weights=np.array([1.0, 0.0]))
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
            {"t_reduce": 1.0},
            {"ls_alpha": 0.5},
            {"ls_shrink": 1.0},
            {"max_newton_iters": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


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

    def test_basis_element_bounds(self):
        param = Parametrization(sector_layout(2))
        with pytest.raises(IndexError):
            param.basis_element(param.dimension)
        with pytest.raises(IndexError):
            param.basis_element(-1)

    def test_layout_mismatch(self):
        param = Parametrization(sector_layout(2))
        other = maximally_mixed_ensemble(sector_layout(4))
        with pytest.raises(ValueError):
            param.coordinates(other)

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
        np.testing.assert_allclose(model.G, G, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.p0, p0, rtol=0, atol=1e-13)


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


class TestDerivatives:
    """Finite-difference checks of every gradient and Hessian."""

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_fit_gradient_matches_fd(self, problem, principle):
        ds, param, x = problem
        model = build_fit_model(ds, FitSpec(principle=principle), param)
        g = model.gradient(x)
        g_fd = oracles.fd_gradient(model.value, x, h=1e-6)
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
        g, H = model.gradient_hessian(x)
        np.testing.assert_allclose(g, model.gradient(x), atol=1e-13)
        assert np.array_equal(H, H.T)
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.normal(size=param.dimension)
            v /= np.linalg.norm(v)
            hv_fd = finite_difference_hessian_action(model.gradient, x, v)
            np.testing.assert_allclose(
                H @ v, hv_fd, atol=1e-4 * (1 + np.abs(H @ v).max())
            )

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_fit_hessian_psd(self, problem, principle):
        ds, param, x = problem
        model = build_fit_model(ds, FitSpec(principle=principle), param)
        _, H = model.gradient_hessian(x)
        assert np.linalg.eigvalsh(H).min() > -1e-10

    def test_ls_hessian_constant(self, problem):
        ds, param, x = problem
        model = build_fit_model(ds, FitSpec.least_squares(), param)
        _, h1 = model.gradient_hessian(x)
        _, h2 = model.gradient_hessian(0.5 * x)
        np.testing.assert_array_equal(h1, h2)

    def test_ls_hessian_read_only_through_newton_stage(self, problem):
        ds, param, _ = problem
        model = build_fit_model(ds, FitSpec.least_squares(), param)
        _, H = model.gradient_hessian(np.zeros(param.dimension))
        assert not H.flags.writeable
        before = H.copy()
        stage = newton_stage(model, param, 1e-3, np.zeros(param.dimension))
        assert stage.iterations > 0
        np.testing.assert_array_equal(H, before)

    def test_barrier_matches_fd(self, problem):
        _, param, x = problem
        t = 0.7
        value, grad, hess = barrier_value_grad_hess(param, x, t)
        g_fd = oracles.fd_gradient(
            lambda y: barrier_value_grad_hess(param, y, t)[0], x, h=1e-6
        )
        np.testing.assert_allclose(grad, g_fd, atol=1e-5 * (1 + np.abs(grad).max()))
        np.testing.assert_allclose(hess, hess.T, atol=1e-10)
        assert np.linalg.eigvalsh(hess).min() > 0

        rng = np.random.default_rng(1)
        v = rng.normal(size=param.dimension)
        v /= np.linalg.norm(v)
        hv_fd = finite_difference_hessian_action(
            lambda y: barrier_value_grad_hess(param, y, t)[1], x, v
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
        ray = fit.ray(x, delta)
        h = 1e-5

        def directional(a):
            return float(fit.gradient(x + a * delta) @ delta)

        for a in (0.0, 0.4, 1.3):
            d1, d2 = ray(a)
            assert d1 == pytest.approx(directional(a), rel=1e-10, abs=1e-12)
            fd = (directional(a + h) - directional(a - h)) / (2 * h)
            assert d2 == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_fit_convexity(self, problem):
        ds, param, _ = problem
        rng = np.random.default_rng(5)
        x1 = param.coordinates(interior_ensemble(3, rng))
        x2 = param.coordinates(interior_ensemble(3, rng))
        lam = 0.3
        for principle in ("ml", "ls", "freels"):
            model = build_fit_model(ds, FitSpec(principle=principle), param)
            mixed = model.value(lam * x1 + (1 - lam) * x2)
            assert mixed <= lam * model.value(x1) + (1 - lam) * model.value(x2) + 1e-10


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
        value, _, _ = barrier_value_grad_hess(param, np.zeros(param.dimension), 1.0)
        assert value == pytest.approx(expected, rel=1e-12)
        value_t, _, _ = barrier_value_grad_hess(param, np.zeros(param.dimension), 2.5)
        assert value_t == pytest.approx(2.5 * expected, rel=1e-12)

    def test_non_interior_raises(self):
        param = Parametrization(sector_layout(2))
        x = np.zeros(param.dimension)
        x[0] = 10.0  # pushes a block eigenvalue far below zero
        with pytest.raises(ValueError):
            barrier_value_grad_hess(param, x, 1.0)


class TestMLStationarityAtUniformData:
    def test_gradient_vanishes(self):
        # Exact maximally mixed data: f = p(0), and each setting's POVM is
        # complete, so the likelihood gradient at x = 0 is exactly zero.
        rng = np.random.default_rng(3)
        layout = sector_layout(4)
        mm = maximally_mixed_ensemble(layout)
        ds = exact_dataset(mm, random_settings(rng, 5))
        model = build_fit_model(ds, FitSpec.max_lik())
        g = model.gradient(np.zeros(model.parametrization.dimension))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


class TestNewtonStage:
    def make_model(self, seed=2):
        rng = np.random.default_rng(seed)
        truth = interior_ensemble(2, rng)
        ds = exact_dataset(truth, random_settings(rng, 6))
        param = Parametrization(sector_layout(2))
        return build_fit_model(ds, FitSpec.max_lik(), param), param

    def test_converges_quickly(self):
        model, param = self.make_model()
        stage = newton_stage(model, param, 1.0, np.zeros(param.dimension))
        assert stage.converged
        assert stage.iterations <= 25
        assert stage.grad_norm <= 1e-8

    def test_restart_at_optimum_is_free(self):
        model, param = self.make_model()
        stage = newton_stage(model, param, 1.0, np.zeros(param.dimension))
        again = newton_stage(model, param, 1.0, stage.x)
        assert again.converged
        assert again.iterations == 0
        np.testing.assert_array_equal(again.x, stage.x)

    def test_objective_decreases(self):
        model, param = self.make_model()
        x0 = np.zeros(param.dimension)
        chols = param.affine.cholesky_list(param.affine.blocks(x0))
        start_obj = model.value(x0) + 1.0 * param.affine.barrier_value(chols)
        stage = newton_stage(model, param, 1.0, x0)
        assert stage.objective < start_obj

    def test_infeasible_start_rejected(self):
        model, param = self.make_model()
        x = np.zeros(param.dimension)
        x[0] = 10.0
        with pytest.raises(ValueError):
            newton_stage(model, param, 1.0, x)

    def test_iteration_cap_respected(self):
        model, param = self.make_model()
        cfg = SolverConfig(max_newton_iters=1)
        stage = newton_stage(model, param, 1.0, np.zeros(param.dimension), cfg)
        assert stage.iterations == 1

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_carried_derivatives_seed_exactly(self, principle, exact):
        # the derivatives that end one stage do not depend on t, so
        # seeding the next stage with them changes nothing, bit for bit
        rng = np.random.default_rng(4)
        ds = sampled_dataset(interior_ensemble(3, rng), random_settings(rng, 12), 500, rng)
        model = build_fit_model(ds, FitSpec(principle=principle))
        param = model.parametrization
        carry = []
        first = newton_stage(model, param, 0.1, np.zeros(param.dimension), carry=carry)
        assert len(carry) == 1
        seeded_carry, fresh_carry = carry, []
        seeded = newton_stage(model, param, 0.01, first.x, exact=exact, carry=seeded_carry)
        fresh = newton_stage(model, param, 0.01, first.x, exact=exact, carry=fresh_carry)
        assert seeded.iterations > 0
        for field in dataclasses.fields(StageResult):
            assert np.array_equal(getattr(seeded, field.name), getattr(fresh, field.name),
                                  equal_nan=True), field.name
        for a, b in zip(seeded_carry.pop(), fresh_carry.pop()):
            assert np.array_equal(a, b)
        assert seeded_carry == fresh_carry == []

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels", "hedged"])
    def test_one_derivative_evaluation_per_step_plus_one(self, principle, monkeypatch):
        calls = []
        original = FitModel.gradient_hessian

        def counted(self, x):
            calls.append(None)
            return original(self, x)

        monkeypatch.setattr(FitModel, "gradient_hessian", counted)
        rng = np.random.default_rng(9)
        ds = sampled_dataset(interior_ensemble(3, rng), random_settings(rng, 12), 500, rng)
        spec = FitSpec.hedged(0.01) if principle == "hedged" else FitSpec(principle)
        result = reconstruct(ds, spec)
        assert result.converged
        assert len(calls) == result.total_iterations + 1


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
        penalty, _, _ = barrier_value_grad_hess(param, x, beta)
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
        stage = newton_stage(model, param, t, x, config, exact=True)
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
        spec = FitSpec.hedged(0.01) if principle == "hedged" else FitSpec(principle)
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
        # barrier; used by the pretest optimizer with slack terms.
        const = [np.eye(2, dtype=complex) * 0.5]
        amap = AffineBlockMap(
            [const[0]], [np.zeros((0, 2, 2), complex)], [np.array([], dtype=np.intp)], 0
        )
        blocks = amap.blocks(np.zeros(0))
        np.testing.assert_allclose(blocks[0], const[0])
        chols = amap.cholesky_list(blocks)
        assert amap.barrier_value(chols) == pytest.approx(-math.log(0.25))


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_block_map(rng, sizes, m, dim, floor=0.05):
    """Hermitian blocks of the given sizes plus one diagonal block of m
    slacks; each block reads a random subset of the dim coordinates, so
    coordinates are shared between blocks.  Every constant has smallest
    eigenvalue (or slack) ``floor`` and every direction unit spectral
    norm, so x with |x|_1 < floor stays interior."""
    constants, stacks, indices = [], [], []
    for n in sizes:
        q = int(rng.integers(0, dim + 1))
        dirs = np.array([random_hermitian(rng, n) for _ in range(q)]).reshape(q, n, n)
        dirs /= np.maximum(np.abs(np.linalg.eigvalsh(dirs)).max(axis=-1), 1e-12)[:, None, None]
        vecs = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        eigs = np.concatenate([[floor], rng.uniform(floor, 2.0, n - 1)])
        constants.append((vecs * eigs) @ vecs.conj().T)
        stacks.append(dirs)
        indices.append(rng.choice(dim, size=q, replace=False))
    q = int(rng.integers(0, dim + 1))
    diag_dirs = rng.uniform(-1.0, 1.0, size=(q, m))
    constants.append(floor + rng.uniform(0.0, 2.0, m))
    stacks.append(diag_dirs)
    indices.append(rng.choice(dim, size=q, replace=False))
    return AffineBlockMap(constants, stacks, indices, dim)


def barrier_oracle(amap, x):
    """-sum log det B_b(x), its gradient -tr(B^-1 D_i) and Hessian
    tr(B^-1 D_i B^-1 D_l) from dense inverses, diagonal blocks as
    diagonal matrices."""
    value, grad = 0.0, np.zeros(amap.dim)
    hess = np.zeros((amap.dim, amap.dim))
    for C, D, idx in zip(amap.constants, amap.dir_stacks, amap.dir_indices):
        if C.ndim == 1:
            C = np.diag(C)
            D = np.array([np.diag(d) for d in D]).reshape(len(D), *C.shape)
        B = C + np.einsum("q,qmn->mn", x[idx], D)
        BD = np.linalg.inv(B) @ D
        value -= np.linalg.slogdet(B)[1]
        grad[idx] -= np.einsum("qmm->q", BD).real
        hess[np.ix_(idx, idx)] += np.einsum("imn,lnm->il", BD, BD).real
    return value, grad, hess


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
        ref_value, ref_grad, ref_hess = barrier_oracle(amap, x)
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
        amap.constants[-1][0] = pinned
        amap.dir_stacks[-1][:, 0] = 0.0
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
        alpha = fraction * (1.0 / -mu.min() if mu.min() < 0.0 else length)
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
        assume(mu.min() < 0.0)
        alpha_max = 1.0 / -mu.min()
        assert amap.cholesky_list(amap.blocks(x + 0.999 * alpha_max * delta)) is not None
        assert amap.cholesky_list(amap.blocks(x + 1.001 * alpha_max * delta)) is None

    def test_diagonal_block_equals_scalar_blocks(self):
        rng = np.random.default_rng(11)
        dim, m = 5, 6
        herm = random_block_map(rng, [3], m, dim)
        c, D, idx = herm.constants[-1], herm.dir_stacks[-1], herm.dir_indices[-1]
        scalars = AffineBlockMap(
            herm.constants[:-1] + [np.array([[v]]) for v in c],
            herm.dir_stacks[:-1] + [D[:, k, None, None] for k in range(m)],
            herm.dir_indices[:-1] + [idx] * m,
            dim,
        )
        x = rng.uniform(-1.0, 1.0, dim)
        x *= 0.04 / np.abs(x).sum()
        ours = herm.barrier_grad_hess(herm.cholesky_list(herm.blocks(x)))
        theirs = scalars.barrier_grad_hess(scalars.cholesky_list(scalars.blocks(x)))
        for a, b in zip(ours, theirs):
            assert_close(a, b, 1e-12)

    def test_repeated_index_within_block_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            AffineBlockMap([np.eye(2)], [np.zeros((2, 2, 2))], [[0, 0]], 1)
