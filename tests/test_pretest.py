import math

import numpy as np
import pytest
from scipy.optimize import minimize

from pitomo.povm import E1, E2, E3, Setting, probabilities, rotated_blocks
from pitomo.pretest import (
    DEFAULT_COEFFICIENT_BOUND,
    PretestWitness,
    fidelity_bound,
    load_witness,
    optimize_witness,
    save_witness,
    statistical_bound,
    witness_expectation,
)
from pitomo.reconstruct import NonConvergenceError
from pitomo.sim import Dataset, DatasetRecord, exact_dataset, random_pi_state, sample_dataset
from pitomo.spin_blocks import (
    SpinEnsemble,
    compress_full,
    dicke_ensemble,
    expand_full,
    ghz_ensemble,
    maximally_mixed_ensemble,
    sector_layout,
)

import oracles

STANDARD = (E1, E2, E3)


def slack_eigenvalues(witness):
    """Smallest eigenvalue over all witness slack operators."""
    n = witness.n_qubits
    worst = math.inf
    for two_j in sector_layout(n).two_j_values:
        d = two_j + 1
        acc = np.eye(d, dtype=complex) if two_j == n else np.zeros((d, d), complex)
        for row, s in zip(witness.coefficients, witness.settings):
            bs = rotated_blocks(n, s)
            off = bs.k_offset(two_j)
            acc = acc - np.tensordot(row[off:off + d], bs.sector_stacks[two_j], axes=(0, 0))
        worst = min(worst, float(np.linalg.eigvalsh(acc).min()))
    return worst


class TestPretestWitness:
    def test_all_minus_one_is_strictly_feasible(self):
        for n in (1, 3, 6):
            w = PretestWitness(
                n_qubits=n,
                settings=STANDARD,
                coefficients=np.full((3, n + 1), -1.0),
            )
            assert slack_eigenvalues(w) >= 1.0 - 1e-12

    def test_rejects_infeasible_coefficients(self):
        coeff = np.zeros((3, 3))
        coeff[0, 2] = 2.0  # 2 M_2 on the top sector breaks the ceiling
        with pytest.raises(ValueError, match="operator inequalities"):
            PretestWitness(n_qubits=2, settings=STANDARD, coefficients=coeff)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PretestWitness(
                n_qubits=2, settings=STANDARD, coefficients=np.zeros((3, 4))
            )

    def test_rejects_empty_settings(self):
        with pytest.raises(ValueError, match="setting"):
            PretestWitness(n_qubits=2, settings=(), coefficients=np.zeros((0, 3)))

    def test_extremes_and_sensitivity(self):
        coeff = np.array([[0.5, -0.25, 0.0], [0.0, 0.0, 0.0], [0.1, 0.1, 0.1]])
        w = PretestWitness(n_qubits=2, settings=STANDARD, coefficients=coeff)
        np.testing.assert_allclose(w.setting_maxima, [0.5, 0.0, 0.1])
        np.testing.assert_allclose(w.setting_minima, [-0.25, 0.0, 0.1])
        assert w.c_z_squared == pytest.approx(0.75**2)


class TestOptimizeWitness:
    @pytest.mark.parametrize("n,k", [(3, 0), (4, 1), (4, 2), (5, 2)])
    def test_dicke_targets_reach_unity(self, n, k):
        w = optimize_witness(dicke_ensemble(n, k))
        assert w.objective >= 1.0 - 1e-6
        assert w.objective <= 1.0 + 1e-8

    def test_ghz_target(self):
        w = optimize_witness(ghz_ensemble(4))
        assert w.objective >= 1.0 - 1e-6

    def test_feasibility_of_returned_witness(self):
        target = random_pi_state(sector_layout(4), "hs-mixed", seed=2)
        w = optimize_witness(target)
        assert slack_eigenvalues(w) >= -1e-8
        assert np.abs(w.coefficients).max() <= DEFAULT_COEFFICIENT_BOUND + 1e-8

    def test_objective_equals_target_expectation(self):
        target = random_pi_state(sector_layout(3), "hs-mixed", seed=5)
        w = optimize_witness(target)
        assert witness_expectation(w, target) == pytest.approx(
            w.objective, abs=1e-12
        )

    @pytest.mark.filterwarnings("ignore:Solution may be inaccurate")
    @pytest.mark.parametrize(
        "make_target",
        [
            lambda: dicke_ensemble(4, 2),
            lambda: random_pi_state(sector_layout(3), "hs-mixed", seed=6),
            lambda: maximally_mixed_ensemble(sector_layout(2)),
        ],
    )
    def test_matches_dense_sdp_oracle(self, make_target):
        cp = pytest.importorskip("cvxpy")
        target = make_target()
        n = target.layout.n_qubits
        w = optimize_witness(target, STANDARD)

        z = cp.Variable(3 * (n + 1))
        bsets = [rotated_blocks(n, s) for s in STANDARD]
        c = np.concatenate([probabilities(target, bs) for bs in bsets])
        cons = []
        for two_j in target.layout.two_j_values:
            d = two_j + 1
            expr = 0
            for a, bs in enumerate(bsets):
                off = bs.k_offset(two_j)
                for r in range(d):
                    expr = expr + z[a * (n + 1) + off + r] * cp.Constant(
                        bs.sector_stacks[two_j][r]
                    )
            top = two_j == n
            cons.append(expr << (np.eye(d) if top else np.zeros((d, d))))
        cons += [z <= DEFAULT_COEFFICIENT_BOUND, z >= -DEFAULT_COEFFICIENT_BOUND]
        prob = cp.Problem(cp.Maximize(c @ z), cons)
        prob.solve(solver=cp.CLARABEL)
        assert w.objective == pytest.approx(prob.value, abs=1e-5)

    def test_custom_settings(self):
        rng = np.random.default_rng(11)
        axes = rng.normal(size=(4, 3))
        settings = tuple(Setting(axis=a / np.linalg.norm(a)) for a in axes)
        w = optimize_witness(ghz_ensemble(3), settings)
        assert len(w.settings) == 4
        assert w.objective <= 1.0 + 1e-8
        assert slack_eigenvalues(w) >= -1e-8

    def test_rejects_empty_settings(self):
        with pytest.raises(ValueError, match="setting"):
            optimize_witness(dicke_ensemble(2, 0), ())

    def test_rejects_tiny_coefficient_bound(self):
        with pytest.raises(ValueError, match="coefficient_bound"):
            optimize_witness(dicke_ensemble(2, 0), coefficient_bound=0.5)

    def test_solver_failure_carries_last_feasible_point(self, monkeypatch):
        import pitomo.pretest as pretest_mod

        def boom(*args, **kwargs):
            raise NonConvergenceError("stage failed")

        monkeypatch.setattr(pretest_mod, "newton_stage", boom)
        with pytest.raises(NonConvergenceError) as err:
            optimize_witness(dicke_ensemble(2, 1))
        np.testing.assert_allclose(err.value.last_z, -np.ones(9))


class TestFullSpaceFeasibility:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_witness_below_symmetric_projector(self, n):
        target = random_pi_state(sector_layout(n), "hs-mixed", seed=n)
        w = optimize_witness(target)
        z_full = np.zeros((1 << n, 1 << n), dtype=complex)
        for row, s in zip(w.coefficients, w.settings):
            elements = oracles.full_povm(n, s.axis)
            for k in range(n + 1):
                z_full += row[k] * elements[k]
        gap = oracles.symmetric_projector(n) - z_full
        assert float(np.linalg.eigvalsh(gap).min()) >= -1e-8


class TestFidelityBound:
    def test_unit_expectation_gives_unit_bound(self):
        target = dicke_ensemble(4, 2)
        w = optimize_witness(target)
        assert fidelity_bound(w, target) == pytest.approx(1.0, abs=1e-6)

    def test_mixed_truth_is_poorly_identified(self):
        # the bound is vacuous for highly mixed PI states even though
        # their true PI fidelity is 1
        mm = maximally_mixed_ensemble(sector_layout(4))
        w = optimize_witness(mm)
        assert fidelity_bound(w, mm) < 0.5

    def test_negative_expectation_clamps_to_zero(self):
        w = PretestWitness(
            n_qubits=3, settings=STANDARD, coefficients=np.full((3, 4), -1.0)
        )
        state = random_pi_state(sector_layout(3), "hs-mixed", seed=3)
        assert witness_expectation(w, state) == pytest.approx(-3.0, abs=1e-12)
        assert fidelity_bound(w, state) == 0.0

    def test_never_exceeds_one(self):
        for seed in range(4):
            target = random_pi_state(sector_layout(3), "haar-pure", seed=seed)
            w = optimize_witness(target)
            state = random_pi_state(sector_layout(3), "hs-mixed", seed=seed + 50)
            assert fidelity_bound(w, state) <= 1.0 + 1e-8

    def test_frequency_table_and_dataset_inputs_agree(self):
        target = dicke_ensemble(3, 1)
        w = optimize_witness(target)
        state = random_pi_state(sector_layout(3), "hs-mixed", seed=9)
        table = np.array([
            probabilities(state, rotated_blocks(3, s)) for s in w.settings
        ])
        dataset = exact_dataset(state, list(w.settings))
        from_state = fidelity_bound(w, state)
        assert fidelity_bound(w, table) == pytest.approx(from_state, abs=1e-12)
        assert fidelity_bound(w, dataset) == pytest.approx(from_state, abs=1e-12)

    def test_dataset_must_cover_every_setting(self):
        w = optimize_witness(dicke_ensemble(2, 0))
        state = dicke_ensemble(2, 0)
        partial = exact_dataset(state, [E1, E2])
        with pytest.raises(ValueError, match="exactly one record"):
            fidelity_bound(w, partial)
        doubled = exact_dataset(state, [E1, E2, E3, E3])
        with pytest.raises(ValueError, match="exactly one record"):
            fidelity_bound(w, doubled)
        # a record along -a also serves a, so a and -a together are two
        both_signs = exact_dataset(state, [E1, E2, E3, Setting(axis=-E3.axis)])
        with pytest.raises(ValueError, match="exactly one record"):
            fidelity_bound(w, both_signs)

    def test_size_mismatches_rejected(self):
        w = optimize_witness(dicke_ensemble(2, 0))
        with pytest.raises(ValueError, match="match"):
            witness_expectation(w, dicke_ensemble(3, 0))
        with pytest.raises(ValueError, match="match"):
            fidelity_bound(w, exact_dataset(dicke_ensemble(3, 0), [E1, E2, E3]))
        with pytest.raises(ValueError, match="shape"):
            fidelity_bound(w, np.zeros((3, 4)))

    def test_bounds_exact_pi_fidelity_of_general_state(self):
        # For a non-PI two-qubit state the squared witness expectation
        # must stay below the true fidelity to the PI state set, found
        # here by direct optimization over compressed states.
        n = 2
        layout = sector_layout(n)
        rng = np.random.default_rng(42)
        rho_full = oracles.random_full_density(rng, n)
        twirled = (rho_full + oracles.transposition_conjugate(rho_full, n, 0, 1)) / 2
        comp = compress_full(twirled, layout)

        def pi_state(x):
            lower = np.zeros((3, 3), dtype=complex)
            lower[0, 0], lower[1, 1], lower[2, 2] = x[0], x[1], x[2]
            lower[1, 0] = x[3] + 1j * x[4]
            lower[2, 0] = x[5] + 1j * x[6]
            lower[2, 1] = x[7] + 1j * x[8]
            top = lower @ lower.conj().T
            singlet = np.array([[x[9] ** 2]], dtype=complex)
            trace = np.trace(top).real + singlet[0, 0].real
            return SpinEnsemble(
                layout=layout, blocks={2: top / trace, 0: singlet / trace}
            )

        def neg_fidelity(x):
            return -oracles.fidelity(rho_full, expand_full(pi_state(x)))

        best = -math.inf
        for seed in range(3):
            start = np.random.default_rng(seed).normal(size=10)
            res = minimize(
                neg_fidelity,
                start,
                method="Nelder-Mead",
                options={"maxiter": 4000, "xatol": 1e-9, "fatol": 1e-12},
            )
            best = max(best, -res.fun)

        target = random_pi_state(layout, "hs-mixed", seed=1)
        w = optimize_witness(target)
        assert fidelity_bound(w, comp) <= best + 1e-6
        # sanity: the direct optimizer finds fidelity 1 for PI input
        pi_full = expand_full(random_pi_state(layout, "hs-mixed", seed=2))

        def neg_fidelity_pi(x):
            return -oracles.fidelity(pi_full, expand_full(pi_state(x)))

        res = minimize(
            neg_fidelity_pi,
            np.random.default_rng(0).normal(size=10),
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-9, "fatol": 1e-12},
        )
        assert -res.fun == pytest.approx(1.0, abs=1e-5)


class TestStatisticalBound:
    def unit_range_witness(self):
        # single setting, coefficients (1, 0): Z = M_0^{e3} <= identity on
        # the one-qubit top sector, range exactly 1
        return PretestWitness(
            n_qubits=1, settings=(E3,), coefficients=np.array([[1.0, 0.0]])
        )

    def test_frozen_formula_values(self):
        w = self.unit_range_witness()
        assert w.c_z_squared == pytest.approx(1.0)
        result = statistical_bound(w, [[600, 400]], repetitions=1000, epsilon=0.05)
        assert result.bound == pytest.approx((0.6 - 0.05) ** 2, abs=1e-12)
        assert result.confidence == pytest.approx(1.0 - math.exp(-5.0), abs=1e-12)

    def test_negative_shifted_mean_and_floor(self):
        w = self.unit_range_witness()
        res = statistical_bound(w, [[0, 1000]], repetitions=1000, epsilon=0.05)
        assert res.bound == pytest.approx(-0.0025, abs=1e-12)
        res = statistical_bound(w, [[0, 1000]], repetitions=1000, epsilon=5.0)
        assert res.bound == -1.0
        assert res.confidence > 1.0 - 1e-10

    def test_zero_sensitivity_means_certainty(self):
        w = PretestWitness(
            n_qubits=2, settings=STANDARD, coefficients=np.zeros((3, 3))
        )
        res = statistical_bound(
            w, np.full((3, 3), 100.0), repetitions=300, epsilon=0.1
        )
        assert res.confidence == 1.0
        assert res.bound == pytest.approx(-0.01, abs=1e-12)

    def test_dataset_input_matches_raw_table(self):
        target = dicke_ensemble(2, 1)
        w = optimize_witness(target)
        ds = sample_dataset(target, list(w.settings), repetitions=400, seed=3)
        table = np.array([rec.counts for rec in ds.records])
        from_ds = statistical_bound(w, ds, epsilon=0.1)
        from_table = statistical_bound(w, table, repetitions=400, epsilon=0.1)
        assert from_ds == from_table

    def test_antipodal_records_serve_the_witness(self):
        # outcome k along -a is outcome N - k along a: a dataset measured
        # along every antipode gives the same bound as the original one
        target = dicke_ensemble(3, 1)
        w = optimize_witness(
            target, (E1, E2, E3, Setting(axis=np.array([2.0, -1.0, 2.0]) / 3.0))
        )
        ds = sample_dataset(target, list(w.settings), repetitions=400, seed=4)
        flipped = Dataset(n_qubits=3, records=[
            DatasetRecord(Setting(axis=-rec.setting.axis), rec.counts[::-1], rec.repetitions)
            for rec in ds.records
        ])
        assert statistical_bound(w, flipped, epsilon=0.1) == statistical_bound(
            w, ds, epsilon=0.1
        )
        # and the reversal is the physical one: exact data along the
        # antipodes reproduce the state's expectation
        state = random_pi_state(sector_layout(3), "hs-mixed", seed=2)
        antipodes = exact_dataset(state, [Setting(axis=-s.axis) for s in w.settings])
        assert witness_expectation(w, antipodes) == pytest.approx(
            witness_expectation(w, state), abs=1e-12
        )

    def test_input_validation(self):
        w = self.unit_range_witness()
        with pytest.raises(ValueError, match="epsilon"):
            statistical_bound(w, [[5, 5]], repetitions=10, epsilon=0.0)
        with pytest.raises(ValueError, match="repetitions are required"):
            statistical_bound(w, [[5, 5]], epsilon=0.1)
        with pytest.raises(ValueError, match="sum to repetitions"):
            statistical_bound(w, [[5, 4]], repetitions=10, epsilon=0.1)
        with pytest.raises(ValueError, match="non-negative"):
            statistical_bound(w, [[11, -1]], repetitions=10, epsilon=0.1)
        with pytest.raises(ValueError, match="shape"):
            statistical_bound(w, [[5, 4, 1]], repetitions=10, epsilon=0.1)

    def test_dataset_validation(self):
        target = dicke_ensemble(2, 1)
        w = optimize_witness(target)
        exact = exact_dataset(target, list(w.settings))
        with pytest.raises(ValueError, match="sampled"):
            statistical_bound(w, exact, epsilon=0.1)
        ds = sample_dataset(target, list(w.settings), repetitions=100, seed=0)
        with pytest.raises(ValueError, match="disagree"):
            statistical_bound(w, ds, repetitions=200, epsilon=0.1)

    def test_empirical_coverage(self):
        # the claimed confidence is a valid (conservative) coverage level
        truth = dicke_ensemble(2, 1)
        w = optimize_witness(truth)
        reps = 200
        epsilon = math.sqrt(-w.c_z_squared * math.log(0.25) / (2 * reps))
        hits = 0
        runs = 300
        for seed in range(runs):
            ds = sample_dataset(truth, list(w.settings), repetitions=reps, seed=seed)
            res = statistical_bound(w, ds, epsilon=epsilon)
            if res.bound <= 1.0:  # F_PI(truth) = 1 for the PI truth
                hits += 1
        assert hits / runs >= res.confidence
        assert res.confidence == pytest.approx(0.75, abs=1e-12)


class TestWitnessJson:
    def test_roundtrip(self, tmp_path):
        w = optimize_witness(dicke_ensemble(3, 1))
        path = tmp_path / "witness.json"
        save_witness(w, path)
        loaded = load_witness(path)
        assert loaded.n_qubits == w.n_qubits
        np.testing.assert_allclose(loaded.coefficients, w.coefficients)
        for a, b in zip(loaded.settings, w.settings):
            np.testing.assert_allclose(a.axis, b.axis)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 2}')
        with pytest.raises(ValueError, match="misses key"):
            load_witness(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_witness(path)

    def test_tampered_sensitivity(self, tmp_path):
        import json

        w = optimize_witness(dicke_ensemble(2, 0))
        path = tmp_path / "witness.json"
        save_witness(w, path)
        payload = json.loads(path.read_text())
        payload["c_z_squared"] = payload["c_z_squared"] + 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="disagrees"):
            load_witness(path)

    def test_tampered_coefficients_fail_feasibility(self, tmp_path):
        import json

        w = optimize_witness(dicke_ensemble(2, 0))
        path = tmp_path / "witness.json"
        save_witness(w, path)
        payload = json.loads(path.read_text())
        payload["coefficients"][0][0] += 5.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="operator inequalities"):
            load_witness(path)
