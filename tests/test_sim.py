import json
import math

import numpy as np
import pytest

from pitomo.povm import Setting, probabilities, rotated_blocks
from pitomo.sim import (
    Dataset,
    DatasetRecord,
    collective_y_rotation,
    dicke_mixture_state,
    exact_dataset,
    load_dataset,
    random_pi_state,
    sample_dataset,
    save_dataset,
)
from pitomo.spin_blocks import (
    SpinEnsemble,
    dicke_ensemble,
    ghz_ensemble,
    maximally_mixed_ensemble,
    sector_layout,
    trace_distance,
)

import oracles


def axes(rng, count):
    vs = rng.normal(size=(count, 3))
    return [Setting(axis=v / np.linalg.norm(v)) for v in vs]


class TestDatasetTypes:
    def setting(self):
        return Setting(axis=np.array([0.0, 0.0, 1.0]))

    def test_record_frequencies(self):
        rec = DatasetRecord(self.setting(), np.array([30, 50, 20]), 100)
        np.testing.assert_allclose(rec.frequencies, [0.3, 0.5, 0.2])

    def test_record_counts_readonly(self):
        rec = DatasetRecord(self.setting(), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            rec.counts[0] = 2.0

    def test_record_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            DatasetRecord(self.setting(), np.array([-1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            DatasetRecord(self.setting(), np.array([[1.0]]), 1.0)
        with pytest.raises(ValueError):
            DatasetRecord(self.setting(), np.array([np.nan, 1.0]), 1.0)

    def test_record_rejects_sum_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            DatasetRecord(self.setting(), np.array([30, 50, 20]), 101)

    def test_record_rejects_nonpositive_repetitions(self):
        with pytest.raises(ValueError):
            DatasetRecord(self.setting(), np.array([0.0, 0.0]), 0.0)

    def test_dataset_checks_outcome_count(self):
        rec = DatasetRecord(self.setting(), np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="expected"):
            Dataset(n_qubits=2, records=(rec,))

    def test_dataset_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(n_qubits=2, records=())

    def test_settings_property(self):
        rec = DatasetRecord(self.setting(), np.array([0.5, 0.5]), 1.0)
        ds = Dataset(n_qubits=1, records=(rec,))
        assert ds.settings == [rec.setting]


class TestRandomPiState:
    def test_haar_pure_blocks_are_pure(self):
        layout = sector_layout(5)
        state = random_pi_state(layout, "haar-pure", seed=3)
        for two_j in layout.two_j_values:
            block = state.blocks[two_j]
            w = np.trace(block).real
            purity = np.trace(block @ block).real / w**2
            assert purity == pytest.approx(1.0, abs=1e-12)

    def test_hs_mixed_blocks_are_mixed(self):
        layout = sector_layout(5)
        state = random_pi_state(layout, "hs-mixed", seed=3)
        for two_j in layout.two_j_values:
            if two_j == 0:
                continue  # 1x1 blocks are trivially pure
            block = state.blocks[two_j]
            w = np.trace(block).real
            purity = np.trace(block @ block).real / w**2
            assert purity < 1.0 - 1e-3
            assert np.linalg.eigvalsh(block).min() > 0

    def test_weights_sum_to_one(self):
        layout = sector_layout(6)
        state = random_pi_state(layout, "hs-mixed", seed=8)
        total = sum(np.trace(state.blocks[t]).real for t in layout.two_j_values)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_seed_reproducibility(self):
        layout = sector_layout(4)
        a = random_pi_state(layout, "haar-pure", seed=11)
        b = random_pi_state(layout, "haar-pure", seed=11)
        for two_j in layout.two_j_values:
            np.testing.assert_array_equal(a.blocks[two_j], b.blocks[two_j])

    def test_generator_advances(self):
        layout = sector_layout(4)
        rng = np.random.default_rng(0)
        a = random_pi_state(layout, "haar-pure", seed=rng)
        b = random_pi_state(layout, "haar-pure", seed=rng)
        assert trace_distance(a, b) > 1e-3

    def test_invalid_arguments(self):
        layout = sector_layout(3)
        with pytest.raises(ValueError):
            random_pi_state(layout, "thermal")
        with pytest.raises(ValueError):
            random_pi_state(layout, "haar-pure", dirichlet_alpha=0.0)

    def test_dirichlet_weight_mean(self):
        # Symmetric Dirichlet(1/2) over S sectors has mean 1/S per weight
        # and Var = (1/S)(1 - 1/S)/(S/2 + 1); check the empirical mean of
        # 10^4 draws against 3 standard errors.
        layout = sector_layout(4)
        num = layout.num_sectors
        draws = 10**4
        rng = np.random.default_rng(123)
        acc = np.zeros(num)
        for _ in range(draws):
            state = random_pi_state(layout, "haar-pure", seed=rng)
            acc += [np.trace(state.blocks[t]).real for t in layout.two_j_values]
        mean = acc / draws
        var = (1 / num) * (1 - 1 / num) / (num * 0.5 + 1)
        three_sigma = 3 * math.sqrt(var / draws)
        np.testing.assert_allclose(mean, 1 / num, atol=three_sigma)


class TestExactDataset:
    def test_maximally_mixed_is_binomial(self):
        n = 4
        mm = maximally_mixed_ensemble(sector_layout(n))
        rng = np.random.default_rng(1)
        ds = exact_dataset(mm, axes(rng, 3))
        expected = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0**n
        assert ds.exact
        for rec in ds.records:
            np.testing.assert_allclose(rec.frequencies, expected, atol=1e-12)

    def test_ghz_along_z(self):
        n = 5
        ds = exact_dataset(ghz_ensemble(n), [Setting(axis=np.array([0.0, 0.0, 1.0]))])
        expected = np.zeros(n + 1)
        expected[0] = expected[-1] = 0.5
        np.testing.assert_allclose(ds.records[0].frequencies, expected, atol=1e-12)

    def test_dicke_along_z_deterministic(self):
        n, k = 4, 1
        ds = exact_dataset(
            dicke_ensemble(n, k), [Setting(axis=np.array([0.0, 0.0, 1.0]))]
        )
        expected = np.zeros(n + 1)
        expected[n - k] = 1.0
        np.testing.assert_allclose(ds.records[0].frequencies, expected, atol=1e-12)

    def test_record_structure(self):
        rng = np.random.default_rng(5)
        state = random_pi_state(sector_layout(3), "hs-mixed", seed=2)
        settings = axes(rng, 7)
        ds = exact_dataset(state, settings)
        assert len(ds.records) == 7
        assert all(rec.repetitions == 1.0 for rec in ds.records)
        assert ds.settings == settings


class TestSampleDataset:
    def test_counts_are_integers_summing_to_reps(self):
        rng = np.random.default_rng(0)
        state = random_pi_state(sector_layout(4), "hs-mixed", seed=1)
        ds = sample_dataset(state, axes(rng, 5), 300, seed=9)
        assert not ds.exact
        for rec in ds.records:
            assert rec.counts.sum() == 300
            np.testing.assert_array_equal(rec.counts, np.round(rec.counts))

    def test_deterministic_distribution(self):
        n, k = 4, 2
        ds = sample_dataset(
            dicke_ensemble(n, k),
            [Setting(axis=np.array([0.0, 0.0, 1.0]))],
            1000,
            seed=4,
        )
        counts = ds.records[0].counts
        assert counts[n - k] == 1000

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(2)
        state = random_pi_state(sector_layout(3), "haar-pure", seed=6)
        settings = axes(rng, 4)
        a = sample_dataset(state, settings, 150, seed=42)
        b = sample_dataset(state, settings, 150, seed=42)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.counts, rb.counts)

    def test_rejects_bad_repetitions(self):
        state = maximally_mixed_ensemble(sector_layout(2))
        setting = [Setting(axis=np.array([0.0, 0.0, 1.0]))]
        with pytest.raises(ValueError):
            sample_dataset(state, setting, 0, seed=0)
        with pytest.raises(ValueError):
            sample_dataset(state, setting, 10.5, seed=0)

    def test_sup_deviation_bound(self):
        # Hoeffding-style check: across seeds, the worst frequency error
        # stays below 5 sqrt(log(2(N+1)) / (2 N_R)); the factor-5 margin
        # makes a violation astronomically unlikely.
        n, reps = 3, 500
        state = random_pi_state(sector_layout(n), "hs-mixed", seed=7)
        setting = Setting(axis=np.array([0.6, 0.0, 0.8]))
        p = probabilities(state, rotated_blocks(n, setting))
        bound = 5 * math.sqrt(math.log(2 * (n + 1)) / (2 * reps))
        for seed in range(100):
            ds = sample_dataset(state, [setting], reps, seed=seed)
            dev = np.max(np.abs(ds.records[0].frequencies - p))
            assert dev <= bound

    def test_sampling_is_unbiased(self):
        # Mean sampled frequency over many draws matches p within 4
        # standard errors of the binomial mean.
        n, reps, draws = 3, 100, 2000
        state = random_pi_state(sector_layout(n), "haar-pure", seed=13)
        setting = Setting(axis=np.array([0.0, 0.6, 0.8]))
        p = probabilities(state, rotated_blocks(n, setting))
        ds = sample_dataset(state, [setting] * draws, reps, seed=99)
        mean = np.mean([rec.frequencies for rec in ds.records], axis=0)
        four_sigma = 4 * np.sqrt(p * (1 - p) / (reps * draws)) + 1e-12
        assert np.all(np.abs(mean - p) <= four_sigma)


class TestCollectiveRotation:
    def test_preserves_sector_weights(self):
        state = random_pi_state(sector_layout(4), "hs-mixed", seed=3)
        rotated = collective_y_rotation(state, 0.7)
        for two_j in state.layout.two_j_values:
            assert np.trace(rotated.blocks[two_j]).real == pytest.approx(
                np.trace(state.blocks[two_j]).real, abs=1e-12
            )

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_measurement_covariance(self, n):
        # Measuring a rotated state along a equals measuring the original
        # along the inversely rotated axis.
        theta = 0.4
        state = random_pi_state(sector_layout(n), "hs-mixed", seed=n)
        rotated = collective_y_rotation(state, theta)
        c, s = math.cos(theta), math.sin(theta)
        rot_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        rng = np.random.default_rng(17)
        for axis in axes(rng, 4):
            p_rot = probabilities(rotated, rotated_blocks(n, axis))
            back = Setting(axis=rot_y.T @ axis.axis)
            p_ref = probabilities(state, rotated_blocks(n, back))
            np.testing.assert_allclose(p_rot, p_ref, atol=1e-12)

    def test_full_space_oracle(self):
        # Block rotation equals conjugating the 2^N state by individual
        # qubit rotations exp(-i theta sigma_y / 2).
        from pitomo.spin_blocks import expand_full

        n, theta = 3, 0.9
        state = random_pi_state(sector_layout(n), "hs-mixed", seed=21)
        rotated = collective_y_rotation(state, theta)
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        u1 = oracles.series_expm(sigma_y, scale=theta / 2.0)
        u = oracles.kron_chain([u1] * n)
        expected = u @ expand_full(state) @ u.conj().T
        np.testing.assert_allclose(expand_full(rotated), expected, atol=1e-10)


class TestDickeMixtureState:
    def test_unrotated_noiseless_is_binomial_diagonal(self):
        n, p = 5, 0.6
        state = dicke_mixture_state(n, p_asym=p, theta=0.0, noise_weight=0.0)
        top = state.blocks[n]
        expected = np.diag(
            [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        )
        np.testing.assert_allclose(top, expected, atol=1e-12)
        for two_j in state.layout.two_j_values:
            if two_j != n:
                np.testing.assert_allclose(state.blocks[two_j], 0.0, atol=1e-15)

    def test_extreme_asymmetry(self):
        # p = 1 flips every qubit: the state is |D_N><D_N| exactly.
        state = dicke_mixture_state(4, p_asym=1.0, theta=0.0, noise_weight=0.0)
        assert trace_distance(state, dicke_ensemble(4, 4)) < 1e-12

    def test_rotation_preserves_block_weights(self):
        flat = dicke_mixture_state(6, theta=0.0, noise_weight=0.0)
        rot = dicke_mixture_state(6, theta=0.35, noise_weight=0.0)
        for two_j in flat.layout.two_j_values:
            assert np.trace(rot.blocks[two_j]).real == pytest.approx(
                np.trace(flat.blocks[two_j]).real, abs=1e-12
            )

    def test_noise_mixing_is_convex(self):
        n, seed, w = 4, 31, 0.4
        state = dicke_mixture_state(n, noise_weight=w, seed=seed)
        core = dicke_mixture_state(n, noise_weight=0.0)
        noise = random_pi_state(
            sector_layout(n), "hs-mixed", seed=np.random.default_rng(seed)
        )
        for two_j in state.layout.two_j_values:
            np.testing.assert_allclose(
                state.blocks[two_j],
                (1 - w) * core.blocks[two_j] + w * noise.blocks[two_j],
                atol=1e-12,
            )

    def test_seed_reproducibility(self):
        a = dicke_mixture_state(4, seed=5)
        b = dicke_mixture_state(4, seed=5)
        assert trace_distance(a, b) == 0.0

    def test_benchmark_scale(self):
        state = dicke_mixture_state(14)
        assert state.layout.n_qubits == 14
        # The dominant sector keeps most of its weight under 40% noise.
        assert np.trace(state.blocks[14]).real > 0.6 * 0.99

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dicke_mixture_state(3, p_asym=1.2)
        with pytest.raises(ValueError):
            dicke_mixture_state(3, noise_weight=-0.1)


class TestDatasetJson:
    def roundtrip(self, ds, tmp_path):
        path = tmp_path / "data.json"
        save_dataset(ds, path)
        return load_dataset(path), path

    def test_roundtrip_sampled(self, tmp_path):
        rng = np.random.default_rng(3)
        state = random_pi_state(sector_layout(3), "hs-mixed", seed=1)
        ds = sample_dataset(state, axes(rng, 4), 200, seed=8)
        loaded, path = self.roundtrip(ds, tmp_path)
        assert loaded.n_qubits == ds.n_qubits
        assert loaded.exact == ds.exact is False
        for ra, rb in zip(loaded.records, ds.records):
            np.testing.assert_array_equal(ra.counts, rb.counts)
            np.testing.assert_allclose(ra.setting.axis, rb.setting.axis, atol=1e-15)
            assert ra.repetitions == rb.repetitions
        raw = json.loads(path.read_text())
        assert set(raw) == {"n_qubits", "exact", "records"}

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        state = random_pi_state(sector_layout(2), "haar-pure", seed=2)
        ds = exact_dataset(state, axes(rng, 3))
        loaded, _ = self.roundtrip(ds, tmp_path)
        assert loaded.exact
        for ra, rb in zip(loaded.records, ds.records):
            np.testing.assert_allclose(ra.counts, rb.counts, atol=1e-15)

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="JSON object"):
            load_dataset(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_qubits": 2}))
        with pytest.raises(ValueError, match="misses key"):
            load_dataset(path)
        path.write_text(
            json.dumps(
                {"n_qubits": 1, "records": [{"setting": [0, 0, 1], "counts": [1, 0]}]}
            )
        )
        with pytest.raises(ValueError, match="misses key"):
            load_dataset(path)

    def test_load_rejects_empty_records(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_qubits": 2, "records": []}))
        with pytest.raises(ValueError, match="non-empty"):
            load_dataset(path)

    def test_loaded_dataset_reconstructs(self, tmp_path):
        # Round-tripped data feeds straight into the solver.
        from pitomo.reconstruct import FitSpec, reconstruct

        rng = np.random.default_rng(9)
        state = random_pi_state(sector_layout(2), "hs-mixed", seed=3)
        ds = exact_dataset(state, axes(rng, 6))
        loaded, _ = self.roundtrip(ds, tmp_path)
        result = reconstruct(loaded, FitSpec.max_lik())
        assert trace_distance(result.estimate, state) < 1e-4
