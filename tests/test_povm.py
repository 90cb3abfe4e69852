import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitomo.povm import (
    E1,
    E2,
    E3,
    PROBABILITY_ROUNDOFF,
    Setting,
    load_settings,
    moment_coefficients,
    probabilities,
    rotated_blocks,
    rotation_params,
    save_settings,
    stacked_blocks,
    standard_blocks,
)
from pitomo.sim import PURITY_MODES, random_pi_state
from pitomo.spin_blocks import (
    PSD_TOL,
    SpinEnsemble,
    dicke_ensemble,
    expand_full,
    ghz_ensemble,
    hermitian_expm,
    maximally_mixed_ensemble,
    sector_layout,
    spin_operators,
)

import oracles
from test_spin_blocks import random_ensemble

# Measurement axes: the two poles, where the rotation axis degenerates,
# and arbitrary non-zero directions (normalized in the tests).
AXES = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
    st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(lambda v: np.linalg.norm(v) > 1e-3),
)
# The rotation build's edge cases on top: the six coordinate axes
# (theta = 0, pi/2, pi; at the poles rotation_params returns the e_x
# rotation axis) and axes within 1e-12 of a pole, where theta has to
# come from atan2 because arccos(a_z) has no digits left.
ROTATION_AXES = st.one_of(
    st.sampled_from([
        (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
        (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
    ]),
    st.tuples(
        st.floats(-1e-12, 1e-12), st.floats(-1e-12, 1e-12), st.sampled_from([1.0, -1.0])
    ),
    AXES,
)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def unit_setting(axis):
    v = np.asarray(axis, dtype=float)
    return Setting(axis=v / np.linalg.norm(v))


class TestSetting:
    def test_unit_enforced(self):
        with pytest.raises(ValueError):
            Setting(axis=np.array([1.0, 1.0, 0.0]))

    def test_from_vector_normalizes(self):
        with pytest.warns(UserWarning, match="normalizing"):
            s = Setting.from_vector([2.0, 0.0, 0.0])
        np.testing.assert_allclose(s.axis, [1.0, 0.0, 0.0])

    def test_from_vector_warns(self):
        with pytest.warns(UserWarning, match="normalizing"):
            Setting.from_vector([1.0 + 1e-3, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Setting.from_vector([1.0 + 1e-9, 0.0, 0.0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Setting.from_vector([0.0, 0.0, 0.0])


class TestRotationParams:
    def test_z_axis(self):
        axis, theta = rotation_params(E3)
        np.testing.assert_array_equal(axis, [1.0, 0.0, 0.0])
        assert theta == 0.0

    def test_minus_z_axis(self):
        axis, theta = rotation_params(Setting(axis=np.array([0.0, 0.0, -1.0])))
        np.testing.assert_array_equal(axis, [1.0, 0.0, 0.0])
        assert theta == pytest.approx(math.pi)

    def test_x_axis(self):
        axis, theta = rotation_params(E1)
        np.testing.assert_allclose(axis, [0.0, 1.0, 0.0], atol=1e-15)
        assert theta == pytest.approx(math.pi / 2)

    def test_rotation_maps_z_to_setting(self):
        # Rodrigues formula applied to e_z must reproduce the setting
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = Setting(axis=oracles.random_unit_vector(rng))
            n, theta = rotation_params(s)
            ez = np.array([0.0, 0.0, 1.0])
            rotated = (
                ez * math.cos(theta)
                + np.cross(n, ez) * math.sin(theta)
                + n * np.dot(n, ez) * (1 - math.cos(theta))
            )
            np.testing.assert_allclose(rotated, s.axis, atol=1e-12)


class TestStandardBlocks:
    def test_structure_n2(self):
        bs = standard_blocks(2)
        # j=1 sector: outcome k projects onto m = k - 1
        for k, idx in [(0, 2), (1, 1), (2, 0)]:
            blk = bs.block(k, 2)
            expected = np.zeros((3, 3))
            expected[idx, idx] = 1.0
            np.testing.assert_array_equal(blk, expected)
        # j=0 sector: only the middle outcome has support
        assert bs.block(0, 0) is None
        assert bs.block(2, 0) is None
        np.testing.assert_array_equal(bs.block(1, 0), [[1.0]])

    def test_outcome_range_n3(self):
        bs = standard_blocks(3)
        assert list(bs.outcome_range(1)) == [1, 2]
        assert list(bs.outcome_range(3)) == [0, 1, 2, 3]
        assert bs.block(0, 1) is None

    def test_outcome_bounds(self):
        bs = standard_blocks(2)
        with pytest.raises(KeyError):
            bs.block(3, 2)

    def test_block_completeness(self):
        for n in (2, 3, 5, 8):
            bs = standard_blocks(n)
            for two_j, stack in bs.sector_stacks.items():
                total = stack.sum(axis=0)
                np.testing.assert_allclose(total, np.eye(two_j + 1), atol=1e-12)


class TestRankOneContractions:
    """probabilities (forward) and weighted_sum (adjoint) of the stored U_j."""

    @PROPERTY
    @given(n=st.integers(1, 6), axis=AXES, mode=st.sampled_from(PURITY_MODES),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_duality(self, n, axis, mode, seed):
        # sum_k w_k p_k(rho) = sum_j tr(rho_j weighted_sum(w)_j)
        rng = np.random.default_rng(seed)
        bs = rotated_blocks(n, unit_setting(axis))
        state = random_pi_state(sector_layout(n), mode, seed=rng)
        w = rng.normal(size=n + 1)
        adjoint = bs.weighted_sum(w)
        dual = sum(
            np.trace(rho @ adjoint[two_j]).real for two_j, rho in state.blocks.items()
        )
        assert abs(w @ probabilities(state, bs) - dual) <= 1e-12

    @PROPERTY
    @given(n=st.integers(1, 6), axis=AXES)
    def test_completeness_and_dense_blocks(self, n, axis):
        bs = rotated_blocks(n, unit_setting(axis))
        identity = bs.weighted_sum(np.ones(n + 1))
        stacks = bs.sector_stacks
        for two_j in sector_layout(n).two_j_values:
            np.testing.assert_allclose(
                identity[two_j], np.eye(two_j + 1), rtol=0, atol=1e-12
            )
            off = bs.k_offset(two_j)
            for r in range(two_j + 1):
                np.testing.assert_allclose(
                    stacks[two_j][r], bs.block(off + r, two_j), rtol=0, atol=1e-12
                )

    def test_weights_must_cover_every_outcome(self):
        with pytest.raises(ValueError, match="expected"):
            standard_blocks(3).weighted_sum(np.ones(3))

    @PROPERTY
    @given(n=st.integers(1, 6), axes=st.lists(AXES, min_size=1, max_size=4),
           mode=st.sampled_from(PURITY_MODES), seed=st.integers(0, 2**32 - 1))
    def test_stacked_matches_per_setting(self, n, axes, mode, seed):
        # one forward/adjoint over all settings = the per-setting calls,
        # concatenated (forward) or summed (adjoint), setting-major
        rng = np.random.default_rng(seed)
        settings = [unit_setting(a) for a in axes]
        block_sets = [rotated_blocks(n, s) for s in settings]
        stack = stacked_blocks(n, settings)
        state = random_pi_state(sector_layout(n), mode, seed=rng)
        w = rng.normal(size=(len(axes), n + 1))
        np.testing.assert_allclose(
            probabilities(state, stack),
            np.concatenate([probabilities(state, bs) for bs in block_sets]),
            rtol=0, atol=1e-12,
        )
        stacked = stack.weighted_sum(w.ravel())
        for two_j in sector_layout(n).two_j_values:
            np.testing.assert_allclose(
                stacked[two_j],
                sum(bs.weighted_sum(row)[two_j] for bs, row in zip(block_sets, w)),
                rtol=0, atol=1e-12,
            )

    def test_stacked_rejects_empty_settings(self):
        with pytest.raises(ValueError, match="at least one setting"):
            stacked_blocks(2, [])
        with pytest.raises(ValueError, match="expected"):
            stacked_blocks(2, [E3, E3]).weighted_sum(np.ones(3))


class TestRotationBuild:
    """U_j = [R_z(phi) d^j(theta) R_z(-phi)][:, ::-1], built for a batch of
    settings at once, against its defining properties and the
    eigendecomposition oracle exp(-i theta n.S_j)."""

    @PROPERTY
    @given(n=st.integers(1, 8), axes=st.lists(ROTATION_AXES, min_size=1, max_size=4))
    def test_rotation_properties(self, n, axes):
        settings = [unit_setting(a) for a in axes]
        singles = [rotated_blocks(n, s) for s in settings]
        stack = stacked_blocks(n, settings)
        for two_j in sector_layout(n).two_j_values:
            ops = spin_operators(two_j)
            dim = two_j + 1
            # the batched build equals the one-at-a-time builds
            np.testing.assert_allclose(
                stack.rotations[two_j],
                np.hstack([bs.rotations[two_j] for bs in singles]),
                rtol=0, atol=1e-12,
            )
            for s, bs in zip(settings, singles):
                U = bs.rotations[two_j]
                np.testing.assert_allclose(
                    U.conj().T @ U, np.eye(dim), rtol=0, atol=1e-12
                )
                # column r is the eigenvector of a.S_j with eigenvalue r - j
                a_s = s.axis[0] * ops.s_x + s.axis[1] * ops.s_y + s.axis[2] * ops.s_z
                np.testing.assert_allclose(
                    a_s @ U, U * (np.arange(dim) - two_j / 2.0), rtol=0, atol=1e-12
                )
                rot_axis, theta = rotation_params(s)
                gen = rot_axis[0] * ops.s_x + rot_axis[1] * ops.s_y + rot_axis[2] * ops.s_z
                np.testing.assert_allclose(
                    U, hermitian_expm(gen, theta)[:, ::-1], rtol=0, atol=1e-12
                )

    @PROPERTY
    @given(n=st.integers(1, 8), axis=ROTATION_AXES)
    def test_antipodal_outcomes_swap(self, n, axis):
        # outcome k along -a is outcome N - k along a
        s = unit_setting(axis)
        along = rotated_blocks(n, s)
        against = rotated_blocks(n, Setting(axis=-s.axis))
        for two_j in sector_layout(n).two_j_values:
            for k in range(n + 1):
                blk, ref = against.block(k, two_j), along.block(n - k, two_j)
                assert (blk is None) == (ref is None)
                if blk is not None:
                    np.testing.assert_allclose(blk, ref, rtol=0, atol=1e-12)


class TestRotatedBlocks:
    def test_z_matches_standard(self):
        for n in (1, 2, 4):
            rot = rotated_blocks(n, E3)
            std = standard_blocks(n)
            for two_j in rot.sector_stacks:
                np.testing.assert_allclose(
                    rot.sector_stacks[two_j], std.sector_stacks[two_j], atol=1e-12
                )

    def test_single_qubit_x(self):
        bs = rotated_blocks(1, E1)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        # outcome 1 = one "+1 along x" result = |+><+|
        np.testing.assert_allclose(bs.block(1, 1), plus, atol=1e-12)
        np.testing.assert_allclose(bs.block(0, 1), minus, atol=1e-12)

    def test_completeness_and_psd(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 6):
            s = Setting(axis=oracles.random_unit_vector(rng))
            bs = rotated_blocks(n, s)
            for two_j, stack in bs.sector_stacks.items():
                np.testing.assert_allclose(
                    stack.sum(axis=0), np.eye(two_j + 1), atol=1e-12
                )
                for blk in stack:
                    assert np.min(np.linalg.eigvalsh(blk)) >= -1e-12

    def test_against_full_space_povm(self):
        # compare expand_full + block POVM against the permutation-sum POVM
        rng = np.random.default_rng(6)
        for n in (2, 3, 4, 5):
            state = random_ensemble(rng, n)
            rho_full = expand_full(state)
            s = Setting(axis=oracles.random_unit_vector(rng))
            bs = rotated_blocks(n, s)
            full = oracles.full_povm(n, s.axis)
            for k in range(n + 1):
                ours = sum(
                    np.trace(state.blocks[two_j] @ blk).real
                    for two_j in state.layout.two_j_values
                    if (blk := bs.block(k, two_j)) is not None
                )
                ref = np.trace(rho_full @ full[k]).real
                assert ours == pytest.approx(ref, abs=1e-10)

    def test_unitary_covariance(self):
        # rotating the state equals counter-rotating the setting
        from pitomo.spin_blocks import SpinEnsemble, hermitian_expm, spin_operators

        rng = np.random.default_rng(8)
        n = 4
        state = random_ensemble(rng, n)
        axis = oracles.random_unit_vector(rng)
        theta = 0.9
        rotated = {}
        for two_j in state.layout.two_j_values:
            ops = spin_operators(two_j)
            gen = axis[0] * ops.s_x + axis[1] * ops.s_y + axis[2] * ops.s_z
            W = hermitian_expm(gen, theta)
            rotated[two_j] = W @ state.blocks[two_j] @ W.conj().T
        rotated_state = SpinEnsemble(layout=state.layout, blocks=rotated)

        # Rodrigues matrix of the same rotation
        K = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        R = np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)

        a = oracles.random_unit_vector(rng)
        p_rotated = probabilities(rotated_state, rotated_blocks(n, Setting(axis=a)))
        p_counter = probabilities(
            state, rotated_blocks(n, Setting(axis=R.T @ a))
        )
        np.testing.assert_allclose(p_rotated, p_counter, atol=1e-9)


class TestProbabilities:
    def test_maximally_mixed_binomial(self):
        for n in (2, 3, 5):
            mm = maximally_mixed_ensemble(sector_layout(n))
            p = probabilities(mm, standard_blocks(n))
            expected = np.array([math.comb(n, k) / 2**n for k in range(n + 1)])
            np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_ghz_extremes(self):
        for n in (2, 4, 5):
            p = probabilities(ghz_ensemble(n), standard_blocks(n))
            expected = np.zeros(n + 1)
            expected[0] = expected[-1] = 0.5
            np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_dicke_deterministic(self):
        for n, k in [(2, 1), (4, 2), (5, 3)]:
            p = probabilities(dicke_ensemble(n, k), standard_blocks(n))
            expected = np.zeros(n + 1)
            expected[n - k] = 1.0  # k excitations leave N-k up-spins
            np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_normalization_random(self):
        rng = np.random.default_rng(10)
        for n in (2, 4, 7):
            state = random_ensemble(rng, n)
            s = Setting(axis=oracles.random_unit_vector(rng))
            p = probabilities(state, rotated_blocks(n, s))
            assert abs(p.sum() - 1.0) <= 1e-10
            assert np.all(p >= 0.0)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            probabilities(ghz_ensemble(2), standard_blocks(3))

    @PROPERTY
    @given(n=st.integers(1, 8), axes=st.lists(AXES, min_size=1, max_size=4),
           mode=st.sampled_from(PURITY_MODES), seed=st.integers(0, 2**32 - 1))
    def test_psd_states_never_raise(self, n, axes, mode, seed):
        state = random_pi_state(sector_layout(n), mode, seed=seed)
        stack = stacked_blocks(n, [unit_setting(a) for a in axes])
        p = probabilities(state, stack).reshape(len(axes), n + 1)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @staticmethod
    def top_sector_ensemble(n, setting, diagonal):
        """Duck-typed ensemble (no PSD check) whose top block has the given
        outcome distribution along ``setting``; lower blocks are zero."""
        layout = sector_layout(n)
        U = rotated_blocks(n, setting).rotations[n]
        blocks = {t: np.zeros((t + 1, t + 1), complex) for t in layout.two_j_values}
        blocks[n] = (U * diagonal) @ U.conj().T
        return SimpleNamespace(layout=layout, blocks=blocks)

    @PROPERTY
    @given(n=st.integers(1, 8), axis=AXES, depth=st.floats(1e-11, 1.0))
    def test_non_psd_ensemble_raises(self, n, axis, depth):
        setting = unit_setting(axis)
        diagonal = np.zeros(n + 1)
        diagonal[:2] = 1.0 + depth, -depth
        state = self.top_sector_ensemble(n, setting, diagonal)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            probabilities(state, rotated_blocks(n, setting))

    @staticmethod
    def tolerance_ensemble(n, setting, shares, negativity):
        """Blocks diagonal in ``setting``'s outcome basis whose negative
        eigenvalues sum to -negativity, split over the sectors by
        ``shares``, all on the middle outcome: that probability is then
        exactly -negativity, the worst an accepted state can give."""
        layout = sector_layout(n)
        shares = np.array(shares[: layout.num_sectors]) / sum(shares[: layout.num_sectors])
        rotations = rotated_blocks(n, setting).rotations
        positive = (1.0 + negativity) / sum(layout.two_j_values)  # unit trace
        blocks = {}
        for share, two_j in zip(shares, layout.two_j_values):
            eigs = np.full(two_j + 1, positive)
            eigs[n // 2 - (n - two_j) // 2] = -negativity * share
            U = rotations[two_j]
            blocks[two_j] = (U * eigs) @ U.conj().T
        return SpinEnsemble(layout=layout, blocks=blocks)

    @PROPERTY
    @given(n=st.integers(1, 8), axis=AXES,
           shares=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
    def test_states_at_the_psd_tolerance_never_raise(self, n, axis, shares):
        setting = unit_setting(axis)
        state = self.tolerance_ensemble(n, setting, shares, 0.99 * PSD_TOL)
        p = probabilities(state, rotated_blocks(n, setting))
        assert np.all(p >= 0.0)
        with pytest.raises(ValueError, match="not PSD"):
            self.tolerance_ensemble(n, setting, shares, 1.01 * PSD_TOL)

    def test_roundoff_negatives_clamped(self):
        diagonal = np.array([0.5, -0.1 * PROBABILITY_ROUNDOFF, 0.5 + 0.1 * PROBABILITY_ROUNDOFF])
        state = self.top_sector_ensemble(2, E3, diagonal)
        p = probabilities(state, rotated_blocks(2, E3))
        assert p.min() == 0.0
        assert np.count_nonzero(p) == 2


class TestMomentCoefficients:
    def test_weight_zero(self):
        np.testing.assert_array_equal(moment_coefficients(4, 0), np.ones(5))

    def test_weight_one(self):
        for n in (1, 3, 6):
            k = np.arange(n + 1)
            np.testing.assert_allclose(
                moment_coefficients(n, 1), (2 * k - n) / n, atol=1e-15
            )

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            moment_coefficients(3, 4)

    def test_against_full_space(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4, 5):
            state = random_ensemble(rng, n)
            rho_full = expand_full(state)
            axis = oracles.random_unit_vector(rng)
            p = probabilities(state, rotated_blocks(n, Setting(axis=axis)))
            for w in range(n + 1):
                K = moment_coefficients(n, w)
                ours = float(K @ p)
                obs = oracles.sym_axis_power(n, axis, w)
                ref = np.trace(rho_full @ obs).real
                assert ours == pytest.approx(ref, abs=1e-10)

    def test_variance_identity(self):
        # the operator identity sum_k K M_k makes second moments exact:
        # <A^2> = sum_k K^2 p_k for A = [(a.sigma)^{(x)w} (x) 1]_PI
        rng = np.random.default_rng(14)
        n, w = 4, 2
        state = random_ensemble(rng, n)
        axis = oracles.random_unit_vector(rng)
        p = probabilities(state, rotated_blocks(n, Setting(axis=axis)))
        K = moment_coefficients(n, w)
        obs = oracles.sym_axis_power(n, axis, w)
        ref = np.trace(expand_full(state) @ obs @ obs).real
        assert float(K**2 @ p) == pytest.approx(ref, abs=1e-10)


class TestSettingsIO:
    def test_round_trip(self, tmp_path):
        with pytest.warns(UserWarning, match="normalizing"):
            settings = [E1, E2, E3, Setting.from_vector([1.0, 1.0, 1.0])]
        path = tmp_path / "settings.json"
        save_settings(settings, path)
        back = load_settings(path)
        assert len(back) == 4
        for a, b in zip(settings, back):
            np.testing.assert_allclose(a.axis, b.axis, atol=1e-15)

    def test_load_warns_on_unnormalized(self, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text("[[2.0, 0.0, 0.0]]")
        with pytest.warns(UserWarning):
            back = load_settings(path)
        np.testing.assert_allclose(back[0].axis, [1.0, 0.0, 0.0])

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_settings(path)
