import math
from contextlib import nullcontext

import numpy as np
import pytest

from pitomo.design import (
    BlochIndex,
    DesignProblem,
    RankDeficientSettings,
    determined_setting_count,
    first_deficient_weight,
    optimize_settings,
    random_settings,
    total_error,
)
import pitomo.design as design
from pitomo.design import (
    _axis_powers,
    _krawtchouk_squares,
    _reference_settings,
    _weight_tables,
)
from pitomo.povm import E1, E2, E3, Setting, moment_coefficients, probabilities, rotated_blocks
from pitomo.sim import PURITY_MODES, random_pi_state
from pitomo.spin_blocks import (
    dicke_ensemble,
    expand_full,
    maximally_mixed_ensemble,
    sector_layout,
)

import oracles


def all_indices(n):
    return [
        BlochIndex(k, l, m, n - k - l - m)
        for k in range(n + 1)
        for l in range(n - k + 1)
        for m in range(n - k - l + 1)
    ]


class TestBlochIndex:
    def test_properties(self):
        idx = BlochIndex(1, 0, 2, 1)
        assert idx.n_qubits == 4
        assert idx.weight == 3
        assert idx.multiplicity == math.factorial(4) // (1 * 1 * 2 * 1)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            BlochIndex(-1, 0, 0, 1)
        with pytest.raises(ValueError):
            BlochIndex(0.5, 0, 0, 1)

    def test_multiplicities_sum_to_powers(self):
        # sum over all (k,l,m,n) of multinomial(N;k,l,m,n) = 4^N
        for n in (1, 2, 3, 5):
            assert sum(i.multiplicity for i in all_indices(n)) == 4**n


class TestBlochCoefficients:
    def test_single_pauli_read_off(self):
        c = oracles.bloch_coefficients([E1, E2, E3], BlochIndex(0, 0, 1, 0))
        np.testing.assert_allclose(c, [0.0, 0.0, 1.0], atol=1e-12)
        c = oracles.bloch_coefficients([E1, E2, E3], BlochIndex(1, 0, 0, 0))
        np.testing.assert_allclose(c, [1.0, 0.0, 0.0], atol=1e-12)

    def test_weight_zero_splits_evenly(self):
        settings = random_settings(7, seed=0)
        c = oracles.bloch_coefficients(settings, BlochIndex(0, 0, 0, 3))
        np.testing.assert_allclose(c, np.full(7, 1.0 / 7.0), atol=1e-12)

    def test_rank_deficiency_reported(self):
        planar = [
            E1,
            E2,
            Setting(axis=np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)),
        ]
        with pytest.raises(RankDeficientSettings) as err:
            oracles.bloch_coefficients(planar, BlochIndex(0, 0, 1, 0))
        assert err.value.weight == 1
        assert err.value.residual > 0.1

    def test_operator_identity_full_space(self):
        # sum_i c_i [(a_i.sigma)^(x)w (x) 1]_PI recovers the symmetrized
        # Pauli product exactly.
        n = 2
        settings = random_settings(6, seed=3)
        for idx in [BlochIndex(1, 0, 1, 0), BlochIndex(0, 1, 0, 1), BlochIndex(2, 0, 0, 0)]:
            c = oracles.bloch_coefficients(settings, idx)
            combo = sum(
                ci * oracles.sym_axis_power(n, s.axis, idx.weight)
                for ci, s in zip(c, settings)
            )
            target = oracles.sym_pauli_product(n, idx.k, idx.l, idx.m)
            np.testing.assert_allclose(combo, target, atol=1e-9)

    def test_bloch_vector_from_probabilities(self):
        # Estimating every element from exact outcome distributions
        # reproduces the full-space expectation values.
        n = 2
        settings = random_settings(6, seed=5)
        state = random_pi_state(sector_layout(n), "hs-mixed", seed=8)
        full = expand_full(state)
        moments = []
        for s in settings:
            p = probabilities(state, rotated_blocks(n, s))
            moments.append([moment_coefficients(n, w) @ p for w in range(n + 1)])
        for idx in all_indices(n):
            c = oracles.bloch_coefficients(settings, idx)
            estimate = sum(ci * row[idx.weight] for ci, row in zip(c, moments))
            oracle = np.trace(
                full @ oracles.sym_pauli_product(n, idx.k, idx.l, idx.m)
            ).real
            assert estimate == pytest.approx(oracle, abs=1e-9)


class TestMomentVariance:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_full_space_variance(self, n):
        rng = np.random.default_rng(n)
        state = random_pi_state(sector_layout(n), "hs-mixed", seed=n + 10)
        full = expand_full(state)
        for setting in random_settings(3, seed=n):
            for w in range(n + 1):
                a = oracles.sym_axis_power(n, setting.axis, w)
                mean = np.trace(full @ a).real
                oracle = np.trace(full @ a @ a).real - mean**2
                ours = oracles.moment_variance(state, setting, w)
                assert ours == pytest.approx(oracle, abs=1e-9)

    def test_deterministic_outcome_has_zero_variance(self):
        n = 4
        state = dicke_ensemble(n, 0)
        assert oracles.moment_variance(state, E3, n) == pytest.approx(0.0, abs=1e-12)

    def test_weight_zero_is_exact(self):
        state = maximally_mixed_ensemble(sector_layout(3))
        assert oracles.moment_variance(state, E1, 0) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_magnetization(self):
        # w = 1 along any axis: variance of (2k-N)/N over N fair coins.
        for n in (2, 4, 7):
            state = maximally_mixed_ensemble(sector_layout(n))
            assert oracles.moment_variance(state, E3, 1) == pytest.approx(1.0 / n, abs=1e-12)


class TestDesignProblem:
    def make(self, n=2, count=None, seed=0, **kwargs):
        count = count or determined_setting_count(n)
        return DesignProblem(
            n_qubits=n,
            target=maximally_mixed_ensemble(sector_layout(n)),
            settings=tuple(random_settings(count, seed=seed)),
            **kwargs,
        )

    def test_determined_count(self):
        assert determined_setting_count(1) == 3
        assert determined_setting_count(2) == 6
        assert determined_setting_count(4) == 15

    def test_accepts_valid(self):
        problem = self.make()
        assert len(problem.settings) == 6

    def test_rejects_too_few(self):
        with pytest.raises(ValueError, match="at least"):
            self.make(n=2, count=5)

    def test_rejects_mismatched_target(self):
        with pytest.raises(ValueError, match="match"):
            DesignProblem(
                n_qubits=3,
                target=maximally_mixed_ensemble(sector_layout(2)),
                settings=tuple(random_settings(10, seed=1)),
            )

    def test_rejects_bad_noise_constant(self):
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="noise_constant"):
                self.make(noise_constant=value)

    @pytest.mark.parametrize(
        "sign, offset, rejected",
        [(-1.0, 0.0, True), (1.0, 1e-7, True), (-1.0, 1e-7, True),
         (1.0, 1e-5, False), (-1.0, 1e-5, False)],
        ids=["antipodal", "near-1e-7", "near-antipodal-1e-7", "near-1e-5",
             "near-antipodal-1e-5"],
    )
    def test_rejects_sign_duplicates(self, sign, offset, rejected):
        # setting 3 sits at angle ~offset from +-setting 0; the tolerance
        # DUPLICATE_ANGLE_TOL = 1e-6 lies between the two offsets used
        settings = random_settings(6, seed=2)
        a = settings[0].axis
        perp = np.cross(a, E3.axis)
        moved = sign * a + offset * perp / np.linalg.norm(perp)
        settings[3] = Setting(axis=moved / np.linalg.norm(moved))
        expect = (
            pytest.raises(ValueError, match="settings 0 and 3 coincide")
            if rejected else nullcontext()
        )
        with expect:
            DesignProblem(
                n_qubits=2,
                target=maximally_mixed_ensemble(sector_layout(2)),
                settings=tuple(settings),
            )


class TestElementError:
    def problem(self, n, target, k=1.0):
        return DesignProblem(
            n_qubits=n,
            target=target,
            settings=tuple(random_settings(determined_setting_count(n), seed=7)),
            noise_constant=k,
        )

    def test_deterministic_target_error_free(self):
        n = 4
        problem = self.problem(n, dicke_ensemble(n, 0))
        err = oracles.element_error(problem, [E3], BlochIndex(0, 0, n, 0))
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_magnetization_error_on_mixed_state(self):
        n = 4
        problem = self.problem(n, maximally_mixed_ensemble(sector_layout(n)))
        err = oracles.element_error(problem, [E3], BlochIndex(0, 0, 1, n - 1))
        assert err == pytest.approx(1.0 / n, abs=1e-12)

    def test_scales_linearly_in_noise_constant(self):
        n = 2
        target = random_pi_state(sector_layout(n), "hs-mixed", seed=4)
        settings = random_settings(6, seed=9)
        idx = BlochIndex(1, 1, 0, 0)
        e1 = oracles.element_error(self.problem(n, target, k=1.0), settings, idx)
        e2 = oracles.element_error(self.problem(n, target, k=2.0), settings, idx)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)
        assert e1 > 0

    def test_rejects_index_for_other_size(self):
        problem = self.problem(2, maximally_mixed_ensemble(sector_layout(2)))
        with pytest.raises(ValueError, match="N=3"):
            oracles.element_error(problem, problem.settings, BlochIndex(1, 1, 1, 0))


class TestTotalError:
    def problem(self, n=2, seed=0, mode="hs-mixed"):
        target = random_pi_state(sector_layout(n), mode, seed=seed)
        return DesignProblem(
            n_qubits=n,
            target=target,
            settings=tuple(random_settings(determined_setting_count(n), seed=seed)),
        )

    @pytest.mark.parametrize("mode", PURITY_MODES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_element_enumeration(self, n, mode):
        problem = self.problem(n, mode=mode)
        settings = problem.settings
        total = total_error(problem, settings)
        brute = sum(
            idx.multiplicity * oracles.element_error(problem, settings, idx)
            for idx in all_indices(n)
        )
        assert total == pytest.approx(brute, abs=1e-8)
        assert total > 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_expansion_matrix_matches_element_oracle(self, n):
        # the power-table expansion against the per-element reference,
        # including axes with exact zero components
        settings = [E1, E2, E3, Setting(axis=-E3.axis)] + random_settings(8, seed=n)
        powers = _axis_powers(settings, n)
        for w in range(n + 1):
            np.testing.assert_allclose(
                oracles.package_expansion_matrix(powers, w),
                oracles.expansion_matrix([s.axis for s in settings], w),
                rtol=1e-13, atol=0,
            )

    def test_permutation_invariant(self):
        problem = self.problem(seed=3)
        settings = list(problem.settings)
        forward = total_error(problem, settings)
        backward = total_error(problem, settings[::-1])
        assert forward == pytest.approx(backward, rel=1e-12)

    def test_duplicate_setting_weakly_improves(self):
        problem = self.problem(seed=5)
        settings = list(problem.settings)
        base = total_error(problem, settings)
        extended = total_error(problem, settings + [settings[0]])
        assert extended <= base + 1e-12

    def test_rank_deficient_is_infinite(self):
        problem = self.problem(seed=6)
        planar = []
        for i in range(6):
            phi = 0.3 + i
            planar.append(Setting(axis=np.array([math.cos(phi), math.sin(phi), 0.0])))
        assert total_error(problem, planar) == math.inf

    def test_first_deficient_weight(self):
        planar = []
        for i in range(6):
            phi = 0.1 + 0.5 * i
            planar.append(Setting(axis=np.array([math.cos(phi), math.sin(phi), 0.0])))
        assert first_deficient_weight(planar, 2) == 1
        assert first_deficient_weight(random_settings(6, seed=3), 2) is None
        assert first_deficient_weight([E3], 2) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_determined_random_sets_have_full_rank(self, n):
        # Generic determined-count settings span every weight: the total
        # error is finite.
        problem = DesignProblem(
            n_qubits=n,
            target=maximally_mixed_ensemble(sector_layout(n)),
            settings=tuple(random_settings(determined_setting_count(n), seed=n)),
        )
        assert math.isfinite(total_error(problem, problem.settings))


def flattened_settings(count, seed, squash):
    """Random axes with one component shrunk by ``squash``, then turned
    by one random rotation: nearly planar, so the high weights' expansion
    matrices are ill-conditioned, and not merely by column scaling."""
    rng = np.random.default_rng(seed)
    turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    out = []
    for _ in range(count):
        v = turn @ (rng.normal(size=3) * np.array([1.0, 1.0, squash]))
        out.append(Setting(axis=v / np.linalg.norm(v)))
    return out


class TestSquaredCoefficients:
    """The per-setting weights sum_m mult_m X_im^2 of total_error against
    a 40-digit solve from the same double-precision expansion matrix."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_within_condition_times_roundoff(self, n):
        count = determined_setting_count(n)
        designs = {
            "determined": random_settings(count, seed=n),
            "overdetermined": random_settings(count + 5, seed=10 + n),
            "nearly planar": flattened_settings(count + 2, 20 + n, 10.0 ** (-7.0 / n)),
        }
        eps = np.finfo(float).eps
        *_, multiplicity, starts = _weight_tables(n)
        for name, settings in designs.items():
            powers = _axis_powers(settings, n)
            conds = []
            for w in range(n + 1):
                mat = oracles.package_expansion_matrix(powers, w)
                mult = multiplicity[starts[w]:starts[w + 1]]
                cond = np.linalg.cond(mat)
                conds.append(cond)
                exact = oracles.squared_coefficients_mp(mat, mult)
                ours = design._squared_coefficients(np.array(mat, order="F"), mult, w)
                assert np.all(np.abs(ours - exact) <= 64 * eps * cond * exact), (name, w)
            if name == "nearly planar":
                assert 1e5 <= max(conds) <= 1e9


class TestPaperScale:
    """Random determined designs at the paper's N pass the pivot test:
    their top-weight systems reach condition ~1e9 to 1e10 but are of
    full rank."""

    @pytest.mark.parametrize("n", [12, 16, 20, 24, 30])
    def test_random_determined_designs_are_determining(self, n):
        count = determined_setting_count(n)
        for seed in range(4, 16):
            assert first_deficient_weight(random_settings(count, seed=seed), n) is None

    def test_total_error_finite_at_n20(self):
        n = 20
        count = determined_setting_count(n)
        problem = DesignProblem(
            n_qubits=n,
            target=maximally_mixed_ensemble(sector_layout(n)),
            settings=tuple(random_settings(count, seed=6)),
        )
        for seed in (6, 10, 11):
            settings = random_settings(count, seed=seed)
            assert first_deficient_weight(settings, n) is None
            assert math.isfinite(total_error(problem, settings))

    def test_n30_design_is_determining(self):
        assert first_deficient_weight(random_settings(496, seed=4), 30) is None


class TestBlochRoute:
    """total_error's moments from the target's Bloch elements against
    the rotation route."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_product_rule_matches_squared_coefficients(self, n):
        table = _krawtchouk_squares(n)
        moments = np.column_stack([moment_coefficients(n, w) for w in range(n + 1)])
        np.testing.assert_allclose(moments @ table, moments**2, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_reference_design_is_determining(self, n):
        reference = _reference_settings(n)
        assert len(reference) == determined_setting_count(n)
        assert first_deficient_weight(reference, n) is None

    @pytest.mark.parametrize("mode", PURITY_MODES)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_variances_match_moment_variance(self, n, mode):
        problem = DesignProblem(
            n_qubits=n,
            target=random_pi_state(sector_layout(n), mode, seed=20 + n),
            settings=tuple(random_settings(determined_setting_count(n), seed=n)),
        )
        settings = [E1, E2, E3, Setting(axis=-E3.axis)] + list(problem.settings)
        powers = _axis_powers(settings, n)
        means = np.column_stack([
            oracles.package_expansion_matrix(powers, w) @ elements
            for w, elements in enumerate(problem.bloch_elements)
        ])
        variances = means @ _krawtchouk_squares(n) - means**2
        expected = np.array([
            [oracles.moment_variance(problem.target, s, w) for w in range(n + 1)]
            for s in settings
        ])
        np.testing.assert_allclose(variances, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_rotation_route(self, n):
        problem = DesignProblem(
            n_qubits=n,
            target=random_pi_state(sector_layout(n), "haar-pure", seed=40 + n),
            settings=tuple(random_settings(determined_setting_count(n) + 2, seed=n)),
            noise_constant=2.5,
        )
        for seed in (n, 100 + n):
            settings = random_settings(determined_setting_count(n) + seed % 3, seed=seed)
            ours = total_error(problem, settings)
            expected = oracles.rotation_total_error(problem, settings)
            assert math.isfinite(expected)
            assert ours == pytest.approx(expected, rel=1e-12, abs=0)
        planar = [
            Setting(axis=np.array([math.cos(phi), math.sin(phi), 0.0]))
            for phi in 0.3 + np.arange(determined_setting_count(n))
        ]
        assert total_error(problem, planar) == math.inf
        assert oracles.rotation_total_error(problem, planar) == math.inf

    def test_one_rotation_build_per_problem(self, monkeypatch):
        calls = []
        real = design.stacked_blocks

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(design, "stacked_blocks", counted)
        n = 6
        problem = DesignProblem(
            n_qubits=n,
            target=random_pi_state(sector_layout(n), "hs-mixed", seed=2),
            settings=tuple(random_settings(determined_setting_count(n), seed=2)),
        )
        for seed in range(20):
            total_error(problem, random_settings(determined_setting_count(n), seed=seed))
        assert len(calls) <= 1


class TestOptimizeSettings:
    def problem(self, seed=0):
        n = 2
        return DesignProblem(
            n_qubits=n,
            target=maximally_mixed_ensemble(sector_layout(n)),
            settings=tuple(random_settings(6, seed=seed)),
        )

    def test_trace_monotone_and_improves(self):
        problem = self.problem(seed=1)
        result = optimize_settings(problem, seed=2, max_stall=40)
        trace = result.error_trace
        assert np.all(np.diff(trace) < 0)
        assert result.final_error <= trace[0]
        assert result.proposals >= 40
        assert len(result.settings) == 6

    def test_seed_reproducibility(self):
        problem = self.problem(seed=1)
        a = optimize_settings(problem, seed=3, max_stall=25)
        b = optimize_settings(problem, seed=3, max_stall=25)
        assert a.final_error == b.final_error
        assert a.proposals == b.proposals

    def test_beats_random_median(self):
        problem = self.problem(seed=4)
        result = optimize_settings(problem, seed=5, max_stall=60)
        randoms = [
            total_error(problem, random_settings(6, seed=100 + i)) for i in range(50)
        ]
        assert result.final_error <= np.median(randoms)

    def test_overcomplete_sets_less_sensitive(self):
        # 4x overcomplete random sets vary much less (relative to their
        # mean) than determined-count random sets.
        problem = self.problem(seed=7)
        det = np.array(
            [total_error(problem, random_settings(6, seed=i)) for i in range(20)]
        )
        over = np.array(
            [total_error(problem, random_settings(24, seed=i)) for i in range(20)]
        )
        assert np.all(np.isfinite(det)) and np.all(np.isfinite(over))
        assert over.std() / over.mean() < det.std() / det.mean()
        assert over.mean() < det.mean()

    def test_parameter_validation(self):
        problem = self.problem(seed=1)
        with pytest.raises(ValueError):
            optimize_settings(problem, seed=0, p_mix=1.0)
        with pytest.raises(ValueError):
            optimize_settings(problem, seed=0, max_stall=0)

    @pytest.mark.parametrize("n, seed", [(3, 11), (4, 12), (6, 13)])
    def test_walk_matches_rotation_route(self, n, seed, monkeypatch):
        problem = DesignProblem(
            n_qubits=n,
            target=random_pi_state(sector_layout(n), "hs-mixed", seed=seed),
            settings=tuple(random_settings(determined_setting_count(n), seed=seed)),
        )
        ours = optimize_settings(problem, seed=seed, max_stall=30)
        monkeypatch.setattr(design, "total_error", oracles.rotation_total_error)
        ref = optimize_settings(problem, seed=seed, max_stall=30)
        assert len(ours.error_trace) == len(ref.error_trace) > 1
        assert ours.proposals == ref.proposals
        for a, b in zip(ours.settings, ref.settings):
            assert np.array_equal(a.axis, b.axis)
        np.testing.assert_allclose(ours.error_trace, ref.error_trace, rtol=1e-12, atol=0)
