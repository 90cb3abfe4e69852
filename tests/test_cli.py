import csv
import json
import math

import numpy as np
import pytest

from pitomo.cli import EXIT_INPUT, EXIT_OK, main
from pitomo.design import determined_setting_count, random_settings
from pitomo.povm import E1, E2, E3, Setting, save_settings
from pitomo.pretest import load_witness
from pitomo.sim import load_dataset
from pitomo.spin_blocks import dicke_ensemble, ghz_ensemble, sector_layout

STD = [E1, E2, E3]


def write_settings(path, count, seed=0):
    save_settings(random_settings(count, seed=seed), path)
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


class TestParsing:
    def test_help_exits_cleanly(self):
        assert run("--help") == EXIT_OK

    def test_unknown_command(self):
        assert run("frobnicate") == EXIT_INPUT

    def test_unknown_flag_rejected(self):
        assert run("simulate", "--does-not-exist", "1") == EXIT_INPUT

    def test_missing_command(self):
        assert run() == EXIT_INPUT


class TestSimulate:
    def test_one_record_per_setting(self, tmp_path):
        n = 4
        settings = write_settings(tmp_path / "s.json", determined_setting_count(n))
        out = tmp_path / "data.json"
        rc = run("simulate", "--n", n, "--state", "ghz", "--settings", settings,
                 "--shots", 1000, "--seed", 7, "-o", out)
        assert rc == EXIT_OK
        ds = load_dataset(out)
        assert len(ds.records) == 15
        assert not ds.exact
        for rec in ds.records:
            assert rec.counts.sum() == pytest.approx(1000)

    def test_exact_flag(self, tmp_path):
        settings = write_settings(tmp_path / "s.json", 6)
        out = tmp_path / "data.json"
        rc = run("simulate", "--n", 2, "--state", "mm", "--settings", settings,
                 "--exact", "-o", out)
        assert rc == EXIT_OK
        ds = load_dataset(out)
        assert ds.exact
        for rec in ds.records:
            assert rec.counts.sum() == pytest.approx(1.0, abs=1e-12)

    def test_missing_settings_file(self, tmp_path, capsys):
        rc = run("simulate", "--n", 2, "--settings", tmp_path / "nope.json",
                 "--shots", 10, "-o", tmp_path / "d.json")
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_missing_required_parameters(self, tmp_path):
        settings = write_settings(tmp_path / "s.json", 6)
        out = tmp_path / "d.json"
        assert run("simulate", "--settings", settings, "--shots", 5,
                   "-o", out) == EXIT_INPUT
        assert run("simulate", "--n", 2, "--shots", 5, "-o", out) == EXIT_INPUT
        assert run("simulate", "--n", 2, "--settings", settings,
                   "-o", out) == EXIT_INPUT
        assert run("simulate", "--n", 2, "--settings", settings,
                   "--shots", 5) == EXIT_INPUT

    def test_deterministic_output(self, tmp_path):
        settings = write_settings(tmp_path / "s.json", 6)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = run("simulate", "--n", 3, "--state", "mixed", "--settings",
                     settings, "--shots", 400, "--seed", 11, "-o", out)
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_qubit_cap_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PITOMO_MAX_QUBITS", "3")
        settings = write_settings(tmp_path / "s.json", 15)
        rc = run("simulate", "--n", 4, "--settings", settings, "--shots", 10,
                 "-o", tmp_path / "d.json")
        assert rc == EXIT_INPUT
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("exact", [False, True])
    def test_rejects_nan_setting_axis(self, tmp_path, capsys, exact):
        # Python's json reads the NaN literal
        settings = tmp_path / "s.json"
        settings.write_text("[[NaN, 0, 1], [0, 0, 1]]")
        flags = ["--exact"] if exact else ["--shots", 10]
        rc = run("simulate", "--n", 2, "--settings", settings, *flags,
                 "-o", tmp_path / "d.json")
        assert rc == EXIT_INPUT
        assert "setting axis" in capsys.readouterr().err

    def test_dicke_excitations(self, tmp_path):
        settings = save_settings([E3], tmp_path / "s.json") or str(tmp_path / "s.json")
        out = tmp_path / "d.json"
        rc = run("simulate", "--n", 4, "--state", "dicke", "--excitations", 1,
                 "--settings", settings, "--exact", "-o", out)
        assert rc == EXIT_OK
        ds = load_dataset(out)
        # Dicke(4,1) measured along its axis: deterministic outcome 3
        np.testing.assert_allclose(ds.records[0].counts, [0, 0, 0, 1, 0], atol=1e-12)


@pytest.fixture()
def exact_problem(tmp_path):
    """Exact dataset for a pure N=3 state plus its truth file."""
    n = 3
    settings = write_settings(tmp_path / "s.json", 12, seed=4)
    truth_path = tmp_path / "truth.json"
    data_path = tmp_path / "data.json"
    rc = run("simulate", "--n", n, "--state", "pure", "--settings", settings,
             "--exact", "--seed", 5, "-o", data_path)
    assert rc == EXIT_OK
    from pitomo.sim import random_pi_state

    random_pi_state(sector_layout(n), "haar-pure", seed=5).save(truth_path)
    return data_path, truth_path


class TestReconstruct:
    def test_round_trip_with_truth(self, exact_problem, tmp_path, capsys):
        data_path, truth_path = exact_problem
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.csv"
        rc = run("reconstruct", "--dataset", data_path, "--principle", "ml",
                 "--truth", truth_path, "-o", out, "--trace", trace)
        assert rc == EXIT_OK
        assert "distance to truth" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "convex"
        assert payload["converged"] is True
        assert payload["truth_distance"] <= 1e-4
        assert payload["gap_bound"] == pytest.approx(1e-10 * 6)
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(payload["trace"])
        assert {"t", "iterations", "fit_value", "grad_norm", "decrement", "hessians",
                "hessian_rows", "trace_distance"} <= set(rows[0])
        distances = [float(r["trace_distance"]) for r in rows]
        assert distances[-1] <= 1e-4
        # fit Hessians formed per stage, apart from the Newton steps
        hessians = [int(r["hessians"]) for r in rows]
        assert hessians == [entry["hessians"] for entry in payload["trace"]]
        assert sum(hessians) == payload["total_hessians"] >= 1
        assert payload["total_hessians"] <= payload["total_iterations"] + len(rows)
        hessian_rows = [int(r["hessian_rows"]) for r in rows]
        assert hessian_rows == [entry["hessian_rows"] for entry in payload["trace"]]
        assert sum(hessian_rows) == payload["total_hessian_rows"]

    @pytest.mark.parametrize("principle", ["ml", "ls", "freels"])
    def test_reports_rows_reweighted(self, principle, tmp_path, capsys):
        # a fit's first Hessian is formed over all 12 x 4 outcome rows; a
        # held one re-weights only its drifted rows; LS forms its one
        # Hessian once
        n, count = 3, 12
        settings = write_settings(tmp_path / "s.json", count, seed=4)
        data = tmp_path / "d.json"
        run("simulate", "--n", n, "--state", "mixed", "--settings", settings,
            "--shots", 500, "--seed", 4, "-o", data)
        out = tmp_path / "r.json"
        trace = tmp_path / "t.csv"
        rc = run("reconstruct", "--dataset", data, "--principle", principle, "-o", out,
                 "--trace", trace)
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        outcomes = count * (n + 1)
        total = payload["total_hessian_rows"]
        assert f"{payload['total_hessians']} fit Hessians over {total} rows" in (
            capsys.readouterr().out)
        with open(trace, newline="") as fh:
            csv_rows = [int(r["hessian_rows"]) for r in csv.DictReader(fh)]
        assert csv_rows == [entry["hessian_rows"] for entry in payload["trace"]]
        assert sum(csv_rows) == total
        assert payload["trace"][0]["hessian_rows"] >= outcomes
        if principle == "ls":
            assert payload["total_hessians"] == 1 and total == outcomes
        else:
            assert outcomes < total < payload["total_hessians"] * outcomes
        for entry in payload["trace"]:
            assert entry["hessian_rows"] <= entry["hessians"] * outcomes
            assert (entry["hessian_rows"] == 0) == (entry["hessians"] == 0)

    def test_hedged_gap_is_beta_times_dimension(self, tmp_path):
        settings = write_settings(tmp_path / "s.json", 6)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--state", "mixed", "--settings", settings,
            "--shots", 500, "--seed", 2, "-o", data)
        out = tmp_path / "r.json"
        rc = run("reconstruct", "--dataset", data, "--principle", "hedged",
                 "--beta", 1e-4, "-o", out)
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["gap_bound"] == pytest.approx(1e-4 * 4, rel=1e-12)

    def test_hedged_requires_beta(self, tmp_path, capsys):
        settings = write_settings(tmp_path / "s.json", 6)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--settings", settings, "--shots", 100,
            "--seed", 0, "-o", data)
        assert run("reconstruct", "--dataset", data, "--principle",
                   "hedged") == EXIT_INPUT
        assert "beta" in capsys.readouterr().err
        assert run("reconstruct", "--dataset", data, "--principle", "ml",
                   "--beta", 0.1) == EXIT_INPUT

    def test_fixed_point_run(self, tmp_path):
        settings = write_settings(tmp_path / "s.json", 8)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--state", "mixed", "--settings", settings,
            "--shots", 300, "--seed", 9, "-o", data)
        out = tmp_path / "r.json"
        trace = tmp_path / "t.csv"
        rc = run("reconstruct", "--dataset", data, "--algorithm", "fixed-point",
                 "--iters", 60, "-o", out, "--trace", trace)
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "fixed-point"
        assert payload["iterations"] == 60
        assert payload["likelihood_residual"] >= 0.0
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "fit_value"]
        assert len(rows) == 62  # header + initial value + 60 iterates

    @pytest.mark.parametrize("iters", [-1, -5])
    def test_fixed_point_rejects_negative_iters(self, tmp_path, capsys, iters):
        settings = write_settings(tmp_path / "s.json", 6)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--settings", settings, "--shots", 100,
            "--seed", 0, "-o", data)
        assert run("reconstruct", "--dataset", data, "--algorithm", "fixed-point",
                   "--iters", iters) == EXIT_INPUT
        assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("grad_tol", [-1, "inf"])
    def test_rejects_bad_grad_tol(self, tmp_path, capsys, grad_tol):
        # -1 squares to a decrement tolerance of 1 and inf passes any
        # gradient, so either would report convergence without one
        settings = write_settings(tmp_path / "s.json", 6)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--settings", settings, "--shots", 100,
            "--seed", 0, "-o", data)
        assert run("reconstruct", "--dataset", data, "--grad-tol", grad_tol) == EXIT_INPUT
        assert "grad_tol" in capsys.readouterr().err

    def test_rejects_infinite_beta(self, tmp_path, capsys):
        # beta = inf would run one stage at t = inf and fail inside Newton
        settings = write_settings(tmp_path / "s.json", 6)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--settings", settings, "--shots", 100,
            "--seed", 0, "-o", data)
        assert run("reconstruct", "--dataset", data, "--principle", "hedged",
                   "--beta", "inf") == EXIT_INPUT
        assert "beta" in capsys.readouterr().err

    def test_rejects_t_min_above_t0(self, tmp_path, capsys):
        # t0 = 1e-12 is below the default t_min = 1e-10: the schedule would
        # drop t0 and run one stage at t_min from the analytic centre
        settings = write_settings(tmp_path / "s.json", 6)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--settings", settings, "--shots", 100,
            "--seed", 0, "-o", data)
        assert run("reconstruct", "--dataset", data, "--t0", 1e-12) == EXIT_INPUT
        assert "t_min" in capsys.readouterr().err

    def test_rejects_malformed_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_qubits": 2}')
        assert run("reconstruct", "--dataset", bad) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_rejects_truth_size_mismatch(self, exact_problem, tmp_path):
        data_path, _ = exact_problem
        wrong = tmp_path / "wrong_truth.json"
        dicke_ensemble(2, 1).save(wrong)
        assert run("reconstruct", "--dataset", data_path, "--truth",
                   wrong) == EXIT_INPUT


class TestPretest:
    def test_full_report(self, tmp_path, capsys):
        target_path = tmp_path / "target.json"
        dicke_ensemble(3, 1).save(target_path)
        settings = tmp_path / "s.json"
        save_settings(STD, settings)
        data = tmp_path / "d.json"
        run("simulate", "--n", 3, "--state", "dicke", "--excitations", 1,
            "--settings", settings, "--shots", 4000, "--seed", 21, "-o", data)
        report = tmp_path / "report.json"
        witness_path = tmp_path / "w.json"
        rc = run("pretest", "--target", target_path, "--settings", settings,
                 "--dataset", data, "--epsilon", 0.1,
                 "--witness-out", witness_path, "-o", report)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "fidelity bound" in out
        assert "confidence" in out
        assert "coefficients in" in out
        payload = json.loads(report.read_text())
        assert payload["objective"] >= 1.0 - 1e-6
        assert payload["fidelity_bound"] > 0.7
        assert 0.0 < payload["confidence"] < 1.0
        assert payload["statistical_bound"] <= payload["fidelity_bound"]
        loaded = load_witness(witness_path)
        assert loaded.n_qubits == 3

    def test_exact_dataset_skips_statistics(self, tmp_path, capsys):
        target_path = tmp_path / "target.json"
        dicke_ensemble(2, 0).save(target_path)
        settings = tmp_path / "s.json"
        save_settings(STD, settings)
        data = tmp_path / "d.json"
        run("simulate", "--n", 2, "--state", "dicke", "--excitations", 0,
            "--settings", settings, "--exact", "-o", data)
        rc = run("pretest", "--target", target_path, "--dataset", data)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "fidelity bound" in out
        assert "statistical bound" not in out

    def test_witness_only_run(self, tmp_path, capsys):
        target_path = tmp_path / "target.json"
        ghz_ensemble(4).save(target_path)
        rc = run("pretest", "--target", target_path)
        assert rc == EXIT_OK
        assert "witness objective" in capsys.readouterr().out

    def test_missing_target(self, tmp_path):
        assert run("pretest", "--target", tmp_path / "none.json") == EXIT_INPUT


class TestOptimizeSettings:
    def test_optimizes_and_saves(self, tmp_path):
        out = tmp_path / "opt.json"
        trace = tmp_path / "trace.csv"
        rc = run("optimize-settings", "--n", 2, "--seed", 5, "--max-stall", 40,
                 "-o", out, "--trace", trace)
        assert rc == EXIT_OK
        from pitomo.povm import load_settings

        optimized = load_settings(out)
        assert len(optimized) == determined_setting_count(2)
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        errors = [float(r[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_initial_settings_file(self, tmp_path):
        initial = write_settings(tmp_path / "init.json", 8, seed=3)
        out = tmp_path / "opt.json"
        rc = run("optimize-settings", "--n", 2, "--initial", initial,
                 "--seed", 1, "--max-stall", 30, "-o", out)
        assert rc == EXIT_OK
        from pitomo.povm import load_settings

        assert len(load_settings(out)) == 8

    def test_rank_deficient_initial_names_weight(self, tmp_path, capsys):
        planar = [
            Setting(axis=np.array([math.cos(p), math.sin(p), 0.0]))
            for p in (0.1, 0.6, 1.1, 1.6, 2.1, 2.6)
        ]
        init = tmp_path / "planar.json"
        save_settings(planar, init)
        rc = run("optimize-settings", "--n", 2, "--initial", init, "--seed", 0,
                 "-o", tmp_path / "o.json")
        assert rc == EXIT_INPUT
        assert "weight-1" in capsys.readouterr().err

    def test_scores_a_random_start_at_n20(self, tmp_path, capsys):
        # a determined random start whose weight-20 system has condition
        # ~1e9: the pivot test accepts it, as it determines the state
        out = tmp_path / "o.json"
        rc = run("optimize-settings", "--n", 20, "--count", 231, "--seed", 6,
                 "--max-stall", 2, "-o", out)
        assert rc == EXIT_OK, capsys.readouterr().err
        from pitomo.povm import load_settings

        assert len(load_settings(out)) == 231

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_initial_axis(self, tmp_path, capsys, entry):
        rows = [[float(c) for c in s.axis] for s in random_settings(8, seed=3)]
        rows[2][0] = float(entry)  # json writes NaN, Infinity, -Infinity
        init = tmp_path / "init.json"
        init.write_text(json.dumps(rows))
        rc = run("optimize-settings", "--n", 2, "--initial", init, "--seed", 0,
                 "-o", tmp_path / "o.json")
        assert rc == EXIT_INPUT
        assert "setting axis" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "1e308"])
    def test_rejects_unbounded_noise_constant(self, tmp_path, capsys, value):
        out = tmp_path / "o.json"
        rc = run("optimize-settings", "--n", 2, "--noise-constant", value,
                 "--seed", 0, "-o", out)
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "noise" in err and "weight-None" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_non_positive_count(self, tmp_path, capsys, count):
        out = tmp_path / "o.json"
        assert run("optimize-settings", "--n", 2, "--count", count, "-o", out) == EXIT_INPUT
        assert "count" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_count(self, tmp_path):
        out = tmp_path / "o.json"
        rc = run("optimize-settings", "--n", 2, "--count", 11, "--seed", 3,
                 "--max-stall", 10, "-o", out)
        assert rc == EXIT_OK
        from pitomo.povm import load_settings

        assert len(load_settings(out)) == 11

    def test_requires_n_and_output(self, tmp_path):
        assert run("optimize-settings", "-o", tmp_path / "o.json") == EXIT_INPUT
        assert run("optimize-settings", "--n", 2) == EXIT_INPUT

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = run("optimize-settings", "--n", 2, "--seed", 9,
                     "--max-stall", 25, "-o", out)
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
