"""Command-line surface: each subcommand's happy path, output forms, and
exit codes (0 ok, 1 failed verification, 2 usage or input errors)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fermilcu.cli import main
from fermilcu.integrals import load_fixture
from fermilcu.report import COSTED_METHODS, METHODS, costs_for, decompose_method


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_json_payload(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--input", "h2",
                                 "--method", "pauli")
        assert code == 0 and err == ""
        payload = json.loads(out)
        maj, lcu = decompose_method(load_fixture("h2"), "pauli")
        assert payload["lambda"] == pytest.approx(lcu.one_norm, rel=1e-12)
        assert payload["n_orbitals"] == 2
        assert payload["n_fragments"] == len(lcu.fragments)
        assert payload["metadata"]["threshold"] == pytest.approx(1e-5)

    def test_csv_payload(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--input", "h2",
                               "--method", "df", "--output", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "method,n_orbitals,lambda,constant,n_fragments"
        cells = row.split(",")
        assert cells[0] == "df"
        assert float(cells[2]) > 0

    def test_missing_input_is_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--input",
                                 "no_such_molecule", "--method", "pauli")
        assert code == 2
        assert err.startswith("error:")

    def test_non_finite_core_energy_is_exit_2(self, capsys, tmp_path):
        # a nan core would print "constant": NaN, which is not JSON
        path = tmp_path / "nan_core.fcidump"
        path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n"
                        "0.15 1 1 1 1\n-2.0 1 1 0 0\nnan 0 0 0 0\n")
        code, out, err = run_cli(capsys, "decompose", "--input", str(path),
                                 "--method", "pauli")
        assert code == 2 and out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "-1", "'tol' must be a finite number > 0"),
        ("--tol", "0", "'tol' must be a finite number > 0"),
        ("--tol", "nan", "'tol' must be a finite number > 0"),
        ("--sparse-threshold", "-1", "'sparse_threshold' must be a finite"),
        ("--sparse-threshold", "inf", "'sparse_threshold' must be a finite"),
        ("--max-rank", "0", "'max_rank' must be at least 1"),
        ("--fragments", "0", "'fragments' must be at least 1"),
        ("--oo-budget", "0", "'oo_budget' must be at least 1"),
        ("--oo-restarts", "-1", "'oo_restarts' must be at least 1"),
    ], ids=["tol=-1", "tol=0", "tol=nan", "sparse-threshold=-1",
            "sparse-threshold=inf", "max-rank=0", "fragments=0",
            "oo-budget=0", "oo-restarts=-1"])
    def test_out_of_range_option_is_exit_2(self, capsys, flag, value, message):
        # l4-cp4 at tol <= 0 would double its rank up to N^4 before failing
        code, out, err = run_cli(capsys, "decompose", "--input", "h2",
                                 "--method", "l4-cp4", flag, value)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("method",
                             ["pauli", "sf", "df", "csa", "l4-cp4", "oo-pauli"])
    def test_negative_seed_is_exit_2(self, capsys, method):
        # pauli, sf and df ignore the seed; the others would fail mid-run
        code, out, err = run_cli(capsys, "decompose", "--input", "h2",
                                 "--method", method, "--seed", "-1")
        assert code == 2 and out == ""
        assert "'seed' must be an integer >= 0, not -1" in err

    def test_zero_sparse_threshold_keeps_every_term(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--input", "h2",
                               "--method", "pauli", "--sparse-threshold", "0")
        assert code == 0
        assert json.loads(out)["metadata"]["dropped_weight"] == 0.0

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", "h2", "--method", "qrom"])
        assert exc.value.code == 2

    def test_orbital_optimized_flags_plumb_through(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--input", "h2",
                               "--method", "oo-pauli", "--oo-budget", "200",
                               "--oo-restarts", "1")
        assert code == 0
        base = decompose_method(load_fixture("h2"), "pauli")[1].one_norm
        assert json.loads(out)["lambda"] <= base + 1e-9


class TestEstimate:
    def test_json_schema_and_consistency(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--input", "h2",
                               "--method", "pauli")
        assert code == 0
        payload = json.loads(out)
        maj, lcu = decompose_method(load_fixture("h2"), "pauli")
        report = costs_for(lcu, maj)
        assert payload["t_sel"] == report.t_sel
        assert payload["t_prep"] == report.t_prep
        assert payload["rz"] == report.rz_count
        assert payload["qubits"] == {"clean": report.qubits_nonreusable,
                                     "reusable": report.qubits_reusable}
        assert payload["hardness"] == pytest.approx(report.hardness)
        assert payload["calibration"]["eps_coeff"] > 0

    def test_explicit_precisions(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--input", "h2",
                               "--method", "pauli", "--eps-coeff", "0.25",
                               "--eps-rot", "1e-4")
        assert code == 0
        payload = json.loads(out)
        assert payload["calibration"]["eps_coeff"] == pytest.approx(0.25)
        assert payload["calibration"]["eps_rot"] == pytest.approx(1e-4)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--input", "h2",
                               "--method", "df", "--output", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",") == ["method", "N", "lambda", "t_sel",
                                     "t_prep", "rz", "qubits_clean",
                                     "qubits_reusable", "hardness"]
        assert len(row.split(",")) == 9

    @pytest.mark.parametrize("method,extra", [
        ("ac", ()), ("oo-ac", ("--oo-budget", "30", "--oo-restarts", "1"))])
    def test_ac_methods_are_priced(self, capsys, method, extra):
        code, out, err = run_cli(capsys, "estimate", "--input", "h2",
                                 "--method", method, *extra)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["method"] == method
        assert payload["calibration"]["G"] > 0
        assert payload["t_sel"] > 0 and payload["hardness"] > 0

    def test_uncosted_method_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--input", "h2",
                               "--method", "sf")
        assert code == 2
        assert "no closed-form cost model" in err


class TestVerify:
    @pytest.mark.parametrize("method", ["pauli", "df", "l4-svd"])
    def test_h2_methods_verify(self, capsys, method):
        code, out, _ = run_cli(capsys, "verify", "--input", "h2",
                               "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_ok"] is True
        assert payload["deviation"] >= 0


    def test_h2o_pauli_verifies(self, capsys):
        # the deviation is pauli's dropped weight summed in another order
        code, out, _ = run_cli(capsys, "verify", "--input", "h2o",
                               "--method", "pauli")
        assert code == 0
        assert json.loads(out)["bound_ok"] is True

    def test_chain_h10_reconstructs_without_spectral_range(self, capsys,
                                                           monkeypatch):
        from fermilcu import report

        def refuse(maj):
            raise AssertionError("spectral range taken above its limit")

        monkeypatch.setattr(report, "spectral_range", refuse)
        code, out, err = run_cli(capsys, "verify", "--input", "chain_h10",
                                 "--method", "df")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["bound_ok"] is None and payload["half_range"] is None
        assert payload["deviation"] <= payload["tolerance"]
        assert payload["verified"] is True


class TestSpectrum:
    def test_half_range_json(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--input", "h2")
        assert code == 0
        payload = json.loads(out)
        assert payload["half_range"] == pytest.approx(1.0291289548, abs=1e-8)
        assert payload["e_min"] < payload["e_max"]

    def test_csv_form(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--input", "h2",
                               "--output", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "e_min,e_max,half_range"
        e_min, e_max, half = (float(c) for c in row.split(","))
        assert half == pytest.approx((e_max - e_min) / 2, rel=1e-10)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak from /proc/self/status")
    def test_chain_h08_peak_memory(self):
        # The child prints its own peak resident set, VmHWM. Its ru_maxrss
        # would not do: Linux carries the parent's high-water mark into it
        # across exec, so under pytest it read 207 MB for a 128 MB run.
        # Measured at one BLAS thread: 110.1 MB, against 129 MB with a
        # copied block per sector and 241 MB for the full 2^16-state
        # matrix; the bound leaves 15 MB of headroom.
        code = ("from fermilcu.cli import main\n"
                "assert main(['spectrum', '--input', 'chain_h08']) == 0\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')"
                " if line.startswith('VmHWM:')))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        *payload, peak_kib = result.stdout.strip().splitlines()
        assert json.loads("\n".join(payload))["half_range"] == pytest.approx(
            4.627652435955006, rel=1e-12)
        assert int(peak_kib) / 1024 <= 125.0


class TestFit:
    def test_json_fit_over_two_chains(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--method", "pauli",
                               "--quantity", "lambda",
                               "--chains", "chain_h02,chain_h04")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_points"] == 2
        assert payload["beta"] > 0
        assert payload["chains"] == ["chain_h02", "chain_h04"]

    def test_csv_series(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--method", "pauli",
                               "--chains", "chain_h02,chain_h04",
                               "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,lambda,hardness,qubits"
        assert len(lines) == 3

    @pytest.mark.parametrize("method", ["sf", "csa"])
    def test_uncosted_method_fits_lambda_only(self, capsys, method):
        chains = ("--chains", "chain_h02,chain_h04")
        code, out, err = run_cli(capsys, "fit", "--method", method,
                                 "--quantity", "lambda", *chains,
                                 "--output", "csv")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["2", "4"]
        assert all(float(row[1]) > 0 and row[2:] == ["", ""] for row in rows)
        for quantity in ("hardness", "qubits"):
            code, _, err = run_cli(capsys, "fit", "--method", method,
                                   "--quantity", quantity, *chains)
            assert code == 2
            assert f"no closed-form cost model for method '{method}'" in err

    def test_l4_svd_lambda_over_default_chains(self, capsys):
        # every chain, chain_h10 included, factorizes without a size guard
        code, out, err = run_cli(capsys, "fit", "--method", "l4-svd",
                                 "--quantity", "lambda")
        assert code == 0, err
        assert json.loads(out)["n_points"] == 5

    def test_oo_chain_default_comes_from_method_table(self, capsys,
                                                      monkeypatch):
        from fermilcu import report

        entry = dataclasses.replace(report.METHOD_TABLE["ac"],
                                    chain_oo_budget=6, chain_oo_restarts=1)
        monkeypatch.setitem(report.METHOD_TABLE, "ac", entry)
        calls = []
        optimize = report.orbital_optimize

        def recording(mol, **options):
            calls.append((options["budget"], options["restarts"]))
            return optimize(mol, **options)

        monkeypatch.setattr(report, "orbital_optimize", recording)
        fit = ("fit", "--method", "oo-ac", "--quantity", "lambda",
               "--chains", "chain_h02,chain_h04")
        code, _, err = run_cli(capsys, *fit)
        assert code == 0, err
        assert calls == [(6, 1), (6, 1)]
        # an explicit restart count is kept, the budget still comes from
        # the table
        calls.clear()
        code, _, err = run_cli(capsys, *fit, "--oo-restarts", "3")
        assert code == 0, err
        assert calls == [(6, 3), (6, 3)]


class TestPipeline:
    def test_end_to_end(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("files = h2\nmethods = pauli, df\noutput = report\n")
        code, out, _ = run_cli(capsys, "pipeline", "--config", str(config))
        assert code == 0
        summary = json.loads(out)
        assert summary["rows"] == 2
        assert summary["verified"] == 2
        assert summary["failed"] == 0
        assert (tmp_path / "report.json").is_file()
        assert (tmp_path / "report.csv").is_file()

    def test_missing_config_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "pipeline", "--config",
                               str(tmp_path / "absent.cfg"))
        assert code == 2
        assert err.startswith("error:")

    def test_config_error_reported_not_raised(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("files = h2\nmethods = qrom\n")
        code, _, err = run_cli(capsys, "pipeline", "--config", str(config))
        assert code == 2
        assert "unknown method" in err

    def test_misspelt_config_key_is_exit_2(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("files = h2\nmethds = df\n")
        code, out, err = run_cli(capsys, "pipeline", "--config", str(config))
        assert code == 2
        assert "unknown config key 'methds'" in err
        assert out == ""

    @pytest.mark.parametrize("line", ["overrides = 3", "tol = abc"])
    def test_malformed_config_value_is_exit_2(self, capsys, tmp_path, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"files = h2\nmethods = df\n{line}\n")
        code, out, err = run_cli(capsys, "pipeline", "--config", str(config))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


@pytest.mark.parametrize("method", METHODS)
def test_every_method_through_every_entry_point(capsys, tmp_path, method):
    oo = ("--oo-budget", "50", "--oo-restarts", "1")
    code, out, err = run_cli(capsys, "estimate", "--input", "h2",
                             "--method", method, *oo)
    if method in COSTED_METHODS:
        assert code == 0, err
        payload = json.loads(out)
        assert payload["t_sel"] > 0 and payload["t_prep"] > 0
        assert payload["hardness"] > 0 and payload["qubits"]["clean"] > 0
    else:
        assert code == 2
        assert f"no closed-form cost model for method '{method}'" in err

    config = tmp_path / "run.cfg"
    config.write_text(f"files = h2\nmethods = {method}\n"
                      "oo_budget = 50\noo_restarts = 1\n")
    code, out, err = run_cli(capsys, "pipeline", "--config", str(config))
    assert code == 0, err
    assert json.loads(out)["verified"] == 1

    code, out, err = run_cli(capsys, "fit", "--method", method, "--quantity",
                             "lambda", "--chains", "chain_h02,chain_h04", *oo)
    assert code == 0, err
    assert json.loads(out)["n_points"] == 2
