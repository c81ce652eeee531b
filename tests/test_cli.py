"""Command-line surface: each subcommand's happy path, output forms, and
exit codes (0 ok, 1 failed verification, 2 usage or input errors)."""

import json

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
