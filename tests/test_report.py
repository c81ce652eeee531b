"""Batch plumbing: config parsing, input resolution, pipeline assembly, CSV
and JSON emission, and the chain scaling fits."""

import dataclasses
import json
import re

import numpy as np
import pytest

from fermilcu.integrals import load_fixture
from fermilcu.lcu import Fragment
from fermilcu.majorana import build_majorana, pauli_sum_of_hamiltonian
from fermilcu.report import (
    COSTED_METHODS,
    CSV_COLUMNS,
    METHOD_TABLE,
    METHODS,
    chain_series,
    cost_report_json,
    costs_for,
    decompose_method,
    fit_chain_scaling,
    fit_loglog,
    parse_config,
    resolve_input,
    rows_to_csv,
    run_pipeline,
    series_to_csv,
    sig12,
    verification_payload,
)
from fermilcu.resources import sparse_costs, sparse_term_count
from fermilcu.verify import (
    reconstruction_tolerance,
    spectral_range,
    verify_reconstruction,
)
from reference import sorted_insertion_ac

# fragments per method on chain_h10; ac's 734 groups hold 9,934 words
CHAIN_H10_FRAGMENTS = {"pauli": 19884, "ac": 734, "df": 3630, "l4-mps": 7620}


class TestFitLoglog:
    def test_exact_power_law(self):
        # y = 10 x^2 on the nose
        fit = fit_loglog([(1, 10.0), (2, 40.0), (3, 90.0)])
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.beta == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 3

    def test_constant_series_is_flat(self):
        fit = fit_loglog([(1, 5.0), (2, 5.0), (8, 5.0)])
        assert fit.beta == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_two_points_define_the_line(self):
        fit = fit_loglog([(2, 3.0), (4, 12.0)])
        assert fit.beta == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noise_lowers_r_squared(self):
        pts = [(n, 7.0 * n ** 1.5 * f) for n, f in
               ((2, 1.04), (4, 0.95), (6, 1.02), (8, 0.97), (10, 1.01))]
        fit = fit_loglog(pts)
        assert 1.3 < fit.beta < 1.7
        assert 0.9 < fit.r_squared < 1.0

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_loglog([(1, 1.0)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog([(1, 1.0), (2, 0.0)])
        with pytest.raises(ValueError):
            fit_loglog([(-1, 1.0), (2, 3.0)])


class TestCsvCells:
    def test_sig12_keeps_twelve_digits(self):
        assert sig12(1.0 / 3.0) == "0.333333333333"
        assert sig12(2.0) == "2"
        assert float(sig12(np.pi)) == pytest.approx(np.pi, rel=1e-11)

    def test_rows_to_csv_shape_and_blanks(self):
        rows = [{"file": "h2", "method": "sf", "n_orbitals": 2,
                 "lambda": 1.5, "constant": -0.25, "bound_ok": True}]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        # uncosted method leaves the gate columns empty, booleans lowercase
        assert cells[CSV_COLUMNS.index("t_sel")] == ""
        assert cells[CSV_COLUMNS.index("bound_ok")] == "true"
        assert cells[CSV_COLUMNS.index("lambda")] == "1.5"


class TestParseConfig:
    def test_values_comments_and_lists(self):
        text = """
        # batch over two molecules
        files = h2, lih
        methods = pauli, df
        tol = 1e-7       # trailing comment
        output = report
        seed = 11
        """
        config = parse_config(text)
        assert config["files"] == ["h2", "lih"]
        assert config["methods"] == ["pauli", "df"]
        assert config["tol"] == 1e-7
        assert config["seed"] == 11
        assert config["output"] == "report"

    def test_method_scoped_overrides(self):
        config = parse_config("tol = 1e-6\ntol.df = 1e-9\nseed.csa = 5\n")
        assert config["tol"] == 1e-6
        assert config["overrides"]["df"]["tol"] == 1e-9
        assert config["overrides"]["csa"]["seed"] == 5

    def test_rejects_line_without_equals(self):
        with pytest.raises(ValueError):
            parse_config("files h2\n")

    def test_strings_pass_through(self):
        assert parse_config("output = out/run1\n")["output"] == "out/run1"


class TestResolveInput:
    def test_fixture_short_name(self):
        path = resolve_input("h2")
        assert path.is_file()
        assert path.name == "h2.fcidump"

    def test_fixture_name_with_extension(self):
        assert resolve_input("h2.fcidump").is_file()

    def test_explicit_path_wins(self, tmp_path):
        f = tmp_path / "mine.fcidump"
        f.write_text("placeholder")
        assert resolve_input(str(f)) == f

    def test_base_dir_relative(self, tmp_path):
        f = tmp_path / "local.fcidump"
        f.write_text("placeholder")
        assert resolve_input("local.fcidump", base_dir=tmp_path) == f

    def test_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            resolve_input("no_such_molecule")


class TestCostsFor:
    def test_pauli_matches_direct_row_costing(self):
        mol = load_fixture("h2")
        maj, lcu = decompose_method(mol, "pauli")
        report = costs_for(lcu, maj, eps_coeff=0.25, eps_rot=1e-4)
        s = sparse_term_count(maj, lcu.metadata["threshold"])
        direct = sparse_costs(s, maj.n_orbitals, 0.25, eps_r=1e-4,
                              lam=lcu.one_norm)
        assert report.t_sel == direct.t_sel
        assert report.t_prep == direct.t_prep
        assert report.rz_count == direct.rz_count
        assert report.hardness == pytest.approx(direct.hardness)
        assert report.params["budget"] == pytest.approx(1e-3)

    def test_defaults_fill_both_precisions(self):
        mol = load_fixture("h2")
        maj, lcu = decompose_method(mol, "pauli")
        report = costs_for(lcu, maj)
        assert 0 < report.params["eps_coeff"] <= 0.5
        assert 0 < report.params["eps_rot"] <= 0.015
        assert report.hardness > 0

    @pytest.mark.parametrize("method,options", [
        ("ac", {}), ("oo-ac", {"oo_budget": 30, "oo_restarts": 1})])
    def test_ac_methods_priced_by_group_model(self, method, options):
        maj, lcu = decompose_method(load_fixture("h2"), method, **options)
        report = costs_for(lcu, maj)
        assert report.params["G"] == lcu.metadata["n_groups"]
        assert report.params["total_group_members"] == sum(
            lcu.metadata["group_sizes"])
        assert report.hardness == pytest.approx(
            lcu.one_norm * (report.t_gates + report.rz_tgate_equiv), rel=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_result_label_is_the_key_that_prices_it(self, method):
        _, lcu = decompose_method(load_fixture("h2"), method, oo_budget=50,
                                  oo_restarts=1)
        assert lcu.method == method.removeprefix("oo-")
        priced = METHOD_TABLE[lcu.method].cost is not None
        assert priced == (method in COSTED_METHODS)

    def test_qubit_level_ac_priced_as_ac(self):
        maj = build_majorana(load_fixture("h2"))
        lcu = sorted_insertion_ac(pauli_sum_of_hamiltonian(maj))
        assert lcu.method == "ac" and lcu.metadata["level"] == "qubit"
        assert costs_for(lcu, maj).params["G"] == lcu.metadata["n_groups"]

    def test_uncosted_method_rejected(self):
        mol = load_fixture("h2")
        maj, lcu = decompose_method(mol, "sf")
        with pytest.raises(ValueError):
            costs_for(lcu, maj)

    def test_json_schema(self):
        mol = load_fixture("h2")
        maj, lcu = decompose_method(mol, "df")
        report = costs_for(lcu, maj)
        payload = cost_report_json(report, "df", maj.n_orbitals, lcu.one_norm)
        assert set(payload) == {"method", "N", "lambda", "t_sel", "t_prep",
                                "rz", "qubits", "hardness"}
        assert set(payload["qubits"]) == {"clean", "reusable"}
        assert isinstance(payload["t_sel"], int)
        assert payload["hardness"] == pytest.approx(
            lcu.one_norm * (report.t_gates + report.rz_tgate_equiv))


class TestVerificationPayload:
    def test_h2_pauli_verifies(self):
        mol = load_fixture("h2")
        maj, lcu = decompose_method(mol, "pauli")
        payload = verification_payload(lcu, maj)
        assert payload["bound_ok"] is True
        assert payload["deviation"] < 1e-4
        assert payload["half_range"] == pytest.approx(1.0291289548, abs=1e-8)
        assert payload["verified"] is True

    def test_each_check_decides_the_verdict(self):
        maj, lcu = decompose_method(load_fixture("h2"), "pauli")
        deflated = dataclasses.replace(lcu, one_norm=0.1, constant=0.0)
        payload = verification_payload(deflated, maj)
        assert payload["bound_ok"] is False and payload["verified"] is False
        shifted = dataclasses.replace(lcu, constant=lcu.constant + 1e-3)
        payload = verification_payload(shifted, maj)
        assert payload["bound_ok"] is True
        assert payload["deviation"] > payload["tolerance"]
        assert payload["verified"] is False


class TestDecomposeMetadata:
    def test_orbital_optimizer_budget_flags(self):
        _, lcu = decompose_method(load_fixture("h2"), "oo-pauli", oo_budget=20)
        assert lcu.metadata["converged"] is False
        assert 0 < lcu.metadata["evaluations"] <= 20

    def test_csa_convergence_and_residual(self):
        maj, lcu = decompose_method(load_fixture("h2"), "csa")
        assert isinstance(lcu.metadata["converged"], bool)
        assert lcu.metadata["evaluations"] > 0
        assert lcu.metadata["residual"] ** 2 == pytest.approx(
            lcu.metadata["residual_sq"], rel=1e-9, abs=1e-30)


@pytest.mark.parametrize("name", ("h2", "lih", "beh2", "h2o"))
@pytest.mark.parametrize("method", METHODS)
def test_lambda_is_the_fragment_coefficient_sum(method, name):
    # lambda against the fragment views' coefficients; pauli's tensor
    # 1-norm also counts the terms it drops and the products that collapse
    # to the identity
    _, lcu = decompose_method(load_fixture(name), method, oo_budget=20,
                              oo_restarts=1)
    total = sum(f.coefficient for f in lcu.fragments)
    if method.endswith("pauli"):
        total += lcu.metadata["dropped_weight"] + lcu.metadata["identity_weight"]
    assert lcu.one_norm == pytest.approx(total, abs=1e-10)


class TestBlocksOnRunPath:
    @pytest.mark.parametrize("method", ("pauli", "ac", "df", "l4-mps"))
    def test_run_builds_no_fragment_object(self, method, monkeypatch):
        # decomposition, fragment count, costing and reconstruction read the
        # blocks; a Fragment is built only as a view on request
        built = []
        init = Fragment.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Fragment, "__init__", counting)
        maj, lcu = decompose_method(load_fixture("chain_h10"), method)
        assert len(lcu.fragments) == CHAIN_H10_FRAGMENTS[method]
        costs_for(lcu, maj)
        assert verify_reconstruction(lcu, maj) <= reconstruction_tolerance(lcu)
        assert not built
        lcu.fragments[-1]
        assert len(built) == 1


class TestRunPipeline:
    CONFIG = {"files": ["h2"], "methods": ["pauli", "df"]}

    def test_lih_rows_verified_with_one_spectral_range(self, monkeypatch):
        import fermilcu.report as report

        calls = []

        def counted(maj):
            calls.append(maj.n_orbitals)
            return spectral_range(maj)

        monkeypatch.setattr(report, "spectral_range", counted)
        result = run_pipeline({"files": ["lih"],
                               "methods": ["pauli", "ac", "sf", "df"]})
        assert calls == [6]
        assert result.exit_code == 0
        for row in result.rows:
            assert row["verified"] is True, row
            assert row["deviation"] >= 0.0
            assert row["half_range"] == pytest.approx(4.8830757803, abs=1e-8)
        assert all("t_sel" in row for row in result.rows if row["method"] != "sf")

    def test_rows_match_direct_calls(self):
        result = run_pipeline(dict(self.CONFIG))
        assert result.exit_code == 0
        assert [row["method"] for row in result.rows] == ["pauli", "df"]
        mol = load_fixture("h2")
        for row in result.rows:
            maj, lcu = decompose_method(mol, row["method"])
            assert row["lambda"] == pytest.approx(lcu.one_norm, rel=1e-12)
            assert row["verified"] is True
            assert row["bound_ok"] is True
            assert row["t_sel"] > 0 and row["t_prep"] > 0
            assert row["hardness"] > 0

    def test_json_is_deterministic(self):
        first = run_pipeline(dict(self.CONFIG))
        second = run_pipeline(dict(self.CONFIG))
        assert first.json_text == second.json_text
        document = json.loads(first.json_text)
        assert set(document) == {"config", "rows"}
        assert len(document["rows"]) == 2

    def test_csv_cells_round_trip(self):
        result = run_pipeline(dict(self.CONFIG))
        lines = result.csv_text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        for line, row in zip(lines[1:], result.rows):
            lam = line.split(",")[CSV_COLUMNS.index("lambda")]
            assert float(lam) == pytest.approx(row["lambda"], rel=1e-11)

    def test_uncosted_method_keeps_verification_columns(self):
        result = run_pipeline({"files": ["h2"], "methods": ["sf"]})
        row = result.rows[0]
        assert "t_sel" not in row
        assert row["verified"] is True
        assert result.exit_code == 0

    def test_optimizer_rows_report_evaluations_and_convergence(self):
        result = run_pipeline({"files": ["h2"], "methods": ["oo-pauli", "csa"],
                               "oo_budget": 20})
        document = json.loads(result.json_text)
        mol = load_fixture("h2")
        for row, method, options in zip(document["rows"], ["oo-pauli", "csa"],
                                        [{"oo_budget": 20}, {}]):
            _, lcu = decompose_method(mol, method, **options)
            assert row["method"] == method
            assert row["evaluations"] == lcu.metadata["evaluations"] > 0
            assert row["converged"] is lcu.metadata["converged"]
        assert "evaluations" not in result.csv_text.splitlines()[0]

    def test_chain_h10_rows_verified_without_spectral_range(self,
                                                            monkeypatch):
        import fermilcu.report as report

        def refuse(maj):
            raise AssertionError("spectral range taken above its limit")

        monkeypatch.setattr(report, "spectral_range", refuse)
        methods = ["pauli", "ac", "sf", "df", "l4-svd", "l4-mps"]
        result = run_pipeline({"files": ["chain_h10"], "methods": methods})
        assert result.exit_code == 0
        assert [row["method"] for row in result.rows] == methods
        for row in result.rows:
            assert row["verified"] is True, row
            assert row["deviation"] <= row["tolerance"]
            assert row["bound_ok"] is None and row["half_range"] is None
        # the CSV shows the verdict of a row whose bound was not checked
        for line in result.csv_text.splitlines()[1:]:
            cells = line.split(",")
            assert cells[CSV_COLUMNS.index("bound_ok")] == ""
            assert cells[CSV_COLUMNS.index("verified")] == "true"

    def test_output_stem_writes_both_forms(self, tmp_path):
        # the suffixes go after the whole stem, dots and all
        (tmp_path / "runs").mkdir()
        for stem in ("report", "runs/h2o.v2"):
            config = dict(self.CONFIG, methods=["pauli"], output=stem)
            result = run_pipeline(config, base_dir=tmp_path)
            json_path = tmp_path / f"{stem}.json"
            csv_path = tmp_path / f"{stem}.csv"
            assert result.output_paths == (json_path, csv_path)
            assert json_path.read_text() == result.json_text
            assert csv_path.read_text() == result.csv_text

    def test_empty_methods_is_a_clean_noop(self):
        result = run_pipeline({"files": ["h2"], "methods": []})
        assert result.exit_code == 0
        assert result.rows == []

    def test_missing_file_fails_before_any_output(self, tmp_path):
        config = {"files": ["h2", "no_such_molecule"],
                  "methods": ["pauli"], "output": "report"}
        with pytest.raises(FileNotFoundError):
            run_pipeline(config, base_dir=tmp_path)
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline({"files": ["h2"], "methods": ["qrom"]})

    def test_unknown_override_key_rejected(self):
        config = parse_config("files = h2\nmethods = pauli\nbudget.pauli = 2\n")
        with pytest.raises(ValueError):
            run_pipeline(config)

    @pytest.mark.parametrize("line, message", [
        ("methds = df", "unknown config key 'methds'"),
        ("toll = 1e-3", "unknown config key 'toll'"),
        ("oo_budjet = 5", "unknown config key 'oo_budjet'"),
        ("molecules = lih", "unknown config key 'molecules'"),
        ("budget.df = 2", "unknown override key 'budget'"),
        ("tol.dff = 1e-3", "unknown method 'dff'"),
    ], ids=["methds", "toll", "oo_budjet", "molecules", "budget.df", "tol.dff"])
    def test_misspelt_key_rejected_before_any_input(self, line, message):
        # the missing file would raise FileNotFoundError once inputs resolve
        text = f"files = no_such_molecule\nmethods = pauli\n{line}\n"
        with pytest.raises(ValueError, match=message):
            run_pipeline(parse_config(text))

    @pytest.mark.parametrize("line, message", [
        ("overrides = 3", "'overrides' is not set directly"),
        ("tol = abc", "'tol' needs a number"),
        ("oo_budget.oo-ac = many", "'oo_budget' needs an integer"),
        ("fragments.csa = 1.5", "'fragments' needs an integer"),
    ], ids=["overrides", "tol", "oo_budget.oo-ac", "fragments.csa"])
    def test_malformed_value_rejected_before_any_input(self, line, message):
        text = f"files = no_such_molecule\nmethods = df\n{line}\n"
        with pytest.raises(ValueError, match=message):
            run_pipeline(parse_config(text))

    @pytest.mark.parametrize("line, message", [
        ("tol = 0", "'tol' must be a finite number > 0, not 0"),
        ("tol = nan", "'tol' must be a finite number > 0, not nan"),
        ("sparse_threshold.pauli = -0.1",
         "'sparse_threshold' must be a finite number >= 0, not -0.1"),
        ("max_rank.l4-cp4 = 0", "'max_rank' must be at least 1, not 0"),
        ("oo_restarts = -1", "'oo_restarts' must be at least 1, not -1"),
    ], ids=["tol=0", "tol=nan", "sparse_threshold.pauli", "max_rank.l4-cp4",
            "oo_restarts"])
    def test_out_of_range_option_rejected_before_any_input(self, line,
                                                           message):
        text = f"files = no_such_molecule\nmethods = pauli\n{line}\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_pipeline(parse_config(text))

    @pytest.mark.parametrize("line", ["seed = -2", "seed.csa = -2"])
    def test_negative_seed_rejected_before_any_row(self, line, monkeypatch):
        calls = []
        monkeypatch.setattr("fermilcu.report.decompose_method",
                            lambda *args, **kwargs: calls.append(args))
        text = f"files = h2\nmethods = pauli, csa\n{line}\n"
        with pytest.raises(ValueError, match=re.escape(
                "'seed' must be an integer >= 0, not -2")):
            run_pipeline(parse_config(text))
        assert calls == []

    def test_per_method_override_applies(self):
        # the truncation threshold drives the kept-term count, so the
        # aggressive override must shrink PREPARE and grow the deviation
        text = ("files = h2\nmethods = pauli\n"
                "sparse_threshold = 1e-5\nsparse_threshold.pauli = 0.1\n")
        loose = run_pipeline(parse_config(text))
        tight = run_pipeline({"files": ["h2"], "methods": ["pauli"]})
        assert loose.rows[0]["t_prep"] < tight.rows[0]["t_prep"]
        assert loose.rows[0]["deviation"] > tight.rows[0]["deviation"]


class TestChainScaling:
    SHORT = ("chain_h02", "chain_h04")

    def test_series_grows_with_chain_length(self):
        rows = chain_series("pauli", chains=self.SHORT)
        assert [row[0] for row in rows] == [2, 4]
        assert rows[1][1] > rows[0][1]
        assert rows[1][2] > rows[0][2]

    def test_fit_quantities_and_errors(self):
        fit, rows = fit_chain_scaling("pauli", "lambda", chains=self.SHORT)
        assert fit.n_points == 2
        assert fit.beta > 0
        with pytest.raises(ValueError):
            fit_chain_scaling("pauli", "runtime", chains=self.SHORT)

    @pytest.mark.parametrize("method", ("oo-pauli", "oo-ac"))
    def test_oo_fit_defaults_to_chain_options(self, method, monkeypatch):
        # the method table's chain budget and restarts apply to a fit called
        # from Python, not only through the CLI; explicit options still win
        from fermilcu import report

        base = method.removeprefix("oo-")
        monkeypatch.setitem(METHOD_TABLE, base, dataclasses.replace(
            METHOD_TABLE[base], chain_oo_budget=6, chain_oo_restarts=1))
        calls = []
        optimize = report.orbital_optimize

        def recording(mol, **options):
            calls.append((options["budget"], options["restarts"]))
            return optimize(mol, **options)

        monkeypatch.setattr(report, "orbital_optimize", recording)
        fit_chain_scaling(method, "lambda", chains=self.SHORT)
        assert calls == [(6, 1), (6, 1)]
        calls.clear()
        fit_chain_scaling(method, "lambda", chains=self.SHORT, oo_budget=4,
                          oo_restarts=2)
        assert calls == [(4, 2), (4, 2)]

    def test_series_csv_header(self):
        rows = chain_series("pauli", chains=self.SHORT)
        lines = series_to_csv(rows).splitlines()
        assert lines[0] == "N,lambda,hardness,qubits"
        assert len(lines) == 3
        assert int(lines[1].split(",")[0]) == 2
