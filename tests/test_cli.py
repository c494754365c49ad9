"""Command-line interface: formats, determinism, and exit codes."""

import json

import numpy as np
import pytest

from fourierjacobi import (
    EvenMeasure,
    GridFunction,
    JacobiParams,
    forward_transform_measure,
    gaussian_bump,
)
from fourierjacobi.cli import build_parser, main
from fourierjacobi.errors import PrecisionError
from fourierjacobi.suites import _SUITE_FLAGS, SUITES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_phi_rank_one_value(self, capsys):
        # sin(2)/(2 sinh 1) = 0.386868832...
        code, out, err = run_cli(
            capsys, ["eval", "phi", "--lambda", "2", "--t", "1"]
        )
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        t, re, im = (float(x) for x in lines[1].split(","))
        assert (t, im) == (1.0, 0.0)
        assert re == pytest.approx(np.sin(2.0) / (2.0 * np.sinh(1.0)), abs=1e-9)

    def test_c_function_row(self, capsys):
        # c(lambda) = 1/(i lambda) at rank one: c(2) = -0.5i
        code, out, _ = run_cli(capsys, ["eval", "c", "--lambda", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im"
        re, im = (float(x) for x in lines[1].split(","))
        assert re == pytest.approx(0.0, abs=1e-12)
        assert im == pytest.approx(-0.5, abs=1e-12)

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "delta-weight", "--t", "0.5,1", "--out", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["t"] for r in rows] == [0.5, 1.0]
        assert rows[1]["re"] == pytest.approx((2 * np.sinh(1.0)) ** 2)

    def test_complex_lambda_argument(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "b", "--lambda", "0.5,1.5", "--t", "1,2"]
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_domain_error_exit_code(self, capsys):
        # b requires Im lambda > 0
        code, out, err = run_cli(capsys, ["eval", "b", "--lambda", "2"])
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["code"] == 2
        assert diag["context"]["command"] == "eval"

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, ["eval", "phi", "--alpha", "-0.5", "--beta", "-0.5"]
        )
        assert code == 2
        assert "message" in json.loads(err)

    @pytest.mark.parametrize("kind", ["phi", "Phi", "G", "delta-weight", "b"])
    def test_t_list_matches_single_t_calls(self, capsys, kind):
        # one call on the whole --t list: every row as from its own call
        ts = ["0.05", "0.3", "0.69", "0.71", "1.5", "4"]
        base = ["eval", kind, "--lambda", "0.7,1.6", "--out", "json"]
        code, out, _ = run_cli(capsys, base + ["--t", ",".join(ts)])
        assert code == 0
        single = []
        for t in ts:
            _, one, _ = run_cli(capsys, base + ["--t", t])
            single += json.loads(one)
        assert json.loads(out) == single

    def test_deterministic_output(self, capsys):
        argv = ["eval", "Phi", "--lambda", "1.3,0.4", "--t", "0.3,1,4"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestVerify:
    def test_wronskian_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "wronskian"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert report["max_err"] < 1e-5

    def test_precision_error_exit_code(self, capsys, monkeypatch):
        import fourierjacobi.cli as cli_mod

        def boom(name, config):
            raise PrecisionError("tolerance unattainable", achieved=1e-3)

        monkeypatch.setattr(cli_mod, "run_suite", boom)
        code, _, err = run_cli(capsys, ["verify", "lemma31"])
        assert code == 3
        assert json.loads(err)["code"] == 3


class TestOptions:
    """Each subcommand accepts only the flags it reads."""

    def test_every_suite_is_a_verify_choice(self):
        parser = build_parser()
        for name in SUITES:
            assert parser.parse_args(["verify", name]).suite == name

    @pytest.mark.parametrize("argv", [
        ["eval", "phi", "--quad", "gauss"],
        ["verify", "lemma31", "--quad", "gauss"],
        ["furstenberg", "--measure", "mu.json", "--quad", "gauss"],
        ["verify", "lemma31", "--tol", "1e-12"],
        ["furstenberg", "--measure", "mu.json", "--tol", "1e-12"],
        ["eval", "phi", "--seed", "7"],
        ["verify", "lemma31", "--lambda", "2"],
        ["furstenberg", "--measure", "mu.json", "--out", "json"],
    ])
    def test_unread_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "derivative-positivity", "--alpha", "3", "--beta", "1", "--tmax", "2",
         "--n", "17", "--seed", "9"],
        ["verify", "lemma31", "--seed", "9"],
        ["verify", "wronskian", "--alpha", "1", "--beta", "0"],
        ["verify", "product-formula", "--tmax", "4"],
        ["verify", "strict-bound", "--n", "17"],
        ["verify", "riemann-lebesgue", "--alpha", "1"],
    ])
    def test_suite_refuses_flag_it_does_not_read(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        diag = json.loads(err)
        assert diag["code"] == 2 and "does not read" in diag["message"]

    def test_every_suite_declares_its_flags(self):
        assert set(_SUITE_FLAGS) == set(SUITES)

    def test_eval_reads_tol(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "phi", "--lambda", "2", "--t", "1", "--tol", "1e-12"]
        )
        assert code == 0
        assert out.strip().splitlines()[0] == "t,re,im"


class TestFurstenberg:
    def test_iteration_report(self, capsys, tmp_path):
        mu = EvenMeasure(atom0=0.5, atoms=[(1.0, 0.5)])
        path = tmp_path / "mu.json"
        mu.to_json(path)
        code, out, _ = run_cli(
            capsys,
            ["furstenberg", "--measure", str(path), "--steps", "3",
             "--probes", "1,2"],
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["steps"]) == 4
        assert len(report["probes"]) == 2
        flats = [s["flatness"] for s in report["steps"]]
        assert flats[-1] < flats[0]

    def test_density_measure_with_csv_sidecar(self, capsys, tmp_path):
        # atom0 1/2 plus a Lebesgue density 1/2 on [-1/2, 1/2]: a probability measure
        mu = EvenMeasure(atom0=0.5, density=GridFunction(0.5, np.full(17, 0.5)))
        path = tmp_path / "mu.json"
        mu.to_json(path, tmp_path / "density.csv")
        code, out, _ = run_cli(
            capsys,
            ["furstenberg", "--measure", str(path), "--tmax", "4", "--n", "129",
             "--steps", "2", "--probes", "1.5"],
        )
        assert code == 0
        report = json.loads(out)
        assert [s["valid_tmax"] for s in report["steps"]] == [4.0, 3.5, 3.0]
        flats = [s["flatness"] for s in report["steps"]]
        assert flats[-1] < flats[0]
        want = forward_transform_measure(JacobiParams(0.5, -0.5), EvenMeasure.from_json(path), 1.5)
        assert complex(*report["probes"][0]["muhat"]) == want

    def test_initial_function_from_csv(self, capsys, tmp_path):
        mu = EvenMeasure(atom0=1.0)
        mu_path = tmp_path / "mu.json"
        mu.to_json(mu_path)
        f = gaussian_bump(6.0, 257, width=0.8)
        f_path = tmp_path / "f.csv"
        f.to_csv(f_path)
        code, out, _ = run_cli(
            capsys,
            ["furstenberg", "--measure", str(mu_path), "--f", str(f_path),
             "--steps", "2"],
        )
        assert code == 0
        report = json.loads(out)
        # convolving with the unit atom at 0 changes nothing
        flats = [s["flatness"] for s in report["steps"]]
        assert flats[0] == pytest.approx(flats[-1], rel=1e-9)

    def test_missing_measure_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["furstenberg", "--measure", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert json.loads(err)["code"] == 2
