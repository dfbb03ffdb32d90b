import json

import numpy as np
import pytest
from click.testing import CliRunner

from qdensity.cli import main

from conftest import FIVE_EDGE_LINES

THREE_EDGE_CSV = "x,y\norange,fruit\ngreen,fruit\npurple,vegetable\n"
FOUR_EDGE_CSV = "x,y\norange,fruit\ngreen,fruit\ngreen,vegetable\npurple,vegetable\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestReduce:
    def test_three_phrase_csv(self, runner, three_phrase_csv):
        result = invoke(runner, ["reduce", str(three_phrase_csv)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert np.allclose(payload["eigenvalues"], [2 / 3, 1 / 3], atol=1e-10)
        assert np.allclose(payload["rho_x"], np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3)
        assert np.allclose(payload["marginal_y"], [2 / 3, 1 / 3])

    def test_point_mass_entropy_zero(self, runner, tmp_path):
        path = tmp_path / "point.csv"
        path.write_text("x,y,p\na,u,1.0\n")
        payload = json.loads(invoke(runner, ["reduce", str(path)]).output)
        assert payload["entropies"]["entanglement"] == 0.0

    def test_five_edge_dataset(self, runner, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("\n".join(FIVE_EDGE_LINES) + "\n")
        payload = json.loads(invoke(runner, ["reduce", str(path), "--cut", "1"]).output)
        assert np.allclose(payload["rho_x"], np.array([[1, 1, 1], [1, 2, 2], [1, 2, 2]]) / 5)
        assert np.allclose(payload["rho_y"], np.array([[3, 2], [2, 2]]) / 5)

    def test_control_characters_escaped(self, runner, tmp_path):
        path = tmp_path / "tab.txt"
        path.write_text("a\tb c d\nx y d\n")
        payload = json.loads(invoke(runner, ["reduce", str(path), "--cut", "1"]).output)
        assert payload["x_alphabet"] == ["a\tb", "x"]
        assert payload["y_alphabet"] == ["c d", "y d"]

    def test_unnormalized_csv_rejected(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,p\na,u,0.5\nb,v,0.4\n")
        result = runner.invoke(main, ["reduce", str(path)])
        assert result.exit_code != 0
        assert "0.9" in result.output

    def test_parse_error_reports_line(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,p\na,u,0.5\nb,oops\n")
        result = runner.invoke(main, ["reduce", str(path)])
        assert result.exit_code != 0
        assert "line 3" in result.output

    def test_order_file(self, runner, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y,p\nb,u,0.5\na,u,0.5\n")
        order = tmp_path / "order.txt"
        order.write_text("a b\nu\n")
        payload = json.loads(invoke(runner, ["reduce", str(csv), "--order", str(order)]).output)
        assert payload["x_alphabet"] == ["a", "b"]

    def test_order_rejected_on_dataset(self, runner, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("a u\nb v\n")
        order = tmp_path / "order.txt"
        order.write_text("b a\nu v\n")
        result = runner.invoke(main, ["reduce", str(data), "--cut", "1", "--order", str(order)])
        assert result.exit_code == 1
        assert "--order" in result.output

    def test_cut_rejected_on_csv(self, runner, three_phrase_csv):
        result = runner.invoke(main, ["reduce", str(three_phrase_csv), "--cut", "5"])
        assert result.exit_code == 1
        assert "--cut" in result.output

    def test_byte_identical_reruns(self, runner, three_phrase_csv, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        invoke(runner, ["reduce", str(three_phrase_csv), "-o", str(out1)])
        invoke(runner, ["reduce", str(three_phrase_csv), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestConcepts:
    def test_three_edge(self, runner, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text(THREE_EDGE_CSV)
        payload = json.loads(invoke(runner, ["concepts", str(path)]).output)
        assert payload["count"] == 2
        assert {"extent": ["green", "orange"], "intent": ["fruit"]} in payload["concepts"]

    def test_four_edge_compare_eigen(self, runner, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text(FOUR_EDGE_CSV)
        payload = json.loads(invoke(runner, ["concepts", str(path), "--compare-eigen"]).output)
        assert payload["count"] == 3
        comparison = payload["eigen_comparison"]
        assert comparison["mismatch"] is True
        assert np.allclose(comparison["eigenvalues"], [0.75, 0.25], atol=1e-10)

    def test_empty_file_rejected(self, runner, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("x,y\n")
        result = runner.invoke(main, ["concepts", str(path)])
        assert result.exit_code != 0


class TestEntail:
    def test_chain_verdict(self, runner, five_phrase_corpus):
        result = invoke(
            runner,
            [
                "entail",
                str(five_phrase_corpus),
                "--pattern",
                "3=orange",
                "--against",
                "2=ripe,3=orange",
                "--unnormalized",
            ],
        )
        payload = json.loads(result.output)
        assert payload["entails"] is True
        assert payload["scale"] == 1.0
        assert abs(payload["difference_min_eigenvalue"]) <= 1e-12
        assert np.allclose(payload["pattern_matrix"], np.array([[2, 1], [1, 2]]) / 5)
        assert np.allclose(payload["against_matrix"], np.array([[1, 1], [1, 2]]) / 5)

    def test_identical_patterns(self, runner, five_phrase_corpus):
        payload = json.loads(
            invoke(
                runner,
                [
                    "entail",
                    str(five_phrase_corpus),
                    "--pattern",
                    "3=orange",
                    "--against",
                    "3=orange",
                ],
            ).output
        )
        assert payload["entails"] is True
        assert payload["scale"] == 1.0
        assert np.allclose(
            np.array(payload["pattern_matrix"]) - np.array(payload["against_matrix"]), 0
        )

    def test_reversed_chain_fails(self, runner, five_phrase_corpus):
        payload = json.loads(
            invoke(
                runner,
                [
                    "entail",
                    str(five_phrase_corpus),
                    "--pattern",
                    "2=ripe,3=orange",
                    "--against",
                    "3=orange",
                    "--unnormalized",
                ],
            ).output
        )
        assert payload["entails"] is False
        assert payload["difference_min_eigenvalue"] < 0

    def test_normalized_refinement_scale(self, runner, five_phrase_corpus):
        payload = json.loads(
            invoke(
                runner,
                [
                    "entail",
                    str(five_phrase_corpus),
                    "--pattern",
                    "3=orange",
                    "--against",
                    "1=small,2=ripe,3=orange",
                ],
            ).output
        )
        assert payload["scale"] == pytest.approx(0.5)
        assert payload["entails"] is True

    def test_unobserved_pattern(self, runner, five_phrase_corpus):
        result = runner.invoke(
            main,
            [
                "entail",
                str(five_phrase_corpus),
                "--pattern",
                "3=banana",
                "--against",
                "3=orange",
            ],
        )
        assert result.exit_code != 0
        assert "unobserved" in result.output


class TestParity:
    def test_train_eval_ideal(self, runner, tmp_path):
        model = tmp_path / "model.json"
        r = invoke(
            runner,
            ["parity", "train", "--n", "5", "--fraction", "1.0", "--seed", "1", "--model", str(model)],
        )
        assert r.exit_code == 0
        payload = json.loads(invoke(runner, ["parity", "eval", "--model", str(model)]).output)
        assert payload["bhattacharyya"] < 1e-8

    def test_sample_point_mass(self, runner, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("00110\n")
        model = tmp_path / "model.json"
        invoke(runner, ["parity", "train", "--data", str(data), "--model", str(model)])
        result = invoke(
            runner, ["parity", "sample", "--model", str(model), "--count", "3", "--seed", "2"]
        )
        assert result.output.split() == ["00110"] * 3

    def test_experiment_csv(self, runner, tmp_path):
        out = tmp_path / "rows.csv"
        invoke(
            runner,
            [
                "parity",
                "experiment",
                "--n",
                "8",
                "--fractions",
                "0.5,1.0",
                "--replicas",
                "2",
                "--seed",
                "3",
                "-o",
                str(out),
            ],
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "fraction,replica,seed,n_samples,bhattacharyya"
        assert len(lines) == 5
        full_rows = [ln for ln in lines[1:] if ln.startswith("1,") or ln.startswith("1.0,")]
        assert len(full_rows) == 2

    def test_experiment_deterministic_bytes(self, runner, tmp_path):
        args = ["parity", "experiment", "--n", "7", "--fractions", "0.5", "--replicas", "2", "--seed", "4"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        invoke(runner, args + ["-o", str(a)])
        invoke(runner, args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_train_flag_validation(self, runner, tmp_path):
        result = runner.invoke(main, ["parity", "train", "--model", str(tmp_path / "m.json")])
        assert result.exit_code != 0

    def test_train_rejects_n_beyond_int64(self, runner, tmp_path):
        model = str(tmp_path / "m.json")
        args = ["parity", "train", "--n", "64", "--fraction", "1e-17", "--model", model]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "int64" in result.output

    def test_eval_rejects_bad_model(self, runner, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text('{"n": 3, "physical_dim": 2, "bond_dims": [1], "tensors": []}')
        result = runner.invoke(main, ["parity", "eval", "--model", str(bad)])
        assert result.exit_code != 0

    def test_eval_rejects_non_bit_model(self, runner, tmp_path):
        path = tmp_path / "ab.txt"
        path.write_text("a b a b\nb b a a\n")
        model = tmp_path / "m.json"
        assert invoke(runner, ["parity", "train", "--data", str(path), "--model", str(model)]).exit_code == 0
        result = runner.invoke(main, ["parity", "eval", "--model", str(model)])
        assert result.exit_code != 0
        assert "alphabet" in result.output
