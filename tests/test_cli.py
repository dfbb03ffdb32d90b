import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qdensity
from qdensity import linalg, mps
from qdensity.cli import _load_distribution_csv, main

from conftest import FIVE_EDGE_LINES, REFUSED_SYMBOLS

THREE_EDGE_CSV = "x,y\norange,fruit\ngreen,fruit\npurple,vegetable\n"
FOUR_EDGE_CSV = "x,y\norange,fruit\ngreen,fruit\ngreen,vegetable\npurple,vegetable\n"


def symbol_model(symbol: str) -> str:
    """A unit-norm n = 2 model file over the alphabet (symbol, "c")."""
    tensors = [[[[1, 0], [0, 1]]], [[[0.6], [0]], [[0], [0.8]]]]
    payload = {"n": 2, "physical_dim": 2, "alphabet": [symbol, "c"], "bond_dims": [1, 2, 1], "tensors": tensors}
    return json.dumps(payload)


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
        # each entropy is printed 0, not the -0 that json.loads reads as 0
        path = tmp_path / "point.csv"
        path.write_text("x,y,p\na,u,1.0\n")
        output = invoke(runner, ["reduce", str(path)]).output
        assert json.loads(output)["entropies"]["entanglement"] == 0.0
        assert [ln.strip() for ln in output.splitlines() if "von_neumann_" in ln or "entanglement" in ln] == [
            '"von_neumann_x": 0,', '"von_neumann_y": 0,', '"entanglement": 0'
        ]

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

    def test_order_file_places_every_probability(self, runner, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y,p\nb,u,0.6\na,v,0.3\nb,v,0.1\n")
        order = tmp_path / "order.txt"
        order.write_text("a c b\nv u\n")
        payload = json.loads(invoke(runner, ["reduce", str(csv), "--order", str(order)]).output)
        assert payload["x_alphabet"] == ["a", "c", "b"] and payload["y_alphabet"] == ["v", "u"]
        assert np.allclose(payload["marginal_x"], [0.3, 0.0, 0.7])
        assert np.allclose(payload["marginal_y"], [0.4, 0.6])
        assert np.allclose(np.diag(payload["rho_x"]), [0.3, 0.0, 0.7])

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

    def test_one_svd(self, runner, three_phrase_csv, monkeypatch):
        calls = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda m: calls.append(m) or svd(m))
        payload = json.loads(invoke(runner, ["reduce", str(three_phrase_csv)]).output)
        assert len(calls) == 1
        assert np.isclose(payload["entropies"]["entanglement"], np.log(3) - 2 / 3 * np.log(2))

    def test_misspelled_csv_header_reported(self, runner, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("x,y,P\na,u,1\n")
        result = runner.invoke(main, ["reduce", str(path)])
        assert result.exit_code == 1
        assert f"{path}: line 1: expected header 'x,y,p'" in result.output

    def test_dataset_without_comma_or_cut_needs_cut(self, runner, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b\nc d\n")
        result = runner.invoke(main, ["reduce", str(path)])
        assert result.exit_code == 1
        assert "dataset input needs --cut" in result.output

    def test_comma_is_a_token_with_cut(self, runner, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("x,y P\na,u 1\n")
        payload = json.loads(invoke(runner, ["reduce", str(path), "--cut", "1"]).output)
        assert payload["x_alphabet"] == ["x,y", "a,u"]

    def test_spectra_are_squared_as_arrays(self, runner, tmp_path):
        rng = np.random.default_rng(29)
        rows = rng.integers(70, size=(3000, 2))
        path = tmp_path / "corpus.txt"
        path.write_text("".join(f"p{a} s{b}\n" for a, b in rows))
        payload = json.loads(invoke(runner, ["reduce", str(path), "--cut", "1"]).output)
        pi = qdensity.empirical_distribution(qdensity.load_dataset(path), 1)
        sd = qdensity.schmidt(qdensity.build_state(pi))
        assert payload["eigenvalues"] == (sd.coefficients * sd.coefficients).tolist()
        for side, vectors in (("x", sd.x_vectors), ("y", sd.y_vectors)):
            assert payload[f"eigenvector_distributions_{side}"] == (vectors.T * vectors.T).tolist()

    def test_byte_identical_reruns(self, runner, three_phrase_csv, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        invoke(runner, ["reduce", str(three_phrase_csv), "-o", str(out1)])
        invoke(runner, ["reduce", str(three_phrase_csv), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestStreamedOutput:
    """A JSON result is written as it is formatted: stdout and the --out file get the same bytes."""

    @pytest.fixture
    def paths(self, runner, tmp_path, three_phrase_csv, five_phrase_corpus):
        relation = tmp_path / "relation.csv"
        relation.write_text(FOUR_EDGE_CSV)
        model = tmp_path / "model.json"
        invoke(runner, ["parity", "train", "--n", "6", "--fraction", "0.5", "--seed", "3", "--model", str(model)])
        return {"dist": three_phrase_csv, "corpus": five_phrase_corpus, "relation": relation, "model": model,
                "out": tmp_path / "out.json"}

    @pytest.mark.parametrize(
        "args",
        [
            ["reduce", "{corpus}", "--cut", "2"],
            ["reduce", "{dist}"],
            ["concepts", "{relation}", "--compare-eigen"],
            ["entail", "{corpus}", "--pattern", "3=orange", "--against", "2=ripe,3=orange"],
            ["parity", "eval", "--model", "{model}"],
        ],
        ids=["reduce-dataset", "reduce-csv", "concepts", "entail", "eval"],
    )
    def test_stdout_bytes_equal_the_out_file(self, runner, paths, args):
        args = [a.format(**paths) for a in args]
        shown = invoke(runner, args)
        assert shown.exit_code == 0
        assert invoke(runner, args + ["--out", str(paths["out"])]).stdout_bytes == b""
        assert shown.stdout_bytes == paths["out"].read_bytes()
        assert shown.stdout_bytes.endswith(b"\n}\n")  # one final newline

    def test_process_stdout_equals_the_out_file(self, tmp_path):
        # the process's own stdout stream, not the test runner's capture
        rng = np.random.default_rng(30)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(f"p{a} s{b}\n" for a, b in rng.integers(60, size=(2000, 2))))
        out = tmp_path / "out.json"
        env = dict(os.environ, PYTHONPATH=str(Path(qdensity.__file__).parents[1]))
        run = [sys.executable, "-m", "qdensity.cli", "reduce", str(corpus), "--cut", "1"]
        shown = subprocess.run(run, env=env, capture_output=True, timeout=120)
        assert shown.returncode == 0, shown.stderr
        assert subprocess.run(run + ["--out", str(out)], env=env, timeout=120).returncode == 0
        assert shown.stdout == out.read_bytes() and len(shown.stdout) > 10**5

    def test_sample_stdout_equals_the_out_file(self, runner, paths):
        # the lines are written a chain block at a time: three blocks here
        count = 2 * mps.CHAIN_BLOCK + 1
        args = ["parity", "sample", "--model", str(paths["model"]), "--count", str(count), "--seed", "4"]
        shown = invoke(runner, args)
        assert shown.exit_code == 0
        assert invoke(runner, args + ["--out", str(paths["out"])]).stdout_bytes == b""
        assert shown.stdout_bytes == paths["out"].read_bytes()
        lines = shown.stdout_bytes.decode().split("\n")
        assert lines[-1] == "" and len(lines) == count + 1 and {len(s) for s in lines[:-1]} == {6}

    @pytest.mark.parametrize(
        "args, text",
        [
            (["reduce", "{corpus}", "--cut", "9"], None),
            (["reduce", "{bad}"], "x,y,p\na,u,-1\n"),
            (["parity", "sample", "--model", "{model}", "--count", "-1"], None),
        ],
        ids=["cut", "csv", "sample-count"],
    )
    def test_refused_input_leaves_the_out_file_alone(self, runner, paths, tmp_path, args, text):
        paths["bad"] = tmp_path / "bad.csv"
        if text is not None:
            paths["bad"].write_text(text)
        paths["out"].write_bytes(b"an earlier result\n")
        result = runner.invoke(main, [a.format(**paths) for a in args] + ["--out", str(paths["out"])])
        assert result.exit_code == 1 and result.output.startswith("Error: ")
        assert paths["out"].read_bytes() == b"an earlier result\n"


class TestDistributionCsvErrors:
    @pytest.mark.parametrize(
        "text, order, message",
        [
            ("x,y,p\na,u,0.5\n\nb,v\n", None, "line 4: expected 3 fields, got 2"),
            ("x,y,p\na,u,half\n", None, "line 2: bad probability 'half'"),
            ("x,y,p\na,u,-0.5\nb,v,1.5\n", None, "line 2: negative probability -0.5"),
            ("x,y,p\na,u,0.5\n a , u ,0.5\n", None, "line 3: duplicate pair (a, u)"),
            ("x,y,p\n\n  \n", None, "no probability rows"),
            ("x,y,p\na,u,0.5\nb,v,0.4\n", None, "probabilities sum to 0.9"),
            ("x,y,p\na,u,0.5\nb,v,0.5\n", "a\nu v\n", "ordering file omits symbols: ['b']"),
            ("x,y,p\na,u,0.5\nb,v,0.5\n", "a b a\nu v\n", "alphabet symbols must be distinct"),
            # two bad lines: the first is reported
            ("x,y,p\na,u,x\nb,v\n", None, "line 2: bad probability 'x'"),
            ("x,y,p\na,u,0.5\na,u,0.5\nb,v,-1\n", None, "line 3: duplicate pair (a, u)"),
            # a probability must be finite, and a sign does not make an infinity negative
            ("x,y,p\na,x,nan\na,y,1.0\n", None, "line 2: bad probability 'nan'"),
            ("x,y,p\na,x,inf\na,y,1.0\n", None, "line 2: bad probability 'inf'"),
            ("x,y,p\na,x,-inf\na,y,1.0\n", None, "line 2: bad probability '-inf'"),
            # an empty symbol is refused, as the relation reader refuses it
            ("x,y,p\na,u,0.5\n,u,0.5\n", None, "line 3: empty symbol"),
            ("x,y,p\na, ,0.5\nb,u,0.5\n", None, "line 2: empty symbol"),
        ],
    )
    def test_message_and_exit_code(self, runner, tmp_path, text, order, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        args = ["reduce", str(path)]
        if order is not None:
            (tmp_path / "order.txt").write_text(order)
            args += ["--order", str(tmp_path / "order.txt")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert message in result.output
        if message.startswith("line"):
            assert f"{path}: {message}" in result.output
        if order is not None:
            assert f"Error: {tmp_path / 'order.txt'}: {message}" in result.output

    @pytest.mark.parametrize(
        "command, name",
        [
            (["reduce"], "d.csv"),
            (["reduce", "--cut", "1"], "d.txt"),
            (["concepts"], "rel.csv"),
        ],
    )
    def test_non_utf8_file_is_reported(self, runner, tmp_path, command, name):
        path = tmp_path / name
        path.write_bytes(b"x,y\n\xff,u\n")
        result = runner.invoke(main, [command[0], str(path), *command[1:]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {path}: 'utf-8' codec can't decode byte 0xff" in result.output

    @pytest.mark.parametrize(
        "command",
        [
            ["reduce", "{path}", "--cut", "1"],
            ["entail", "{path}", "--pattern", "1=small", "--against", "1=small,2=ripe"],
            ["parity", "train", "--data", "{path}", "--model", "{model}"],
        ],
        ids=["reduce", "entail", "parity-train"],
    )
    def test_late_non_utf8_byte_in_a_dataset_is_reported(self, runner, tmp_path, command):
        # the bad byte lies past the text reader's first decoded chunk, so it
        # fails mid-parse; the message still names the file, and the byte's
        # position counts from the start of the file
        data = bytearray(b"small ripe fruit\n" * 3001)
        data[18000] = 0xFF
        path, model = tmp_path / "late.txt", tmp_path / "model.json"
        path.write_bytes(bytes(data))
        args = [a.format(path=path, model=model) for a in command]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (
            f"Error: {path}: 'utf-8' codec can't decode byte 0xff in position 18000: invalid start byte"
            in result.output
        )
        assert not model.exists()

    def test_oversized_product_is_reported_with_the_file(self, runner, tmp_path):
        # 1100 x symbols by 1000 y symbols: checked before the table is allocated
        path = tmp_path / "d.csv"
        rows = (f"x{i},y{i % 1000},{1 / 1100!r}\n" for i in range(1100))
        path.write_text("x,y,p\n" + "".join(rows))
        result = runner.invoke(main, ["reduce", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (
            f"Error: {path}: product space of 1100000 entries exceeds the supported 1048576\n"
            in result.output
        )

    def test_non_utf8_order_file_is_reported(self, runner, tmp_path):
        path, order = tmp_path / "d.csv", tmp_path / "order.txt"
        path.write_text("x,y,p\na,u,1\n")
        order.write_bytes(b"a\n\xff\n")
        result = runner.invoke(main, ["reduce", str(path), "--order", str(order)])
        assert result.exit_code == 1
        assert f"Error: {order}: 'utf-8' codec" in result.output

    def test_bad_header(self, tmp_path):
        # reduce reads a file whose first line is not x,y,p as a dataset, so
        # the loader's own header check is reached only directly
        path = tmp_path / "d.csv"
        path.write_text("x,y,q\na,u,1\n")
        with pytest.raises(ValueError) as err:
            _load_distribution_csv(path, None)
        assert str(err.value) == f"{path}: line 1: expected header 'x,y,p'"


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,z\na,b\n", "line 1: expected header 'x,y'"),
            ("x,y\na,b\n\nc\n", "line 4: expected two symbols"),
            ("x,y\na, \n", "line 2: expected two symbols"),
            ("x,y\n \n\n", "no related pairs"),
        ],
    )
    def test_reader_errors(self, runner, tmp_path, text, message):
        path = tmp_path / "rel.csv"
        path.write_text(text)
        result = runner.invoke(main, ["concepts", str(path)])
        assert result.exit_code == 1
        assert f"{path}: {message}" in result.output


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

    def test_train_checks_the_int64_bound_before_counting(self, runner, tmp_path):
        # 0.5 * 2**1999 overflows a float: the length check must come first
        model = str(tmp_path / "m.json")
        args = ["parity", "train", "--n", "2000", "--fraction", "0.5", "--model", model]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "int64" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_train_rejects_n_with_data(self, runner, tmp_path):
        data, model = tmp_path / "bits.txt", tmp_path / "m.json"
        data.write_text("0110\n1010\n0000\n")
        args = ["parity", "train", "--data", str(data), "--n", "12", "--model", str(model)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "--n" in result.output
        assert not model.exists()

    def test_eval_rejects_bad_model(self, runner, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text('{"n": 3, "physical_dim": 2, "bond_dims": [1], "tensors": []}')
        result = runner.invoke(main, ["parity", "eval", "--model", str(bad)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["eval", "sample"])
    @pytest.mark.parametrize(
        "payload, reason",
        [
            ("[]", "the payload is not a JSON object"),
            ('{"n": 3, "physical_dim": 2, "bond_dims": [1], "tensors": 5}', "not iterable"),
            ('{"n": 3, "physical_dim": 2, "bond_dims": [1]}', "no 'tensors' field"),
        ] + [(symbol_model(t), f"symbol {t!r} cannot stand in a sample line") for t in REFUSED_SYMBOLS],
    )
    def test_malformed_model_file_is_reported(self, runner, tmp_path, command, payload, reason):
        bad = tmp_path / "m.json"
        bad.write_text(payload)
        result = runner.invoke(main, ["parity", command, "--model", str(bad)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"Error: bad model file {bad}: ")
        assert result.output.count("\n") == 1 and result.output.count(str(bad)) == 1
        assert reason in result.output

    @pytest.mark.parametrize("command", [["eval"], ["sample", "--count", "3"]])
    def test_model_file_off_unit_norm_is_refused(self, runner, tmp_path, command):
        # a tripled last tensor is a state of squared norm 9, whose inner
        # product with the target eval would report 3 times too large
        model = tmp_path / "m.json"
        invoke(runner, ["parity", "train", "--n", "8", "--fraction", "0.1", "--seed", "1", "--model", str(model)])
        payload = json.loads(model.read_text())
        payload["tensors"][-1] = (3 * np.array(payload["tensors"][-1])).tolist()
        model.write_text(json.dumps(payload))
        result = runner.invoke(main, ["parity", command[0], "--model", str(model), *command[1:]])
        assert result.exit_code == 1
        refusal = rf"Error: bad model file {re.escape(str(model))}: squared norm (\S+), expected 1\n"
        found = re.fullmatch(refusal, result.output)
        assert found and abs(float(found[1]) - 9) < 1e-12

    @pytest.mark.parametrize("command", [["eval"], ["sample", "--count", "3"]])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_model_file_is_refused(self, runner, tmp_path, command, value):
        model = tmp_path / "m.json"
        invoke(runner, ["parity", "train", "--n", "6", "--fraction", "0.5", "--model", str(model)])
        payload = json.loads(model.read_text())
        payload["tensors"][-1][0][0][0] = value
        model.write_text(json.dumps(payload))  # json writes the tokens NaN and Infinity
        result = runner.invoke(main, ["parity", command[0], "--model", str(model), *command[1:]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: bad model file {model}: tensor entries must be finite\n" in result.output

    def test_eval_rejects_non_bit_model(self, runner, tmp_path):
        path = tmp_path / "ab.txt"
        path.write_text("a b a b\nb b a a\n")
        model = tmp_path / "m.json"
        assert invoke(runner, ["parity", "train", "--data", str(path), "--model", str(model)]).exit_code == 0
        result = runner.invoke(main, ["parity", "eval", "--model", str(model)])
        assert result.exit_code != 0
        assert "alphabet" in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["train", "--n", "30", "--fraction", "1.0"], "a draw of 536870912 samples"),
            (["experiment", "--n", "24", "--fractions", "1.0", "--replicas", "1"], "8388608 samples"),
        ],
    )
    def test_out_of_memory_exits_cleanly(self, tmp_path, args, message):
        # the 1.5 GB address-space limit applies to the child process only
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        src = str(Path(qdensity.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, QDENSITY_THREADS="1", OPENBLAS_NUM_THREADS="1")
        if args[0] == "train":
            args = args + ["--model", str(tmp_path / "m.json")]
        result = subprocess.run(
            [sys.executable, "-m", "qdensity.cli", "parity", *args],
            env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert message in result.stderr and "fit in memory" in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["reduce", "{corpus}", "--cut", "3"], "cut must lie in [1, 2], got 3"),
        (["concepts", "{identity}"], "relation's smaller side of 25 symbols exceeds the supported 24"),
        (
            ["entail", "{corpus}", "--pattern", "1=huge", "--against", "1=small"],
            "pattern unobserved: {{1: 'huge'}}",  # format() unescapes the braces
        ),
        (
            ["parity", "train", "--n", "6", "--fraction", "0.5", "--chi", "0", "--model", "{out}"],
            "chi must be at least 1",
        ),
        (["parity", "eval", "--model", "{short}"], "bad model file {short}: expected 3 tensors, got 0"),
        (["parity", "sample", "--model", "{model}", "--count", "-1"], "count must be nonnegative"),
        (
            ["parity", "experiment", "--n", "6", "--fractions", "2.0", "--replicas", "1"],
            "fraction 2.0 outside (0, 1]",
        ),
        (
            ["entail", "{wide}", "--pattern", "1=p0", "--against", "1=p1"],
            "{wide}: product space of 1210000 entries exceeds the supported 1048576",
        ),
        (
            ["parity", "train", "--data", "{two}", "--model", "{out}"],
            "{two}: training requires sequences of length at least 3",
        ),
        (
            # the rank bound is about the --chi flag, so it does not name the file
            ["parity", "train", "--data", "{corpus}", "--chi", "40", "--model", "{out}"],
            "chi=40 exceeds the first step's rank bound 36",
        ),
        (["entail", "{corpus}", "--pattern", "1", "--against", "1=small"],
         "bad pattern entry '1', expected POS=TOKEN"),
        (["entail", "{corpus}", "--pattern", "x=small", "--against", "1=small"], "bad pattern position 'x'"),
        (["entail", "{corpus}", "--pattern", "1=small,1=large", "--against", "1=small"], "pattern repeats position 1"),
        (["entail", "{corpus}", "--pattern", " , ", "--against", "1=small"], "pattern is empty"),
        (["parity", "experiment", "--n", "6", "--fractions", "0.5,half", "--replicas", "1"],
         "bad fractions list '0.5,half'"),
        (["parity", "experiment", "--n", "6", "--fractions", ",", "--replicas", "1"], "no fractions given"),
        (["parity", "experiment", "--n", "6", "--fractions", "0.5", "--replicas", "0"], "need at least one replica"),
        (["parity", "eval", "--model", "{shape}"],
         "bad model file {shape}: tensor 1 has shape (2, 3, 1), expected (left, 2, right)"),
        (["parity", "eval", "--model", "{bond}"], "bad model file {bond}: bond mismatch between tensors 0 and 1"),
        (["parity", "eval", "--model", "{open}"],
         "bad model file {open}: last tensor must close with a bond of size 1"),
    ],
    ids=["reduce", "concepts", "entail", "train", "eval", "sample", "experiment", "entail-bound",
         "train-data", "train-data-chi", "pattern-entry", "pattern-position", "pattern-repeats", "pattern-empty",
         "fractions-list", "fractions-none", "replicas", "model-shape", "model-bond", "model-open"],
)
def test_library_value_error_is_an_error_line(runner, tmp_path, args, message):
    # each command leaves the library's ValueError to the command group's one handler
    names = ("corpus", "identity", "short", "model", "out", "wide", "two", "shape", "bond", "open")
    paths = {name: tmp_path / name for name in names}
    # n = 2 model files whose second tensor is (2, 3, 1), (3, 2, 1) and (2, 2, 2)
    for name, second in (("shape", [[[1], [0], [0]], [[0], [1], [0]]]), ("bond", [[[1], [0]], [[0], [1]], [[0], [0]]]),
                         ("open", [[[1, 0], [0, 1]], [[0, 0], [1, 0]]])):
        payload = {"n": 2, "physical_dim": 2, "bond_dims": [1, 2, 1], "tensors": [[[[1, 0], [0, 1]]], second]}
        paths[name].write_text(json.dumps(payload))
    paths["corpus"].write_text("small ripe fruit\nlarge ripe fruit\nsmall green vegetable\n")
    paths["two"].write_text("ab\nba\n")
    paths["wide"].write_text("".join(f"p{i} s{i}\n" for i in range(1100)))
    paths["identity"].write_text("x,y\n" + "".join(f"x{i},y{i}\n" for i in range(25)))
    paths["short"].write_text('{"n": 3, "physical_dim": 2, "bond_dims": [1], "tensors": []}')
    invoke(runner, ["parity", "train", "--n", "4", "--fraction", "1.0", "--model", str(paths["model"])])
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message.format(**paths)}\n" in result.output
    assert "Traceback" not in result.output
    assert not paths["out"].exists()


WIDE_CORPUS = "".join(f"p{i} s{i}\n" for i in range(1100))
WIDE_CSV = "x,y,p\n" + "".join(f"x{i},y{i % 1000},{1 / 1100!r}\n" for i in range(1100))


@pytest.mark.parametrize(
    "args, files, named, message",
    [
        (["reduce", "{data}", "--cut", "1"], {"data": b"a b\na  b\n"}, "data",
         "line 2: malformed sample 'a  b\\n'"),
        (["reduce", "{data}", "--cut", "1"], {"data": b"small ripe fruit\n\xff ripe fruit\n"}, "data",
         "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
        (["parity", "train", "--data", "{data}", "--model", "{out}"], {"data": b"ab\nabc\n"}, "data",
         "samples have mixed lengths [2, 3]"),
        (["reduce", "{dist}"], {"dist": b"x,y,p\na,u,0.5\nb,v\n"}, "dist",
         "line 3: expected 3 fields, got 2"),
        (["reduce", "{dist}"], {"dist": WIDE_CSV.encode()}, "dist",
         "product space of 1100000 entries exceeds the supported 1048576"),
        (["concepts", "{relation}"], {"relation": b"x,y\na,b\nc\n"}, "relation",
         "line 3: expected two symbols"),
        (["reduce", "{dist}", "--order", "{order}"], {"dist": b"x,y,p\na,u,1\n", "order": b"a\n"}, "order",
         "ordering file must have exactly two nonempty lines"),
        (["reduce", "{dist}", "--order", "{order}"], {"dist": b"x,y,p\na,u,1\n", "order": b"a b a\nu\n"},
         "order", "alphabet symbols must be distinct"),
        (["reduce", "{dist}", "--order", "{order}"], {"dist": b"x,y,p\na,u,1\n", "order": b"b\nu\n"}, "order",
         "ordering file omits symbols: ['a']"),
        (["entail", "{data}", "--pattern", "1=p0", "--against", "1=p1"], {"data": WIDE_CORPUS.encode()}, "data",
         "product space of 1210000 entries exceeds the supported 1048576"),
        (["entail", "{data}", "--pattern", "1=a", "--against", "1=b"], {"data": b"a\nb\n"}, "data",
         "corpus sequences must have length at least 2"),
        # a token led by a tab would be lost to a drawn line's strip
        (["parity", "train", "--data", "{data}", "--model", "{out}"], {"data": b"a \tb c\nc a \tb\n"}, "data",
         "symbol '\\tb' cannot stand in a sample line: it is empty, holds a space, newline or carriage return, "
         "or starts or ends with whitespace"),
    ],
    ids=["dataset-line", "dataset-utf8", "train-data", "dist-line", "dist-product", "relation-line",
         "order-lines", "order-duplicate", "order-omits", "entail-product", "entail-length", "train-symbol"],
)
def test_refusal_names_its_file_once(runner, tmp_path, args, files, named, message):
    # a refusal is one error line that names the refused file exactly once: a
    # substring check would also pass on a doubled "path: path: ..."
    paths = {name: tmp_path / name for name in ("data", "dist", "relation", "order", "out")}
    for name, content in files.items():
        paths[name].write_bytes(content)
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 1
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].count(str(paths[named])) == 1
    assert result.output == f"Error: {paths[named]}: {message}\n"


def test_training_out_of_memory_names_the_data_file_once(runner, tmp_path, monkeypatch):
    data, model = tmp_path / "data.txt", tmp_path / "m.json"
    data.write_text("abc\nbca\n")

    def no_memory(ds, cfg):
        raise MemoryError

    monkeypatch.setattr(mps, "train", no_memory)
    result = runner.invoke(main, ["parity", "train", "--data", str(data), "--model", str(model)])
    assert result.exit_code == 1
    assert result.output == f"Error: {data}: training on this dataset does not fit in memory\n"
    assert not model.exists()


def test_import_leaves_the_process_pool_unloaded():
    # run_experiment imports the pool only when it runs more than one worker
    src = str(Path(qdensity.__file__).parents[1])
    code = "import sys, qdensity.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
