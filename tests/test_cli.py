import hashlib
import json

import numpy as np
import pytest

from riskcast import (
    build_samples,
    chronological_split,
    default_lexicon,
    load_bundle,
    load_model,
)
from riskcast.cli import main
from riskcast.evaluation import evaluate_predictions
from riskcast.models import HybridModel, prediction_scores
from riskcast.pipeline import split_for

DATA_FILES = ["market.csv", "financial.csv", "macro.csv", "news.csv", "policy.csv"]


def _gen(tmp_path, days=420, seed=5, extra=()):
    out = tmp_path / "data"
    rc = main(["gen-data", "--days", str(days), "--seed", str(seed),
               "--out", str(out), *extra])
    assert rc == 0
    return out


def _train(tmp_path, data_dir, name="model.rcm", extra=()):
    out = tmp_path / name
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--epochs", "6", "--patience", "3", "--lr", "0.003",
               "--hidden", "6", "--seed", "5", *extra])
    assert rc == 0
    return out


def _with_edits(data_dir, bad_dir, filename, edits):
    """Copy the data files into ``bad_dir``, setting ``filename``'s field
    ``column`` on line ``row + 1`` to ``token`` for each ``(row, column, token)``."""
    bad_dir.mkdir()
    for name in DATA_FILES:
        (bad_dir / name).write_bytes((data_dir / name).read_bytes())
    lines = (bad_dir / filename).read_text().splitlines()
    for row, column, token in edits:
        fields = lines[row].split(",")
        fields[lines[0].split(",").index(column)] = token
        lines[row] = ",".join(fields)
    (bad_dir / filename).write_text("\n".join(lines) + "\n")


def _predict_or_train(command, linear, data_dir, out):
    if command == "predict":
        return main(["predict", "--model", str(linear), "--data", str(data_dir),
                     "--out", str(out)])
    return main(["train", "--data", str(data_dir), "--out", str(out), "--baseline", "linreg"])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    data_dir = _gen(tmp_path)
    hybrid = _train(tmp_path, data_dir)
    linear = _train(tmp_path, data_dir, name="linear.rcm", extra=("--baseline", "linreg"))
    return tmp_path, data_dir, hybrid, linear


class TestGenData:
    def test_writes_five_files_and_manifest(self, workspace):
        _, data_dir, _, _ = workspace
        for name in DATA_FILES + ["manifest.json"]:
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 5
        assert manifest["files"] == DATA_FILES

    def test_rerun_with_same_flags_is_byte_identical(self, workspace, tmp_path):
        _, data_dir, _, _ = workspace
        again = _gen(tmp_path, days=420, seed=5)
        for name in DATA_FILES + ["manifest.json"]:
            assert (data_dir / name).read_bytes() == (again / name).read_bytes(), name

    def test_files_match_pinned_digests(self, tmp_path):
        """SHA-256 of every file ``gen-data --days 300 --seed 7`` writes.

        The digests were recorded from the per-draw generator.  Unlike the
        rerun test above, they also catch a change of draw order that is
        stable from run to run."""
        pinned = {
            "market.csv": "b0d4fcc59a77fa393bc6d04a501502656ce069eeccfdc43ad5e697afcd80d4c2",
            "financial.csv": "ca8a80095530a735558f66a90576f5616c596089963bb52ff911818ef886192f",
            "macro.csv": "4366391e3369bc692163434b6ab29821018631321d2529b125faebb1741cae4e",
            "news.csv": "1a766220702b4a93eb6c9f16cf25fa0f7577781d26a0cbf1fcaef595deaadb68",
            "policy.csv": "bb1458ec2c1d8cf60078c03b19f32636b7312f3a4f22ad6b1d091ce2dac98069",
            "manifest.json": "e46d5db6283c118915e333f776e240330aef39e91086f82a33cd895c27a98898",
        }
        out = _gen(tmp_path, days=300, seed=7)
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in pinned}
        assert digests == pinned

    @pytest.mark.parametrize("days, seed, extra, pinned", [
        (3000, 3, (), {
            "market.csv": "b6101bec036a42ef7bc264ff330d301d60c88cc76b53361c0197402145b80444",
            "financial.csv": "4dd9ab726a83ceffa91cc78277871dae3a479b48962aa6388ab81556cb01026d",
            "macro.csv": "add98bd886d19a681ed85f80907aa9a205dfa4884098675bfb9e3df05387180d",
            "news.csv": "64570746e402655ab11ee9802dc38c3e5293368e445670efa5666e5f5f8116b1",
            "policy.csv": "1d5305f826b8db0d7941a06bf00b38b6a518409ae06d5af10f6424d4f725f8df",
            "manifest.json": "3caf780fd54a2067df12f68346f4346894ad347cf265c244f81c29c487334279",
        }),
        (1000, 11, ("--kappa", "0", "--no-nonlinear"), {
            "market.csv": "4af9c0791ee9ea3e458092d3ac67eb7c47814cd34188e3710cfce40344e4f7a9",
            "financial.csv": "f54c08a07d7be9244e1159c34b5bbfa7a0f70b164288732b013a16e8b24408ee",
            "macro.csv": "85041f5642ea22e057f0efb419eb751320df6d6ae6b15a6123e106148b09a7ad",
            "news.csv": "e6d610f5e541c89c721a6c8639fe9e9318e21bc1cbd25541942a56165d3d5fe5",
            "policy.csv": "17b111d3a92584c5c2196b5d4fbe24e99ab64f530bf4cf10fb88f61d1cb35fba",
            "manifest.json": "1b6e3f50256c54cb0b29e6a1dbb2a5bb838477818b4dee551730aa802fcafb87",
        }),
    ], ids=["3000d-seed3", "1000d-seed11-linear"])
    def test_multi_chunk_files_match_pinned_digests(self, tmp_path, days, seed, extra, pinned):
        """SHA-256 of every file at two settings whose news and policy streams
        span several chunks of days, recorded from the per-item news walk."""
        out = _gen(tmp_path, days=days, seed=seed, extra=extra)
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in pinned}
        assert digests == pinned

    def test_days_below_minimum_is_a_parameter_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--days", "50", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "n_days" in capsys.readouterr().err

    def test_days_past_year_9999_is_a_parameter_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["gen-data", "--days", "2083187", "--out", str(out)])
        assert rc == 2
        assert "n_days must be <= 2083186" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_model_and_nonempty_epoch_log(self, workspace):
        tmp_path, _, hybrid, _ = workspace
        assert hybrid.exists()
        log_lines = (tmp_path / "model.rcm.log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,train_mse,val_mse"
        assert len(log_lines) > 1

    def test_model_carries_preprocessing_recipe(self, workspace):
        _, _, hybrid, _ = workspace
        model = load_model(hybrid)
        assert model.preprocess is not None
        assert model.dims.window == model.preprocess.window

    def test_baseline_switch_trains_linear_model(self, workspace):
        _, _, _, linear = workspace
        assert load_model(linear).kind == "linear"

    def test_grid_trains_every_combination(self, tmp_path, capsys):
        data_dir = _gen(tmp_path, days=420, seed=6)
        out = tmp_path / "grid.rcm"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--epochs", "2", "--patience", "2", "--seed", "6",
                   "--grid", "lr=0.001,0.01", "hidden=4,6"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        trials = [line for line in lines if line.startswith("grid trial")]
        assert len(trials) == 4
        assert any(line.startswith("selected ") for line in lines)

    @pytest.mark.parametrize("extra", [(), ("--baseline", "linreg")], ids=["hybrid", "linreg"])
    def test_dropout_out_of_range_is_a_parameter_error(self, workspace, tmp_path, capsys,
                                                       extra):
        _, data_dir, _, _ = workspace
        out = tmp_path / "bad.rcm"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--dropout", "1.0", *extra])
        assert rc == 2
        assert "dropout" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("extra", [(), ("--grid", "lr=0.001,0.01")], ids=["plain", "grid"])
    def test_zero_epochs_is_a_parameter_error_before_any_read(self, tmp_path, capsys, extra):
        out = tmp_path / "zero.rcm"
        rc = main(["train", "--data", str(tmp_path / "missing"), "--out", str(out),
                   "--epochs", "0", *extra])
        assert rc == 2
        assert "--epochs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ("--grid", "lr=abc"), ("--grid", "hidden=1.5"), ("--hidden", "0"),
        ("--grid", "hidden=0"), ("--lr", "nan"), ("--lr", "inf"), ("--grid", "lr=0.01,nan"),
    ], ids=["grid-lr-abc", "grid-hidden-1.5", "hidden-0", "grid-hidden-0", "lr-nan", "lr-inf",
            "grid-lr-nan"])
    def test_bad_rate_or_hidden_size_is_a_parameter_error_before_any_read(
            self, tmp_path, capsys, flags):
        out = tmp_path / "bad.rcm"
        rc = main(["train", "--data", str(tmp_path / "missing"), "--out", str(out), *flags])
        assert rc == 2
        assert "riskcast: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [(), ("--grid", "lr=1e300,1e299")], ids=["plain", "grid"])
    def test_diverged_training_is_a_numerical_error_and_writes_nothing(
            self, workspace, tmp_path, capsys, extra):
        _, data_dir, _, _ = workspace
        out = tmp_path / "diverged.rcm"
        with np.errstate(all="ignore"):
            rc = main(["train", "--data", str(data_dir), "--out", str(out), "--lr", "1e300",
                       "--epochs", "2", "--hidden", "4", *extra])
        assert rc == 4
        assert "diverged" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_epochs_still_fits_the_linear_baseline(self, workspace, tmp_path, capsys):
        _, data_dir, _, _ = workspace
        out = tmp_path / "linear.rcm"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--baseline", "linreg", "--epochs", "0"])
        assert rc == 0
        assert load_model(out).kind == "linear"
        capsys.readouterr()


class TestEvaluate:
    def test_prints_three_finite_metrics(self, workspace, capsys):
        tmp_path, data_dir, hybrid, _ = workspace
        rc = main(["evaluate", "--model", str(hybrid), "--data", str(data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        values = {line.split(": ")[0]: line.split(": ")[1]
                  for line in out.splitlines() if ": " in line}
        for key in ("mse", "accuracy", "r2"):
            assert np.isfinite(float(values[key]))

    def test_threshold_flag_recorded(self, workspace, capsys):
        _, data_dir, hybrid, _ = workspace
        rc = main(["evaluate", "--model", str(hybrid), "--data", str(data_dir),
                   "--threshold", "0.6"])
        assert rc == 0
        assert "threshold: 0.6" in capsys.readouterr().out

    def test_metrics_match_library_recomputation(self, workspace, capsys):
        _, data_dir, hybrid, _ = workspace
        rc = main(["evaluate", "--model", str(hybrid), "--data", str(data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        printed = {line.split(": ")[0]: line.split(": ")[1]
                   for line in out.splitlines() if ": " in line}
        model = load_model(hybrid)
        bundle = load_bundle(str(data_dir))
        samples = build_samples(bundle, default_lexicon(), model.preprocess)
        _, _, test_set = chronological_split(samples, split_for(model.preprocess))
        report = evaluate_predictions(test_set.y, prediction_scores(model, test_set))
        assert float(printed["mse"]) == report.mse
        assert float(printed["accuracy"]) == report.accuracy
        assert float(printed["r2"]) == report.r2


    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_non_finite_threshold_is_a_parameter_error(self, workspace, tmp_path, capsys,
                                                       command, threshold):
        _, data_dir, hybrid, linear = workspace
        csv_path = tmp_path / "metrics.csv"
        models = (["--model", str(hybrid)] if command == "evaluate"
                  else [str(hybrid), str(linear)])
        rc = main([command, *models, "--data", str(data_dir),
                   f"--threshold={threshold}", "--csv", str(csv_path)])
        assert rc == 2
        assert "threshold must be finite" in capsys.readouterr().err
        assert not csv_path.exists()


class TestPredict:
    def test_row_per_admissible_window(self, workspace):
        tmp_path, data_dir, hybrid, _ = workspace
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(hybrid), "--data", str(data_dir),
                   "--out", str(out)])
        assert rc == 0
        model = load_model(hybrid)
        bundle = load_bundle(str(data_dir))
        samples = build_samples(bundle, default_lexicon(), model.preprocess)
        lines = out.read_text().splitlines()
        assert lines[0] == "date,risk_score"
        assert len(lines) == 1 + len(samples)
        assert [line.split(",")[0] for line in lines[1:]] == [d.isoformat() for d in samples.dates]

    def test_prediction_file_stable_across_model_roundtrip(self, workspace):
        tmp_path, data_dir, hybrid, _ = workspace
        a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(["predict", "--model", str(hybrid), "--data", str(data_dir),
                     "--out", str(a)]) == 0
        assert main(["predict", "--model", str(hybrid), "--data", str(data_dir),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_short_history_writes_header_only_with_warning(self, workspace,
                                                               tmp_path, capsys):
        _, data_dir, hybrid, _ = workspace
        short_dir = tmp_path / "short"
        short_dir.mkdir()
        market_lines = (data_dir / "market.csv").read_text().splitlines()[:31]
        cutoff = market_lines[-1].split(",")[0]
        for name in DATA_FILES:
            lines = (data_dir / name).read_text().splitlines()
            kept = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] <= cutoff]
            (short_dir / name).write_text("\n".join(kept) + "\n")
        out = tmp_path / "short_preds.csv"
        with pytest.warns(UserWarning):
            rc = main(["predict", "--model", str(hybrid), "--data", str(short_dir),
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "date,risk_score\n"
        assert "no admissible prediction windows" in capsys.readouterr().err


class TestMissingDataFile:
    @pytest.mark.parametrize("command", ["predict", "evaluate", "compare"])
    def test_missing_recipe_columns_are_a_data_error(self, workspace, tmp_path, capsys,
                                                     command):
        """Without financial.csv the recipe's static columns are absent: exit 3
        naming them, not a usage error or an empty prediction file."""
        _, data_dir, hybrid, linear = workspace
        bad = tmp_path / "no_financial"
        bad.mkdir()
        for name in DATA_FILES:
            if name != "financial.csv":
                (bad / name).write_bytes((data_dir / name).read_bytes())
        out = tmp_path / "out.csv"
        argv = {
            "predict": ["predict", "--model", str(hybrid), "--out", str(out)],
            "evaluate": ["evaluate", "--model", str(hybrid), "--csv", str(out)],
            "compare": ["compare", str(hybrid), str(linear), "--csv", str(out)],
        }[command]
        assert main(argv + ["--data", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "'profit'" in err
        assert "no admissible prediction windows" not in err
        assert not out.exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["predict", "train"])
    @pytest.mark.parametrize("filename,column", [("market.csv", "close"),
                                                 ("financial.csv", "profit")])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_rejected_with_file_line_and_exit_3(self, workspace, tmp_path, capsys,
                                                command, filename, column, token):
        _, data_dir, _, linear = workspace
        row = len((data_dir / filename).read_text().splitlines()) // 2
        _with_edits(data_dir, tmp_path / "bad", filename, [(row, column, token)])
        out = tmp_path / "out"
        assert _predict_or_train(command, linear, tmp_path / "bad", out) == 3
        err = capsys.readouterr().err
        assert f"{filename}:{row + 1}: non-finite value {token}" in err
        assert repr(column) in err
        assert not out.exists()


class TestInvalidMarketValues:
    FAULTS = {"volume": ("-5", "negative value -5.0"), "close": ("0", "non-positive value 0.0")}

    @pytest.mark.parametrize("command", ["predict", "train"])
    @pytest.mark.parametrize("first,second", [("volume", "close"), ("close", "volume")])
    def test_first_bad_row_rejected_with_exit_3(self, workspace, tmp_path, capsys,
                                                command, first, second):
        """A negative volume and a zero close stop the run instead of dropping
        their windows; the earlier of the two in file order is reported."""
        _, data_dir, _, linear = workspace
        n_lines = len((data_dir / "market.csv").read_text().splitlines())
        rows = (n_lines // 3, 2 * n_lines // 3)
        _with_edits(data_dir, tmp_path / "bad", "market.csv",
                    [(rows[0], first, self.FAULTS[first][0]),
                     (rows[1], second, self.FAULTS[second][0])])
        out = tmp_path / "out"
        assert _predict_or_train(command, linear, tmp_path / "bad", out) == 3
        err = capsys.readouterr().err
        assert f"market.csv:{rows[0] + 1}: {self.FAULTS[first][1]} in column {first!r}" in err
        assert not out.exists()


class TestMalformedModelFile:
    """A model file whose headers or recipe do not parse, or describe a model
    that cannot be built, is a model-file error (exit 5) naming the file."""

    @pytest.mark.parametrize("which, key, position, token", [
        ("hybrid", "window", 1, "abc"),
        ("linear", "ridge_lambda", 1, "x"),
        ("hybrid", "stats", 2, "zz"),
        ("hybrid", "f_sentiment", 1, "0"),
        ("hybrid", "hidden_size", 1, "3"),
        ("hybrid", "dropout_p", 1, "1.5"),
    ], ids=["window-abc", "ridge-x", "stats-zz", "f_sentiment-0", "hidden-size-mismatch",
            "dropout-1.5"])
    def test_evaluate_exits_5(self, workspace, tmp_path, capsys, which, key, position, token):
        _, data_dir, hybrid, linear = workspace
        lines = (hybrid if which == "hybrid" else linear).read_text().splitlines()
        row = next(k for k, line in enumerate(lines) if line.split()[:1] == [key])
        fields = lines[row].split()
        fields[position] = token
        lines[row] = " ".join(fields)
        bad = tmp_path / "bad.rcm"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--model", str(bad), "--data", str(data_dir)])
        assert rc == 5
        assert str(bad) in capsys.readouterr().err


class TestCompare:
    def test_table_and_csv(self, workspace, capsys):
        tmp_path, data_dir, hybrid, linear = workspace
        csv_path = tmp_path / "cmp.csv"
        rc = main(["compare", str(hybrid), str(linear), "--data", str(data_dir),
                   "--csv", str(csv_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner mse:" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "model,mse,accuracy,r2"
        assert len(lines) == 3  # header + one row per model

    def test_identical_model_files_tie(self, workspace, capsys):
        _, data_dir, hybrid, _ = workspace
        rc = main(["compare", str(hybrid), str(hybrid), "--data", str(data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count(": tie") == 3

    def test_mismatched_recipes_rejected(self, workspace, tmp_path, capsys):
        _, data_dir, hybrid, _ = workspace
        other_data = _gen(tmp_path, days=420, seed=99)
        other = _train(tmp_path, other_data, name="other.rcm")
        rc = main(["compare", str(hybrid), str(other), "--data", str(data_dir)])
        assert rc == 3
        assert "identical splits" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_within_tolerance(self, capsys):
        rc = main(["gradcheck", "--seed", "11"])
        assert rc == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_break_layer_hook_fails_loudly(self, monkeypatch, capsys):
        backward = HybridModel.backward
        for name in ("conv.kernels", "lstm.w_x", "head.w"):
            def broken(self, cache, dscore, name=name):
                grads, dx = backward(self, cache, dscore)
                grads[name] = grads[name] + 0.05
                return grads, dx

            monkeypatch.setattr(HybridModel, "backward", broken)
            assert main(["gradcheck", "--seed", "11"]) == 4, name
        capsys.readouterr()

    def test_same_seed_prints_identical_error(self, capsys):
        assert main(["gradcheck", "--seed", "12"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--seed", "12"]) == 0
        assert capsys.readouterr().out == first


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", "x", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "exit codes" in help_text
        for code in ("2 ", "3 ", "4 ", "5 "):
            assert code in help_text

    def test_missing_model_file_is_an_io_error(self, tmp_path, capsys):
        rc = main(["evaluate", "--model", str(tmp_path / "nope.rcm"),
                   "--data", str(tmp_path)])
        assert rc == 5
        capsys.readouterr()
