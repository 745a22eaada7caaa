import datetime as dt
import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

import riskcast
from riskcast import (
    DropoutSpec,
    PipelineConfig,
    SchemaError,
    SentimentLexicon,
    SynthConfig,
    TrainConfig,
    build_samples,
    chronological_split,
    default_lexicon,
    load_bundle,
    load_lexicon,
    load_model,
)
from conftest import allow_cpus, assert_no_child_left, count_forks
from riskcast import cli, synth, training
from riskcast.cli import main
from riskcast.errors import InsufficientHistoryError
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
    linear = tmp_path / "linear.rcm"
    assert main(["train", "--data", str(data_dir), "--out", str(linear),
                 "--baseline", "linreg"]) == 0
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

    def test_price_path_out_of_float_range_exits_4_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen-data", "--days", "200", "--base-vol", "1e300", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "riskcast: error: base_vol 1e+300 drives the price path out of the float range "
            "(a zero or infinite price)\n")
        assert not out.exists()

    def test_out_naming_a_file_is_an_io_error_before_generating(self, tmp_path, monkeypatch,
                                                                capsys):
        def unreachable(cfg, directory=None):
            raise AssertionError("data generated before --out was checked")

        monkeypatch.setattr(cli, "synth_generate", unreachable)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(["gen-data", "--days", "200", "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"riskcast: error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "keep\n"


# SHA-256 of every file that ``gen-data --seed 7`` writes, pinned so that a
# change to how the streams are drawn and written cannot move a byte.
PARENT_DIGESTS = {
    2000: {
        "market.csv": "66e21742f7f4a898faa7e53758fb18dea05a392bb4a463568c66a2ef541d6e08",
        "financial.csv": "9b48908d36deeb3deeb8e9b458e42b71872420c5461a41a564f27866067fd516",
        "macro.csv": "a324f957a55e57adb1c87e5974549b39be350a02466dfc8399ab2a7babbb5219",
        "news.csv": "4092e65fe63944243a8aab3a399fd34273f9d6f2b19e6fbdb6a450fec49bc6d4",
        "policy.csv": "1292f608e77207785bf4031f548e61d3fec3452670ea5909cbab28452cce4317",
        "manifest.json": "9301678e4132ade9847d4be300fe0c66a9b3f4a8448462f5a522f8e5447b92ea",
    },
    20000: {
        "market.csv": "feebee636d3db57e4f1624f1b5dcc89ecc85c578c95909e1a8c868af074d5cfc",
        "financial.csv": "27d8d7196ac62eb1f1a57f94f905602e3fe1de8eb07c1945a3398832fbe93d93",
        "macro.csv": "750c981bdd0319b2e175d635e5ac130d85db6f7cd70af0ca794bf2a1f3e7cbe9",
        "news.csv": "c332e28ab359fe7919f3e4ab55668b9a0c20cfcf49d9def2f2a9fdba11f3874f",
        "policy.csv": "f2d100ea31ffcaed3eeafb759f12be290cbfbab8968395db750fbd8184533cbe",
        "manifest.json": "9d18db6734a5ba9f549baee5898f90f365408ae085bcedb887d4942b25fbd905",
    },
}


def _digests(out) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in DATA_FILES + ["manifest.json"]}


class TestGenDataOnePass:
    """gen-data draws every stream, composes the news texts chunk by chunk
    and writes every file in the calling process."""

    @pytest.mark.parametrize("days", [2000, 20000])
    def test_files_match_the_pinned_digests(self, tmp_path, days):
        assert _digests(_gen(tmp_path, days=days, seed=7)) == PARENT_DIGESTS[days]

    def test_forks_nothing_with_two_cpus(self, tmp_path, monkeypatch):
        allow_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        _gen(tmp_path, days=20000, seed=7)
        assert forks == []
        assert_no_child_left()

    def test_a_failing_news_write_exits_5(self, tmp_path, capsys):
        out = tmp_path / "data"
        (out / "news.csv").mkdir(parents=True)
        assert main(["gen-data", "--days", "2000", "--seed", "7", "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"riskcast: error: [Errno 21] Is a directory: '{out / 'news.csv'}'\n")
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ["market.csv", "financial.csv", "macro.csv", "news.csv", "policy.csv"])

    def test_a_failing_composition_exits_5_and_writes_nothing(self, tmp_path, monkeypatch,
                                                              capsys):
        """The news texts are composed before the first file is written."""
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(synth, "_compose_news", full_disk)
        out = tmp_path / "data"
        assert main(["gen-data", "--days", "2000", "--seed", "7", "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"riskcast: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert not out.exists()

    def test_a_composition_failing_in_the_last_chunk_writes_nothing(self, tmp_path,
                                                                  monkeypatch, capsys):
        """Every chunk of news is composed before the first file is written:
        2,000 days are four chunks, and the fourth one fails."""
        calls, real_compose = [], synth._compose_news

        def compose(*args):
            calls.append(args)
            if len(calls) == 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_compose(*args)

        monkeypatch.setattr(synth, "_compose_news", compose)
        out = tmp_path / "data"
        assert main(["gen-data", "--days", "2000", "--seed", "7", "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"riskcast: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert len(calls) == 4
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

    GRID_FLAGS = ["--epochs", "2", "--patience", "2", "--seed", "6",
                  "--grid", "lr=0.001,0.01", "hidden=4,6"]

    def test_grid_outputs_do_not_depend_on_the_worker_count(self, workspace, tmp_path,
                                                             monkeypatch, capsys):
        """The model file, epoch log and stdout of ``--grid`` are
        byte-identical when its points are fitted by one process or two."""
        _, data_dir, _, _ = workspace
        outputs = []
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            forks = count_forks(monkeypatch)
            out = tmp_path / f"grid{cpus}" / "grid.rcm"
            out.parent.mkdir()
            assert main(["train", "--data", str(data_dir), "--out", str(out),
                         *self.GRID_FLAGS]) == 0
            assert len(forks) == cpus - 1
            assert_no_child_left()
            outputs.append((out.read_bytes(), (out.parent / "grid.rcm.log.csv").read_bytes(),
                            capsys.readouterr().out.replace(str(out.parent), "DIR")))
        assert outputs[0] == outputs[1]

    def test_grid_outputs_match_with_a_live_blas_pool(self, workspace, tmp_path):
        """As above, in new processes under ``OPENBLAS_NUM_THREADS=2``, where
        the fork meets a live BLAS thread pool."""
        _, data_dir, _, _ = workspace
        script = ("import os, sys\n"
                  "cpus = int(sys.argv[1])\n"
                  "os.sched_getaffinity = lambda pid: set(range(cpus))\n"
                  "real_fork = os.fork\n"
                  "def fork():\n"
                  "    print('forked', file=sys.stderr)\n"
                  "    return real_fork()\n"
                  "os.fork = fork\n"
                  "from riskcast.cli import main\n"
                  "sys.exit(main(sys.argv[2:]))\n")
        package_root = os.path.dirname(os.path.dirname(riskcast.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        outputs = []
        for cpus in (1, 2):
            out = tmp_path / f"grid{cpus}" / "grid.rcm"
            out.parent.mkdir()
            proc = subprocess.run([sys.executable, "-c", script, str(cpus), "train", "--data",
                                   str(data_dir), "--out", str(out), *self.GRID_FLAGS],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == "forked\n" * (cpus - 1)
            outputs.append((out.read_bytes(), (out.parent / "grid.rcm.log.csv").read_bytes(),
                            proc.stdout.replace(str(out.parent), "DIR")))
        assert outputs[0] == outputs[1]

    def test_a_killed_grid_worker_is_an_io_error_and_writes_nothing(self, workspace, tmp_path,
                                                                   monkeypatch, capsys):
        """A grid point's process killed from outside (here by itself, as the
        OOM killer would) exits 5 with one error line."""
        _, data_dir, _, _ = workspace
        allow_cpus(monkeypatch, 2)
        caller, real_fit = os.getpid(), training.fit

        def fit(*args, **kwargs):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(training, "fit", fit)
        out = tmp_path / "grid" / "grid.rcm"
        out.parent.mkdir()
        assert main(["train", "--data", str(data_dir), "--out", str(out),
                     *self.GRID_FLAGS]) == 5
        captured = capsys.readouterr()
        assert re.fullmatch(r"riskcast: error: worker process \d+ ended without sending "
                            r"a result\n", captured.err)
        assert list(out.parent.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.parametrize("extra", [(), ("--grid", "lr=1e300,1e299")], ids=["plain", "grid"])
    def test_diverged_training_is_a_numerical_error_and_writes_nothing(
            self, workspace, tmp_path, capsys, extra):
        _, data_dir, _, _ = workspace
        out = tmp_path / "diverged.rcm"
        rc = main(["train", "--data", str(data_dir), "--out", str(out), "--lr", "1e300",
                   "--epochs", "2", "--hidden", "4", *extra])
        assert rc == 4
        assert capsys.readouterr().err == (
            "riskcast: error: training diverged: no epoch of 2 reached a finite validation mse\n")
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
        out = tmp_path / "short_preds.csv"
        rc, err = _quiet_main(["predict", "--model", str(hybrid),
                               "--data", str(_short_history(data_dir, tmp_path)),
                               "--out", str(out)], capsys)
        assert rc == 0
        assert out.read_text() == "date,risk_score\n"
        assert len(err) == 1
        assert err[0].startswith("riskcast: warning: no admissible prediction windows (")

    def test_evaluate_on_a_too_short_history_prints_one_error(self, workspace, tmp_path,
                                                               capsys):
        _, data_dir, hybrid, _ = workspace
        rc, err = _quiet_main(["evaluate", "--model", str(hybrid),
                               "--data", str(_short_history(data_dir, tmp_path))], capsys)
        assert rc == 3
        assert len(err) == 1
        assert err[0].startswith("riskcast: error: ")


def _quiet_main(argv, capsys) -> tuple[int, list[str]]:
    """``main(argv)``'s exit code and stderr lines with every warning shown,
    after checking that no Python warning escaped it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert [str(w.message) for w in caught] == []
    return rc, capsys.readouterr().err.splitlines()


def _short_history(data_dir, tmp_path):
    """A copy of the data files cut after the 30th market day."""
    short_dir = tmp_path / "short"
    short_dir.mkdir()
    market_lines = (data_dir / "market.csv").read_text().splitlines()[:31]
    cutoff = market_lines[-1].split(",")[0]
    for name in DATA_FILES:
        lines = (data_dir / name).read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] <= cutoff]
        (short_dir / name).write_text("\n".join(kept) + "\n")
    return short_dir


def _reversed_market(data_dir, tmp_path):
    """A copy of the data files with the market rows in reverse date order."""
    reversed_dir = tmp_path / "reversed"
    reversed_dir.mkdir()
    for name in DATA_FILES:
        lines = (data_dir / name).read_text().splitlines(keepends=True)
        if name == "market.csv":
            lines = lines[:1] + lines[:0:-1]
        (reversed_dir / name).write_text("".join(lines))
    return reversed_dir


class TestWarnings:
    def test_market_rows_out_of_order_print_one_warning_line(self, workspace, tmp_path,
                                                             capsys):
        """The rows load sorted: the model is the sorted file's, byte for byte."""
        _, data_dir, _, _ = workspace
        reversed_dir = _reversed_market(data_dir, tmp_path)
        models, errs = [], []
        for data in (data_dir, reversed_dir):
            models.append(tmp_path / f"{data.name}.rcm")
            rc, err = _quiet_main(["train", "--data", str(data), "--baseline", "linreg",
                                   "--out", str(models[-1])], capsys)
            assert rc == 0
            errs.append(err)
        assert errs == [[], [f"riskcast: warning: {reversed_dir / 'market.csv'}: "
                             "rows are out of date order; loading sorted"]]
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_data_warning_raised_as_an_error_exits_3(self, workspace, tmp_path, capsys):
        """Under ``python -W error`` the warning is one error line, not a
        traceback, and nothing is written."""
        _, data_dir, _, _ = workspace
        reversed_dir = _reversed_market(data_dir, tmp_path)
        model = tmp_path / "model.rcm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--data", str(reversed_dir), "--baseline", "linreg",
                       "--out", str(model)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            f"riskcast: error: {reversed_dir / 'market.csv'}: "
            "rows are out of date order; loading sorted"]
        assert not model.exists()
        assert not (tmp_path / "model.rcm.log.csv").exists()

    def test_numpy_runtime_warning_raised_as_an_error_exits_4(self, monkeypatch, capsys):
        def divides_by_zero(args):
            return int(np.log(np.zeros(1))[0])

        monkeypatch.setattr(cli, "cmd_gradcheck", divides_by_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gradcheck"]) == 4
        assert capsys.readouterr().err == "riskcast: error: divide by zero encountered in log\n"


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


class TestOutputPaths:
    """An output file whose directory does not exist, or an output path that
    is an existing directory, is an I/O error (exit 5) raised before the model
    or any data is read, so nothing is written."""

    @pytest.fixture(autouse=True)
    def no_reads(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("input read before the output paths were checked")

        monkeypatch.setattr(cli, "load_bundle", unreachable)
        monkeypatch.setattr(cli, "load_model", unreachable)

    @staticmethod
    def _bad_outputs(tmp_path):
        """Each refused output path, with the message that names it."""
        directory = tmp_path / "dir"
        directory.mkdir()
        return [(tmp_path / "missing" / "file",
                 f"output directory does not exist: '{tmp_path / 'missing'}'"),
                (directory, f"output path is a directory: '{directory}'")]

    @staticmethod
    def _assert_rejected(rc, capsys, tmp_path, message):
        assert rc == 5
        assert message in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize("target", ["--out", "--log"])
    def test_train(self, workspace, tmp_path, capsys, target):
        _, data_dir, _, _ = workspace
        for bad, message in self._bad_outputs(tmp_path):
            paths = {"--out": tmp_path / "m.rcm", "--log": tmp_path / "m.log.csv"}
            paths[target] = bad
            rc = main(["train", "--data", str(data_dir), "--epochs", "2",
                       "--out", str(paths["--out"]), "--log", str(paths["--log"])])
            self._assert_rejected(rc, capsys, tmp_path, message)

    def test_predict(self, workspace, tmp_path, capsys):
        _, data_dir, hybrid, _ = workspace
        for bad, message in self._bad_outputs(tmp_path):
            rc = main(["predict", "--model", str(hybrid), "--data", str(data_dir),
                       "--out", str(bad)])
            self._assert_rejected(rc, capsys, tmp_path, message)

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_metrics_csv(self, workspace, tmp_path, capsys, command):
        _, data_dir, hybrid, linear = workspace
        models = (["--model", str(hybrid)] if command == "evaluate"
                  else [str(hybrid), str(linear)])
        for bad, message in self._bad_outputs(tmp_path):
            rc = main([command, *models, "--data", str(data_dir), "--csv", str(bad)])
            self._assert_rejected(rc, capsys, tmp_path, message)


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


def _add_column(name):
    """A column ``name`` of ``1.0`` appended to every line of a numeric CSV."""
    def edit(text):
        lines = text.splitlines()
        return "\n".join([lines[0] + f",{name}"] + [line + ",1.0" for line in lines[1:]]) + "\n"
    return edit


def _first_category(category):
    """The first policy event's category replaced by ``category``."""
    def edit(text):
        lines = text.split("\n")
        lines[1] = lines[1].split(",")[0] + "," + category
        return "\n".join(lines)
    return edit


_ALL_COMMANDS = ("train", "predict", "evaluate")
_UNKNOWN_TO_THE_MODEL = ("policy.csv: unknown category {!r} on {}, which is missing "
                         "from the model's policy vocabulary "
                         "['rate_cut', 'rate_hike', 'regulation_tightening']")
# (id, commands, file, edit, message).  A model's recipe reads no extra
# column, so "my col" is a fault only where the recipe is made: at train.
_NAME_FAULTS = [
    ("market-repeats-close", _ALL_COMMANDS, "market.csv", _add_column("close"),
     "market.csv: header repeats column names ['close']"),
    ("financial-repeats-profit", _ALL_COMMANDS, "financial.csv", _add_column("profit"),
     "financial.csv: header repeats column names ['profit']"),
    ("financial-close", _ALL_COMMANDS, "financial.csv", _add_column("close"),
     "duplicate column name across sources: 'close'"),
    ("macro-pos", _ALL_COMMANDS, "macro.csv", _add_column("pos"),
     "duplicate column name across sources: 'pos'"),
    ("macro-profit", _ALL_COMMANDS, "macro.csv", _add_column("profit"),
     "duplicate column names in merge: ['profit']"),
    ("financial-my-col", ("train",), "financial.csv", _add_column("my col"),
     "column names must be nonempty and whitespace-free: 'my col'"),
    ("category-rate-cut", ("train",), "policy.csv", _first_category("rate cut"),
     "column names must be nonempty and whitespace-free: 'rate cut'"),
    ("category-rate-cut", ("predict", "evaluate"), "policy.csv", _first_category("rate cut"),
     _UNKNOWN_TO_THE_MODEL.format("rate cut", "2015-05-20")),
    ("category-omega", ("predict", "evaluate"), "policy.csv", _first_category("omega"),
     _UNKNOWN_TO_THE_MODEL.format("omega", "2015-05-20")),
]


class TestDataNameFaults:
    """A data file that repeats a column name, names a column like a derived
    or another file's column, or holds a name or category the run cannot use
    is a data error (exit 3) naming the column or category; nothing is
    written."""

    @pytest.mark.parametrize("command, name, edit, message", [
        pytest.param(command, name, edit, message, id=f"{case}-{command}")
        for case, commands, name, edit, message in _NAME_FAULTS for command in commands])
    def test_exits_3_naming_it(self, workspace, tmp_path, capsys, command, name, edit,
                               message):
        _, data_dir, _, linear = workspace
        bad = tmp_path / "bad"
        bad.mkdir()
        for data_file in DATA_FILES:
            (bad / data_file).write_bytes((data_dir / data_file).read_bytes())
        (bad / name).write_text(edit((data_dir / name).read_text()))
        out = tmp_path / "out.csv"
        if command == "evaluate":
            rc = main(["evaluate", "--model", str(linear), "--data", str(bad), "--csv", str(out)])
        else:
            rc = _predict_or_train(command, linear, bad, out)
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_category_on_a_saturday_exits_3(self, workspace, tmp_path, capsys):
        """Every event's category is checked, also one dated on no market day."""
        _, data_dir, _, linear = workspace
        bad = tmp_path / "bad"
        bad.mkdir()
        for data_file in DATA_FILES:
            (bad / data_file).write_bytes((data_dir / data_file).read_bytes())
        first = dt.date.fromisoformat((data_dir / "market.csv").read_text().split("\n")[1][:10])
        saturday = first + dt.timedelta(days=5 - first.weekday())
        with open(bad / "policy.csv", "a", encoding="utf-8") as handle:
            handle.write(f"{saturday},omega\n")
        out = tmp_path / "out.csv"
        assert _predict_or_train("predict", linear, bad, out) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"riskcast: error: {_UNKNOWN_TO_THE_MODEL.format('omega', saturday)}"]
        assert not out.exists()


def _param_span(lines, name) -> slice:
    """The lines of parameter ``name``: its ``param`` header and its values."""
    start = next(k for k, line in enumerate(lines) if line.split()[:2] == ["param", name])
    stop = next(k for k in range(start + 1, len(lines))
                if lines[k].split()[0] in ("param", "end"))
    return slice(start, stop)


def _set_header(name, header):
    def edit(lines):
        lines[_param_span(lines, name).start] = header
    return edit


def _set_values(name, values):
    """Replace parameter ``name``'s value lines by one line of ``values``, or
    drop its whole block when ``values`` is None."""
    def edit(lines):
        span = _param_span(lines, name)
        block = [] if values is None else [lines[span.start], " ".join(values)]
        lines[span] = block
    return edit


def _first_line(lines, key, start=0) -> int:
    """The index of the first line from ``start`` on whose first token is ``key``."""
    return next(k for k in range(start, len(lines)) if lines[k].split()[:1] == [key])


def _set_line(key, line):
    """Replace the first line whose first token is ``key`` by ``line``."""
    def edit(lines):
        lines[_first_line(lines, key)] = line
    return edit


def _set_recipe_line(key, line):
    """Replace the first line of the recipe block whose first token is ``key``
    by ``line``."""
    def edit(lines):
        lines[_first_line(lines, key, lines.index("preprocess begin"))] = line
    return edit


def _drop_line(key):
    """Delete the first line whose first token is ``key``."""
    def edit(lines):
        del lines[_first_line(lines, key)]
    return edit


def _set_first_value(name, token):
    def edit(lines):
        row = _param_span(lines, name).start + 1
        lines[row] = " ".join([token, *lines[row].split()[1:]])
    return edit


class TestMalformedModelFile:
    """A model file whose headers, recipe or parameter blocks do not parse,
    that holds a non-finite parameter, or that describes a model that cannot
    be built, is a model-file error (exit 5) naming the file; nothing is
    written."""

    @staticmethod
    def _assert_refused(workspace, tmp_path, capsys, which, edit, message=""):
        """``edit`` the lines of the ``which`` model into a new file, which
        ``evaluate`` must refuse with exit 5, naming it, and write nothing."""
        _, data_dir, hybrid, linear = workspace
        lines = (hybrid if which == "hybrid" else linear).read_text().splitlines()
        edit(lines)
        bad, out = tmp_path / "bad.rcm", tmp_path / "metrics.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--model", str(bad), "--data", str(data_dir), "--csv", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert f"riskcast: error: {bad}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("which, key, position, token", [
        ("hybrid", "window", 1, "abc"),
        ("linear", "ridge_lambda", 1, "x"),
        ("hybrid", "stats", 2, "zz"),
        ("hybrid", "f_sentiment", 1, "0"),
        ("hybrid", "hidden_size", 1, "3"),
        ("hybrid", "dropout_p", 1, "1.5"),
        ("hybrid", "kind", 1, "forest"),
        ("linear", "n_features", 1, "3"),
    ], ids=["window-abc", "ridge-x", "stats-zz", "f_sentiment-0", "hidden-size-mismatch",
            "dropout-1.5", "kind-forest", "n-features-mismatch"])
    def test_evaluate_exits_5(self, workspace, tmp_path, capsys, which, key, position, token):
        def edit(lines):
            row = _first_line(lines, key)
            fields = lines[row].split()
            fields[position] = token
            lines[row] = " ".join(fields)

        self._assert_refused(workspace, tmp_path, capsys, which, edit)

    @pytest.mark.parametrize("which, edit, message", [
        ("hybrid", _set_first_value("lstm.w_h", "nan"),
         "parameter 'lstm.w_h' holds the non-finite value nan"),
        ("hybrid", _set_first_value("head.w", "inf"),
         "parameter 'head.w' holds the non-finite value inf"),
        ("linear", _set_first_value("weights", "nan"),
         "parameter 'weights' holds the non-finite value nan"),
        ("linear", _set_first_value("weights", "-inf"),
         "parameter 'weights' holds the non-finite value -inf"),
        ("hybrid", lambda lines: lines.remove("end"), "truncated file: missing end marker"),
        ("linear", lambda lines: lines.remove("preprocess end"),
         "truncated inside the preprocess block"),
        ("hybrid", _set_header("conv.bias", "param conv.bias 2 8"),
         "malformed param header 'param conv.bias 2 8'"),
        ("hybrid", _set_header("conv.bias", "param conv.bias 1 x"),
         "malformed param header 'param conv.bias 1 x'"),
        ("linear", _set_values("bias", []), "parameter 'bias' is truncated: it has 0 of 1 values"),
        ("hybrid", _set_values("conv.bias", ["0.5"] * 7),
         "parameter 'conv.bias' is truncated: it has 7 of 8 values"),
        ("hybrid", _set_values("head.b", ["0.5", "0.5"]),
         "parameter 'head.b' has 2 values, expected 1"),
        ("linear", _set_first_value("weights", "0.1x"), "bad value in parameter 'weights'"),
        ("hybrid", _set_values("lstm.b", None), "missing header or parameter 'lstm.b'"),
        ("linear", _set_header("bias", "param bias 2 1 1"),
         "a linear model needs weights ["),
        ("linear", _set_line("window", "window 0"),
         "bad preprocess block: window and horizon must be >= 1, got 0, 5"),
        ("linear", _set_line("horizon", "horizon -3"),
         "bad preprocess block: window and horizon must be >= 1, got 20, -3"),
        ("hybrid", _set_line("split", "split 0.5 0.5 0.5"),
         "bad preprocess block: split fractions must sum to 1, got 1.5"),
        ("hybrid", _set_line("stats", "stats close nan 1.0 0"),
         "bad preprocess block: column 'close' has unusable statistics: mean nan, std 1.0"),
        ("linear", _set_line("stats", "stats close 1.0 0.0 0"),
         "bad preprocess block: column 'close' has unusable statistics: mean 1.0, std 0.0"),
        ("linear", _set_line("y_range", "y_range 0.001 inf"),
         "bad preprocess block: target range is degenerate: min 0.001, max inf"),
        ("hybrid", _set_line("y_range", "y_range 0.09 0.01"),
         "bad preprocess block: target range is degenerate: min 0.09, max 0.01"),
        ("linear", _set_line("ridge_lambda", "ridge_lambda nan"),
         "ridge_lambda must be finite and >= 0, got nan"),
        ("linear", _set_line("ridge_lambda", "ridge_lambda -1"),
         "ridge_lambda must be finite and >= 0, got -1.0"),
        ("hybrid", _set_line("stats", "stats"), "malformed stats line: 'stats'"),
        ("linear", _drop_line("stats"),
         "bad preprocess block: statistics cover columns ['ma5', "),
        ("hybrid", _set_recipe_line("window", "window 10"),
         "the recipe gives the window and widths (10, 7, 3, "),
        ("linear", _set_recipe_line("window", "window 10"),
         "the recipe gives the feature count "),
        ("linear", _set_recipe_line("policy_vocab",
                                    "policy_vocab rate_cut rate_cut regulation_tightening"),
         "bad preprocess block: static columns and policy vocabulary repeat ['rate_cut']"),
    ], ids=["hybrid-nan", "hybrid-inf", "linear-nan", "linear-minus-inf", "missing-end",
            "truncated-preprocess", "header-ndim-mismatch", "header-dim-x", "too-few-values",
            "too-few-values-mid-file", "too-many-values", "non-numeric-value",
            "missing-parameter", "bias-shape-2", "window-0", "horizon-minus-3",
            "split-sum-1.5", "stats-mean-nan", "stats-std-0", "y-range-inf", "y-range-max-below-min",
            "ridge-nan", "ridge-minus-1", "stats-bare", "stats-line-deleted",
            "recipe-window-10", "linear-recipe-window-10", "policy-vocab-duplicate"])
    def test_reader_error_exits_5(self, workspace, tmp_path, capsys, which, edit, message):
        self._assert_refused(workspace, tmp_path, capsys, which, edit, message)


class TestInputNotUtf8:
    """An input file holding a byte that is not UTF-8 is refused at its file
    and the line of that byte, and nothing is written: a data CSV or a
    lexicon is a data error (exit 3), a model file a model-file error (exit 5)."""

    @staticmethod
    def _run(command, data_dir, model, out, extra=()):
        if command == "train":
            args = ["train", "--out", str(out), "--baseline", "linreg"]
        elif command == "predict":
            args = ["predict", "--model", str(model), "--out", str(out)]
        else:
            args = ["evaluate", "--model", str(model), "--csv", str(out)]
        return main([*args, "--data", str(data_dir), *extra])

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    @pytest.mark.parametrize("name, row, line", [
        ("market.csv", 40, b"2015-03-02,99.5,100.0\xe9,1000.0"),
        ("news.csv", 60, b"2015-03-02,caf\xe9 gain"),
        ("news.csv", 60, b'2015-03-02,"caf\xe9, gain"'),
    ], ids=["market", "news-split", "news-quoted"])
    def test_data_file_exits_3(self, workspace, tmp_path, capsys, command, name, row, line):
        _, data_dir, _, linear = workspace
        bad = tmp_path / "bad"
        bad.mkdir()
        for file in DATA_FILES:
            (bad / file).write_bytes((data_dir / file).read_bytes())
        lines = (bad / name).read_bytes().split(b"\n")
        lines[row] = line
        (bad / name).write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        assert self._run(command, bad, linear, out) == 3
        assert (f"riskcast: error: {bad / name}:{row + 1}: not UTF-8: byte 0xe9 "
                f"(invalid continuation byte)") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "compare"])
    def test_model_file_exits_5(self, workspace, tmp_path, capsys, command):
        _, data_dir, hybrid, linear = workspace
        lines = linear.read_bytes().split(b"\n")
        row = next(k for k, ln in enumerate(lines) if ln.startswith(b"param weights")) + 1
        lines[row] = b"\xff" + lines[row]
        bad, out = tmp_path / "bad.rcm", tmp_path / "out.csv"
        bad.write_bytes(b"\n".join(lines))
        if command == "compare":
            rc = main(["compare", str(hybrid), str(bad), "--data", str(data_dir),
                       "--csv", str(out)])
        else:
            rc = self._run(command, data_dir, bad, out)
        assert rc == 5
        assert (f"riskcast: error: {bad}:{row + 1}: not UTF-8: byte 0xff "
                f"(invalid start byte)") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_lexicon_file_exits_3(self, workspace, tmp_path, capsys, command):
        _, data_dir, _, linear = workspace
        lexicon, out = tmp_path / "lexicon.txt", tmp_path / "out"
        lexicon.write_bytes(b"[positive]\r\nrally\r\n\r\n[negative]\r\ncrash\r\nd\xe9ficit\r\n")
        assert self._run(command, data_dir, linear, out, ["--lexicon", str(lexicon)]) == 3
        assert f"riskcast: error: {lexicon}:6: not UTF-8: byte 0xe9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_lexicon_lines_end_at_lf_cr_or_crlf(self, tmp_path, end):
        """Lexicon lines are counted the same with every line end, for a
        section fault and for a decode fault alike."""
        lines = ["# terms", "[positive]", "rally", "", "[negative]", "crash"]
        path = tmp_path / "lexicon.txt"
        path.write_bytes(end.join(lines).encode() + end.encode())
        assert load_lexicon(path) == SentimentLexicon(frozenset({"rally"}), frozenset({"crash"}))
        path.write_bytes(end.join([*lines, "[neutral]"]).encode())
        with pytest.raises(SchemaError, match=rf"^{path}:7: unknown lexicon section \[neutral\]$"):
            load_lexicon(path)
        path.write_bytes(end.encode().join([*map(str.encode, lines), b"sl\xfcmp"]))
        with pytest.raises(SchemaError, match=rf"^{path}:7: not UTF-8: byte 0xfc "
                                              rf"\(invalid start byte\)$"):
            load_lexicon(path)

    def test_lexicon_term_under_both_sections_exits_3_at_its_line(self, workspace, tmp_path,
                                                                   capsys):
        """A term listed under both sections, in any case, is a schema error
        at the line of its second listing, not a usage error naming no file."""
        _, data_dir, _, _ = workspace
        path, out = tmp_path / "lexicon.txt", tmp_path / "out.rcm"
        path.write_text("[positive]\nrally\n[negative]\ncrash\nRally\n")
        with pytest.raises(SchemaError, match=rf"^{path}:5: term 'Rally' is also under "
                                              rf"\[positive\]; the sections must be disjoint$"):
            load_lexicon(path)
        assert self._run("train", data_dir, None, out, ["--lexicon", str(path)]) == 3
        assert capsys.readouterr().err == (f"riskcast: error: {path}:5: term 'Rally' is also "
                                           "under [positive]; the sections must be disjoint\n")
        assert not out.exists()

    @pytest.mark.parametrize("term", ["profit-taking", "new high", "Überrally"])
    def test_lexicon_term_that_is_not_one_token_is_refused_at_its_line(self, tmp_path, term):
        """Texts are split into runs of ASCII ``[a-z0-9]``, so any other term
        could never count."""
        path = tmp_path / "lexicon.txt"
        path.write_text(f"[positive]\nrally\n[negative]\n{term}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=rf"^{path}:4: term {term!r} is not one token "):
            load_lexicon(path)


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

    def test_identical_model_files_tie(self, workspace, tmp_path, capsys):
        _, data_dir, hybrid, _ = workspace
        copy = tmp_path / "copy.rcm"
        copy.write_bytes(hybrid.read_bytes())
        rc = main(["compare", str(hybrid), str(copy), "--data", str(data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count(": tie") == 3

    @pytest.mark.parametrize("second", ["{model}", "{dir}/./{name}", "{dir}/../{parent}/{name}",
                                        "{link}"], ids=["same", "dot", "dotdot", "symlink"])
    def test_same_model_file_twice_is_a_parameter_error_before_any_read(
            self, workspace, tmp_path, monkeypatch, capsys, second):
        """Comparing a model file with itself is a usage error: it would
        only ever print a tie.  Two files with the same bytes still compare."""
        _, data_dir, hybrid, _ = workspace

        def unreachable(*args):
            raise AssertionError("input read before the model paths were checked")

        monkeypatch.setattr(cli, "load_bundle", unreachable)
        monkeypatch.setattr(cli, "load_model", unreachable)
        link = tmp_path / "link.rcm"
        link.symlink_to(hybrid)
        other = second.format(model=hybrid, dir=hybrid.parent, name=hybrid.name,
                              parent=hybrid.parent.name, link=link)
        for data in (data_dir, tmp_path / "missing"):
            rc = main(["compare", str(hybrid), other, "--data", str(data),
                       "--csv", str(tmp_path / "cmp.csv")])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"riskcast: error: {hybrid} and {other} are the same model file; "
                "compare needs two models\n")
        assert list(tmp_path.iterdir()) == [link]

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
                grads = backward(self, cache, dscore)
                grads[name] = grads[name] + 0.05
                return grads

            monkeypatch.setattr(HybridModel, "backward", broken)
            assert main(["gradcheck", "--seed", "11"]) == 4, name
        capsys.readouterr()

    def test_same_seed_prints_identical_error(self, capsys):
        assert main(["gradcheck", "--seed", "12"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--seed", "12"]) == 0
        assert capsys.readouterr().out == first


class TestUsage:
    @pytest.mark.parametrize("argv, cls, given", [
        (["gen-data", "--out", "d"], SynthConfig, {}),
        (["gen-data", "--out", "d", "--days", "300", "--seed", "7", "--base-vol", "0.02",
          "--regime-prob", "0.1", "--kappa", "0", "--no-nonlinear"], SynthConfig,
         {"n_days": 300, "seed": 7, "base_vol": 0.02, "regime_shift_prob": 0.1, "kappa": 0.0,
          "nonlinearity": False}),
        (["train", "--data", "d", "--out", "m"], TrainConfig, {}),
        (["train", "--data", "d", "--out", "m", "--lr", "0.01", "--epochs", "3",
          "--batch-size", "8", "--patience", "2", "--seed", "9"], TrainConfig,
         {"learning_rate": 0.01, "max_epochs": 3, "batch_size": 8, "patience": 2, "seed": 9}),
        (["train", "--data", "d", "--out", "m"], PipelineConfig, {}),
        (["train", "--data", "d", "--out", "m", "--window", "10", "--horizon", "3"],
         PipelineConfig, {"window": 10, "horizon": 3}),
        (["train", "--data", "d", "--out", "m"], DropoutSpec, {}),
        (["train", "--data", "d", "--out", "m", "--dropout", "0.5"], DropoutSpec, {"p": 0.5}),
    ], ids=["synth-defaults", "synth-flags", "train-defaults", "train-flags",
            "pipeline-defaults", "pipeline-flags", "dropout-default", "dropout-flag"])
    def test_configs_take_given_flags_and_their_own_defaults(self, argv, cls, given):
        args = cli.build_parser().parse_args(argv)
        assert cli._config(cls, args) == cls(**given)

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

    # Each error class, the exit code that --help lists for it, and the words
    # of that code's line in --help that name it.
    EXIT_CODES = {
        riskcast.ParameterError: (2, "invalid parameter values"),
        riskcast.DataError: (3, "data or schema errors"),
        riskcast.SchemaError: (3, "malformed CSV"),
        InsufficientHistoryError: (3, "data or schema errors"),
        riskcast.DimensionError: (3, "shape mismatches"),
        riskcast.NumericalError: (4, "numerical failures"),
        riskcast.ModelIOError: (5, "model-file errors"),
        OSError: (5, "file I/O"),
        ChildProcessError: (5, "a worker process that died"),
    }

    def test_every_error_class_has_an_exit_code(self):
        classes, todo = set(), [riskcast.RiskcastError]
        while todo:
            subclasses = todo.pop().__subclasses__()
            classes.update(subclasses)
            todo += subclasses
        assert classes == set(self.EXIT_CODES) - {OSError, ChildProcessError}

    @pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
    def test_each_error_class_exits_with_its_documented_code(self, monkeypatch, capsys, cls):
        code, words = self.EXIT_CODES[cls]
        listed = [line for line in cli._EPILOG.splitlines() if line.startswith(f"  {code}  ")]
        assert len(listed) == 1 and words in listed[0]

        def fails(args):
            raise cls("the fault")

        monkeypatch.setattr(cli, "cmd_gradcheck", fails)
        assert main(["gradcheck"]) == code
        assert capsys.readouterr().err == "riskcast: error: the fault\n"

    def test_missing_model_file_is_an_io_error(self, tmp_path, capsys):
        rc = main(["evaluate", "--model", str(tmp_path / "nope.rcm"),
                   "--data", str(tmp_path)])
        assert rc == 5
        capsys.readouterr()
