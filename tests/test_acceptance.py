"""Acceptance suite: the eight release criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).  The
benchmark criteria (3, 4) pin a full protocol: the seed-7 synthetic dataset
and a fixed training configuration, so every run reproduces the same
numbers.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import datetime as dt
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import riskcast
from conftest import linreg_objective
from riskcast import (
    HybridModel,
    ModelDims,
    PipelineConfig,
    SampleSet,
    SeededRng,
    SplitSpec,
    SynthConfig,
    TimeSeriesFrame,
    TrainConfig,
    apply_standardize,
    build_windows,
    compute_accuracy,
    compute_mse,
    compute_r2,
    default_lexicon,
    fit,
    fit_standardize,
    gradient_check,
    linreg_fit,
    make_datasets,
    moving_average,
    one_hot_encode,
    synth_generate,
)
from riskcast.frames import day_numbers
from riskcast.models import LinearRegressionModel, prediction_scores
from riskcast.tensor import derive_seed
from riskcast.training import validation_mse

# Pinned benchmark protocol.
BENCH_DAYS = 2000
BENCH_SEED = 7
BENCH_HIDDEN = 32
BENCH_TRAIN = dict(learning_rate=3e-3, max_epochs=80, batch_size=32,
                   patience=10, seed=BENCH_SEED)
BENCH_DROPOUT = 0.2


def _criterion(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {label}: {status}  {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def _run_pipeline(kappa: float):
    timings = {}
    t0 = time.perf_counter()
    bundle = synth_generate(SynthConfig(n_days=BENCH_DAYS, seed=BENCH_SEED,
                                        kappa=kappa, nonlinearity=True))
    train, val, test, pre = make_datasets(bundle, default_lexicon(),
                                          PipelineConfig(), SplitSpec())
    timings["data"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dims = ModelDims(window=pre.window, f_market=len(pre.market_cols),
                     f_sentiment=len(pre.sentiment_cols),
                     f_static=len(pre.static_all), hidden_size=BENCH_HIDDEN)
    model = HybridModel.initialize(dims, seed=BENCH_SEED, dropout_p=BENCH_DROPOUT)
    model, log = fit(model, train, val, TrainConfig(**BENCH_TRAIN))
    timings["hybrid_fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    linear = linreg_fit(train)
    timings["linear_fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    hybrid_scores = prediction_scores(model, test)
    linear_scores = prediction_scores(linear, test)
    timings["evaluate"] = time.perf_counter() - t0
    return {
        "pre": pre, "test": test, "log": log,
        "hybrid": model, "linear": linear,
        "hybrid_scores": hybrid_scores, "linear_scores": linear_scores,
        "timings": timings,
    }


@pytest.fixture(scope="module")
def bench_k08():
    return _run_pipeline(kappa=0.8)


@pytest.fixture(scope="module")
def bench_k00():
    return _run_pipeline(kappa=0.0)


def test_criterion_1_gradient_correctness():
    dims = ModelDims(window=4, f_market=2, f_sentiment=3, f_static=3,
                     conv_channels=2, kernel_width=3, hidden_size=3)
    model = HybridModel.initialize(dims, seed=42, dropout_p=0.2)
    rng = SeededRng(derive_seed(42, 0x47434B))
    x_seq = rng.normals(dims.window * dims.f_seq).reshape(dims.window, dims.f_seq)
    x_static = rng.normals(dims.f_static)
    target = rng.uniform(0.0, 1.0)
    t0 = time.perf_counter()
    result = gradient_check(model, x_seq, x_static, target, epsilon=1e-5)
    elapsed = time.perf_counter() - t0
    _criterion(
        1, "gradient correctness",
        result.max_rel_error < 1e-4 and elapsed < 10.0,
        f"max_rel_error={result.max_rel_error:.3e} over {result.n_params} params "
        f"in {elapsed:.2f}s",
    )


def test_criterion_2_metric_oracles():
    rng = SeededRng(2024)
    worst = 0.0
    for _ in range(1000):
        n = 2 + rng.randint(60)
        y = rng.uniforms(n, 0.0, 1.0)
        yhat = rng.uniforms(n, -0.3, 1.3)
        mse_bf = math.fsum((a - b) ** 2 for a, b in zip(y, yhat)) / n
        acc_bf = sum((a > 0.5) == (b > 0.5) for a, b in zip(y, yhat)) / n
        mean = math.fsum(y) / n
        ss_tot = math.fsum((a - mean) ** 2 for a in y)
        r2_bf = 1.0 - math.fsum((a - b) ** 2 for a, b in zip(y, yhat)) / ss_tot
        worst = max(
            worst,
            abs(compute_mse(y, yhat) - mse_bf),
            abs(compute_accuracy(y, yhat) - acc_bf),
            abs(compute_r2(y, yhat) - r2_bf),
        )
    examples_ok = (
        compute_mse([1.0, 2.0], [0.0, 2.0]) == 0.5
        and compute_r2([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
    )
    _criterion(2, "metric oracles", worst < 1e-12 and examples_ok,
               f"max deviation from brute force = {worst:.2e}")


def test_criterion_3_model_ordering(bench_k08):
    b = bench_k08
    test_set = b["test"]
    hybrid_mse = compute_mse(test_set.y, b["hybrid_scores"])
    linear_mse = compute_mse(test_set.y, b["linear_scores"])
    hybrid_acc = compute_accuracy(test_set.y, b["hybrid_scores"])
    linear_acc = compute_accuracy(test_set.y, b["linear_scores"])
    hybrid_r2 = compute_r2(test_set.y, b["hybrid_scores"])
    linear_r2 = compute_r2(test_set.y, b["linear_scores"])
    total_time = sum(b["timings"].values())
    ok = (
        hybrid_mse < linear_mse
        and hybrid_mse <= 0.8 * linear_mse
        and hybrid_acc >= linear_acc
        and hybrid_r2 >= linear_r2
        and total_time < 120.0
    )
    _criterion(
        3, "hybrid-vs-baseline ordering", ok,
        f"mse {hybrid_mse:.6f} vs {linear_mse:.6f} (ratio {hybrid_mse / linear_mse:.3f}), "
        f"acc {hybrid_acc:.4f} vs {linear_acc:.4f}, r2 {hybrid_r2:.3f} vs {linear_r2:.3f}, "
        f"runtime {total_time:.1f}s",
    )


def _zero_sentiment_relative_change(run) -> float:
    test_set = run["test"]
    n_market = len(run["pre"].market_cols)
    zeroed = test_set.x_seq.copy()
    zeroed[:, :, n_market:] = 0.0
    blind = SampleSet(zeroed, test_set.x_static, test_set.y, test_set.days)
    base = compute_mse(test_set.y, run["hybrid_scores"])
    degraded = compute_mse(test_set.y, prediction_scores(run["hybrid"], blind))
    return abs(degraded - base) / base


def test_criterion_4_sentiment_signal_sensitivity(bench_k08, bench_k00):
    with_signal = _zero_sentiment_relative_change(bench_k08)
    without_signal = _zero_sentiment_relative_change(bench_k00)
    ok = with_signal > 0.20 and without_signal < 0.10
    _criterion(
        4, "sentiment signal sensitivity", ok,
        f"zeroing sentiment changes MSE by {with_signal:.1%} (kappa=0.8, need >20%) "
        f"and {without_signal:.1%} (kappa=0, need <10%)",
    )


def test_criterion_5_early_stopping():
    dims = ModelDims(window=6, f_market=2, f_sentiment=2, f_static=3,
                     conv_channels=2, kernel_width=3, hidden_size=4)
    rng = SeededRng(500)
    n_train, n_val = 200, 60

    def synth_set(n, noisy):
        x_seq = rng.normals(n * dims.window * dims.f_seq).reshape(n, dims.window, dims.f_seq)
        x_static = rng.normals(n * dims.f_static).reshape(n, dims.f_static)
        if noisy:
            y = rng.uniforms(n, 0.0, 1.0)  # heavy noise, unrelated to features
        else:
            y = 0.5 + 0.25 * np.tanh(x_static[:, 0]) + 0.1 * x_seq[:, -1, 0]
        dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(n)]
        return SampleSet(x_seq, x_static, y, day_numbers(dates))

    train = synth_set(n_train, noisy=False)
    val = synth_set(n_val, noisy=True)
    patience = 5
    cfg = TrainConfig(learning_rate=5e-3, max_epochs=60, batch_size=16,
                      patience=patience, seed=500)
    model = HybridModel.initialize(dims, seed=500, dropout_p=0.1)
    model, log = fit(model, train, val, cfg)
    restored = validation_mse(model, val)
    ok = (
        log.stopped_early
        and log.n_epochs - log.best_epoch <= patience
        and restored == min(log.val_mse)
    )
    _criterion(
        5, "early stopping", ok,
        f"stopped after {log.n_epochs} epochs, best epoch {log.best_epoch}, "
        f"restored val MSE {restored!r} == logged min {min(log.val_mse)!r}",
    )


def test_criterion_6_end_to_end_determinism(tmp_path):
    def run(tag):
        base = tmp_path / tag
        data = base / "data"
        model = base / "model.rcm"
        eval_csv = base / "eval.csv"
        base.mkdir()
        cmds = [
            ["gen-data", "--days", "420", "--seed", "5", "--out", str(data)],
            ["train", "--data", str(data), "--out", str(model),
             "--epochs", "6", "--patience", "3", "--lr", "0.003",
             "--hidden", "6", "--seed", "5"],
            ["evaluate", "--model", str(model), "--data", str(data),
             "--csv", str(eval_csv)],
        ]
        stdout = []
        # The commands import the same riskcast package as this test process.
        package_root = os.path.dirname(os.path.dirname(riskcast.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "riskcast", *cmd],
                                  capture_output=True, text=True, check=True, env=env)
            # Output paths differ between the two runs by construction; the
            # determinism claim is about everything else.
            stdout.append(proc.stdout.replace(str(base), "BASE"))
        return (model.read_bytes(), (base / "model.rcm.log.csv").read_bytes(),
                eval_csv.read_bytes(), "".join(stdout))

    first = run("run1")
    second = run("run2")
    ok = first == second
    _criterion(6, "end-to-end determinism", ok,
               "model file, epoch log, metrics CSV, and stdout are byte-identical")


def test_criterion_7_feature_engineering_oracles():
    rng = SeededRng(700)
    worst = 0.0
    lookahead_violations = 0
    start = dt.date(2019, 1, 1)
    vocab = ["a", "b", "c"]
    for _ in range(100):
        n = 35 + rng.randint(40)
        dates = [start + dt.timedelta(days=i) for i in range(n)]
        series = rng.normals(n, 1.0, 2.0)
        window = 1 + rng.randint(8)

        ma = moving_average(series, window)
        for t in range(window - 1, n):
            expected = math.fsum(series[t - window + 1:t + 1]) / window
            worst = max(worst, abs(ma[t] - expected))

        frame = TimeSeriesFrame(day_numbers(dates), {"x": series,
                                        "s": rng.normals(n),
                                        "target": rng.uniforms(n, 0.0, 1.0)})
        stop = 10 + rng.randint(n - 10)
        stats = fit_standardize(frame.select(["x"]), (0, stop))
        z = apply_standardize(frame, stats).column("x")
        mean = math.fsum(series[:stop]) / stop
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in series[:stop]) / stop)
        worst = max(worst, float(np.max(np.abs(z - (series - mean) / std))))

        events = [(dates[rng.randint(n)], vocab[rng.randint(3)]) for _ in range(6)]
        hot = one_hot_encode(events, vocab)
        per_day = {}
        for day, cat in events:
            per_day.setdefault(day, set()).add(cat)
        for i, day in enumerate(hot.dates):
            row_sum = sum(hot.column(c)[i] for c in vocab)
            worst = max(worst, abs(row_sum - len(per_day.get(day, set()))))

        w = 1 + rng.randint(6)
        horizon = 1 + rng.randint(4)
        samples = build_windows(frame, ["x"], ["s"], "target", w, horizon)
        expected_count = n - w - horizon + 1
        worst = max(worst, abs(len(samples) - expected_count))
        for i in range(len(samples)):
            end_row = i + w - 1
            target_row = end_row + horizon
            if samples.dates[i] >= dates[target_row]:
                lookahead_violations += 1
            if samples.y[i] != frame.column("target")[target_row]:
                lookahead_violations += 1
    _criterion(
        7, "feature-engineering oracles",
        worst < 1e-12 and lookahead_violations == 0,
        f"max deviation {worst:.2e}, lookahead violations {lookahead_violations}",
    )


def test_criterion_8_linear_baseline_optimality():
    rng = SeededRng(800)
    n, t_len, f_seq, f_static = 80, 3, 2, 2
    x_seq = rng.normals(n * t_len * f_seq).reshape(n, t_len, f_seq)
    x_static = rng.normals(n * f_static).reshape(n, f_static)
    y = 2.0 * x_seq[:, 0, 0] + 3.0
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    samples = SampleSet(x_seq, x_static, y, day_numbers(dates))
    model = linreg_fit(samples)
    coeff_err = max(abs(model.weights[0] - 2.0), abs(model.bias[0] - 3.0))

    base = linreg_objective(model, samples)
    dim = model.weights.size + 1
    increased = True
    for _ in range(300):
        delta = rng.normals(dim)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = LinearRegressionModel(model.weights + delta[:-1],
                                          model.bias[0] + delta[-1],
                                          model.ridge_lambda)
        if linreg_objective(perturbed, samples) < base:
            increased = False
            break
    _criterion(
        8, "linear baseline optimality",
        coeff_err < 1e-6 and increased,
        f"planted-coefficient error {coeff_err:.2e}; "
        f"300 random perturbations never reduced the ridge objective: {increased}",
    )
