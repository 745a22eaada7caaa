#!/usr/bin/env python3
"""riskcast benchmark: three desk workloads driven through the real CLI.

Every workload is a closed loop with one client: each ``riskcast`` command
runs in this process through ``riskcast.cli.main`` (stdout captured) and the
next starts only after it returns.  Inputs are generated from ``--seed``;
the program only sees the generated CSV and model files.

    python3 perfbench/run.py --workload train_hybrid --seed 7 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see perfbench/README.md).  End-to-end timings are
normalised by a speed probe that times a fixed reference loop every 25 ms
during each call, so that the host's changing speed cancels out.  The last
stdout line is the result object; the line before it holds the full detail
(every metric with its unit and sample count, raw and normalised, the
output checks and the environment).
Exits 2 without a result if the riskcast sources are not beside this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import BUNDLE_FILES, RNG_PREFIX, Tracer, span_names

# One OpenBLAS thread, set before numpy loads.  A second thread's work is not
# seen by the speed probe, and made the linear fit's normalised time spread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

clock = time.perf_counter

# Acceptance-protocol hyperparameters (tests/test_acceptance.py); the epoch
# cap is the benchmark's own, to keep one train call to a few seconds.
HYBRID_FLAGS = ["--lr", "3e-3", "--hidden", "32", "--batch-size", "32",
                "--dropout", "0.2", "--patience", "10"]
SETUP_REPEATS = 3
# Speed probe: every PROBE_PERIOD_S of wall time during a call, time
# PROBE_UNITS runs of reference_unit().  PROBE_NOMINAL_S is that sample's time
# on the reference machine (2-vCPU Intel Xeon KVM guest, Python 3.11, numpy
# 2.4) in a fast phase; a normalised time is in seconds at that speed.
PROBE_PERIOD_S = 0.025
PROBE_UNITS = 3
PROBE_NOMINAL_S = 0.0013
IMPORT_PROBES = 40
SCORE_TOL = 1e-9          # |CLI score - per-sample forward reference|, absolute
NORMAL_EQ_TOL = 1e-9      # relative residual of the ridge normal equations

SIZES = {
    # name: (history days, long-history days, epochs per train call)
    "full": (2000, 20000, 1),
    "smoke": (300, 600, 1),
}


def _reference_inputs():
    import numpy as np
    rng = np.random.default_rng(20241019)
    return (rng.standard_normal((128, 47)) * 0.1, rng.standard_normal((20, 15)),
            rng.standard_normal(400).tolist())


_REF_INPUTS = None


def reference_unit() -> float:
    """Fixed work shaped like the program's: LSTM steps on small numpy arrays
    (H=32, 15 inputs, T=20) plus formatting and parsing numbers as CSV text."""
    import numpy as np
    global _REF_INPUTS
    if _REF_INPUTS is None:
        _REF_INPUTS = _reference_inputs()
    weights, xs, values = _REF_INPUTS
    h, c = np.zeros(32), np.zeros(32)
    for x in xs:
        z = weights @ np.concatenate([x, h])
        i, f = 1.0 / (1.0 + np.exp(-z[:32])), 1.0 / (1.0 + np.exp(-z[32:64]))
        g, o = np.tanh(z[64:96]), 1.0 / (1.0 + np.exp(-z[96:]))
        c = f * c + i * g
        h = o * np.tanh(c)
    text = ",".join(f"{v:.6f}" for v in values)
    return float(h.sum()) + sum(float(token) for token in text.split(","))


class SpeedProbe:
    """Samples the host's speed while a call runs.

    A SIGALRM handler interrupts the call every PROBE_PERIOD_S of wall time
    and times PROBE_UNITS reference units.  The call's own time is its wall
    time minus the probe's; normalised, it is scaled by PROBE_NOMINAL_S over
    the mean sample, so a phase in which the host runs slower cancels out.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_) -> None:
        start = clock()
        for _ in range(PROBE_UNITS):
            reference_unit()
        self.samples.append(clock() - start)

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall: float) -> tuple[float, float]:
        """(own seconds, normalised seconds) of a call that took ``wall``."""
        own = wall - sum(self.samples)
        self.sample()  # one sample after the call, so that there is always one
        return own, own * PROBE_NOMINAL_S / statistics.fmean(self.samples)


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_riskcast():
    """Import riskcast from the checkout's own src/, never from elsewhere."""
    if not (SRC / "riskcast" / "cli.py").is_file():
        die(f"no riskcast sources at {SRC}")
    sys.path.insert(0, str(SRC))
    start = clock()
    import numpy  # noqa: F401  (part of the program's import cost)
    import riskcast.cli
    seconds = clock() - start
    if Path(riskcast.cli.__file__).resolve().parent != (SRC / "riskcast").resolve():
        die(f"imported riskcast from {riskcast.cli.__file__}, not {SRC}")
    return seconds


# ---------------------------------------------------------------------------
# CLI calls and output checks
# ---------------------------------------------------------------------------


class CallRecord:
    def __init__(self, metric: str, argv: list[str]):
        self.metric = metric
        self.argv = argv
        self.rc: int | None = None
        self.seconds = 0.0
        self.norm_seconds = 0.0   # seconds at the reference machine's speed
        self.probes: list[float] = []
        self.stdout = ""
        self.stderr = ""
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)


class Bench:
    """Closed-loop client state: work directory, call records, artifacts, traces."""

    def __init__(self, seed: int, size: str):
        import riskcast.cli
        self.cli = riskcast.cli
        self.work = Path()
        self.seed = seed
        self.days, self.long_days, self.epochs = SIZES[size]
        self.records: list[CallRecord] = []
        self.tracing = False
        self.traces: dict[str, dict] = defaultdict(_empty_trace)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._artifacts: dict[str, tuple[str, list[CallRecord]]] = {}

    def path(self, *parts) -> str:
        return str(self.work.joinpath(*parts))

    def call(self, metric: str, *argv) -> CallRecord:
        record = CallRecord(metric, [str(a) for a in argv])
        out, err = io.StringIO(), io.StringIO()
        tracer = Tracer() if self.tracing else None
        # Traced calls run without the probe, which would add to span self times.
        probe = SpeedProbe(enabled=tracer is None)
        with redirect_stdout(out), redirect_stderr(err):
            if tracer:
                tracer.install()
            start = clock()
            try:
                with probe:
                    record.rc = self.cli.main(record.argv)
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
            finally:
                wall = clock() - start
                if tracer:
                    tracer.uninstall()
        record.seconds, record.norm_seconds = probe.normalise(wall)
        record.probes = probe.samples
        record.stdout, record.stderr = out.getvalue(), err.getvalue()
        if record.rc != 0:
            record.fail(f"exit code {record.rc}: {record.stderr.strip()[-300:]}")
        if tracer:
            _merge_trace(self.traces[metric], vars(tracer))
        self.records.append(record)
        return record

    def artifact(self, record: CallRecord, key: str, *paths: str) -> None:
        """Every call that writes ``key`` must write the same bytes as the first."""
        digest = hashlib.sha256()
        for path in paths:
            with open(path, "rb") as handle:
                digest.update(handle.read())
        hexdigest = digest.hexdigest()
        first = self._artifacts.setdefault(key, (hexdigest, []))
        if first[0] == hexdigest:
            first[1].append(record)
        else:
            record.fail(f"{key} differs from the first call's output (same flags)")

    def produced(self, key: str) -> bool:
        return key in self._artifacts

    def fail_artifact(self, key: str, message: str) -> None:
        """A check of the first ``key`` output failed: fail every call that wrote it."""
        for record in self._artifacts[key][1]:
            record.fail(message)


TRACE_FIELDS = ("calls", "span_s", "self_s", "counters")


def _empty_trace() -> dict:
    return {field: defaultdict(float) for field in TRACE_FIELDS}


def _merge_trace(into: dict, source: dict) -> None:
    for field in TRACE_FIELDS:
        for name, value in source[field].items():
            into[field][name] += value


def parse_line(record: CallRecord, pattern: str) -> str | None:
    match = re.search(pattern, record.stdout, re.MULTILINE)
    if record.ok and match is None:
        record.fail(f"stdout lacks /{pattern}/")
    return match.group(1) if match else None


def finite(record: CallRecord, label: str, token: str | None) -> float | None:
    try:
        value = float(token)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        if record.rc == 0:
            record.fail(f"{label} is not a finite number: {token!r}")
        return None
    return value


def read_csv_rows(bench: Bench, key: str) -> list[list[str]]:
    """Data rows of the CSV artifact ``key``; none if no call produced it."""
    if not bench.produced(key):
        return []
    with open(bench.path(key), encoding="utf-8") as handle:
        return [line.split(",") for line in handle.read().splitlines()[1:]]


def count_data_rows(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip()) - 1


def check_roundtrip(bench: Bench, key: str, path: str) -> None:
    """save_model(load_model(f)) must reproduce every parameter bit for bit."""
    import numpy as np
    from riskcast.data_io import load_model, save_model
    copy = bench.path("roundtrip.model")
    first = load_model(path)
    save_model(first, copy)
    second = load_model(copy)
    same = first.params().keys() == second.params().keys() and all(
        np.array_equal(a.view(np.uint64), second.params()[n].view(np.uint64))
        for n, a in first.params().items()
    )
    if not same or first.preprocess != second.preprocess:
        bench.fail_artifact(key, f"{key}: save_model/load_model is not bitwise")


def check_normal_equations(bench: Bench, key: str, model_path: str, train) -> float:
    """The stored linear fit must solve (Z'Z + lambda I) b = Z'y (criterion 8)."""
    import numpy as np
    from riskcast.data_io import load_model
    model = load_model(model_path)
    n = len(train)
    design = np.hstack([train.x_seq.reshape(n, -1), train.x_static, np.ones((n, 1))])
    beta = np.concatenate([model.weights, model.bias])
    gram = design.T @ design
    rhs = design.T @ train.y
    residual = gram @ beta + model.ridge_lambda * beta - rhs
    scale = np.linalg.norm(gram) * np.linalg.norm(beta) + np.linalg.norm(rhs)
    rel = float(np.linalg.norm(residual) / scale)
    if not rel <= NORMAL_EQ_TOL:
        bench.fail_artifact(key, f"{key}: normal-equation residual {rel:.3e} > {NORMAL_EQ_TOL}")
    return rel


def datasets(data_dir: str):
    from riskcast.data_io import SplitSpec, load_bundle
    from riskcast.lexicon import default_lexicon
    from riskcast.pipeline import PipelineConfig, make_datasets
    return make_datasets(load_bundle(data_dir), default_lexicon(), PipelineConfig(), SplitSpec())


def sample_bytes(*sets) -> int:
    return sum(s.x_seq.nbytes + s.x_static.nbytes + s.y.nbytes for s in sets)


# ---------------------------------------------------------------------------
# Workloads.  prepare() is set-up (timed as setup_s), cycle() one closed-loop
# iteration, verify() the output checks that need the program's own data.
# ---------------------------------------------------------------------------


class TrainHybrid:
    name = "train_hybrid"
    primary = "train_s"
    named = ("setup_s", "train_s", "train_samples_per_s", "test_mse_hybrid",
             "peak_rss_mb", "error_rate")

    def prepare(self, b: Bench) -> None:
        rec = b.call("setup.gen_data_s", "gen-data", "--days", b.days, "--seed", b.seed,
                     "--out", b.path("data"))
        if rec.ok:
            b.artifact(rec, "data", *_bundle_paths(b.path("data")))

    def cycle(self, b: Bench) -> float:
        model, log = b.path("hybrid.model"), b.path("hybrid.log.csv")
        tr = b.call("train_s", "train", "--data", b.path("data"), "--out", model, "--log", log,
                    "--epochs", b.epochs, *HYBRID_FLAGS, "--seed", b.seed)
        epochs = parse_line(tr, r"^trained (\d+) epochs")
        if tr.ok:
            rows = count_data_rows(log)
            if rows != int(epochs):
                tr.fail(f"epoch log has {rows} rows, train reported {epochs} epochs")
            b.artifact(tr, "hybrid.model", model)
        ev = b.call("evaluate_s", "evaluate", "--data", b.path("data"), "--model", model)
        mse = finite(ev, "evaluate mse", parse_line(ev, r"^mse: (\S+)$"))
        if mse is not None:
            b.values["test_mse_hybrid"].append(mse)
        return {"train_s": tr.seconds, "evaluate_s": ev.seconds,
                "epochs": int(epochs) if tr.ok else 0}

    def verify(self, b: Bench):
        train, val, test, pre = datasets(b.path("data"))
        if b.produced("hybrid.model"):
            check_roundtrip(b, "hybrid.model", b.path("hybrid.model"))
        b.values["train_samples"] = [len(train)]
        return {"sample_tensors": sample_bytes(train, val, test)}, pre

    def derived(self, b: Bench, cycles: list[dict]) -> dict:
        n_train = b.values["train_samples"][0]
        rates = [c["epochs"] * n_train / c["train_s"] for c in cycles]
        return {"train_samples_per_s": (rates, "1/s"),
                "test_mse_hybrid": (b.values["test_mse_hybrid"], "mse")}


class ScoreHistory:
    name = "score_history"
    primary = "predict_s"
    named = ("setup_s", "predict_s", "windows_per_s", "compare_s", "peak_rss_mb",
             "error_rate")

    def prepare(self, b: Bench) -> None:
        data = b.path("data")
        rec = b.call("setup.gen_data_s", "gen-data", "--days", b.days, "--seed", b.seed,
                     "--out", data)
        if rec.ok:
            b.artifact(rec, "data", *_bundle_paths(data))
        rec = b.call("setup.train_s", "train", "--data", data, "--out", b.path("hybrid.model"),
                     "--epochs", b.epochs, *HYBRID_FLAGS, "--seed", b.seed)
        if rec.ok:
            b.artifact(rec, "hybrid.model", b.path("hybrid.model"))
        rec = b.call("setup.train_linear_s", "train", "--data", data,
                     "--out", b.path("linear.model"), "--baseline", "linreg")
        if rec.ok:
            b.artifact(rec, "linear.model", b.path("linear.model"))

    def cycle(self, b: Bench) -> float:
        data, hybrid, linear = b.path("data"), b.path("hybrid.model"), b.path("linear.model")
        pr = b.call("predict_s", "predict", "--data", data, "--model", hybrid,
                    "--out", b.path("predictions.csv"))
        rows = parse_line(pr, r"^wrote (\d+) predictions")
        if pr.ok:
            b.artifact(pr, "predictions.csv", b.path("predictions.csv"))
        cm = b.call("compare_s", "compare", "--data", data, hybrid, linear,
                    "--csv", b.path("compare.csv"))
        if cm.ok:
            b.artifact(cm, "compare.csv", b.path("compare.csv"))
        return {"predict_s": pr.seconds, "compare_s": cm.seconds,
                "windows": int(rows) if pr.ok else 0}

    def verify(self, b: Bench):
        import numpy as np
        from riskcast.data_io import chronological_split, load_bundle, load_model
        from riskcast.evaluation import compute_mse
        from riskcast.lexicon import default_lexicon
        from riskcast.pipeline import build_samples, split_for

        hybrid = load_model(b.path("hybrid.model"))
        linear = load_model(b.path("linear.model"))
        samples = build_samples(load_bundle(b.path("data")), default_lexicon(), hybrid.preprocess)
        reference = np.array([hybrid.forward(samples.x_seq[i], samples.x_static[i])[0]
                              for i in range(len(samples))])
        # One finite score per window that the program's build_samples yields.
        rows = read_csv_rows(b, "predictions.csv")
        dates = [row[0] for row in rows]
        scores = np.array([float(row[1]) for row in rows])
        if not rows:
            pass  # every predict call failed and is counted already
        elif dates != [d.isoformat() for d in samples.dates]:
            b.fail_artifact("predictions.csv", f"predictions.csv has {len(rows)} rows, "
                            f"build_samples yields {len(samples)} windows, or dates differ")
        elif not np.all(np.isfinite(scores)):
            b.fail_artifact("predictions.csv", "predictions.csv holds non-finite scores")
        elif np.max(np.abs(scores - reference)) > SCORE_TOL:
            b.fail_artifact("predictions.csv", "predict scores differ from per-sample "
                            f"HybridModel.forward by {np.max(np.abs(scores - reference)):.3e}")
        # compare's mse must be the test-split mse of the reference scores.
        _, _, test = chronological_split(samples, split_for(hybrid.preprocess))
        n_test = len(test)
        expected = {
            "hybrid": compute_mse(test.y, reference[len(samples) - n_test:]),
            "linear": compute_mse(test.y, [linear.forward(test.x_seq[i], test.x_static[i])[0]
                                           for i in range(n_test)]),
        }
        for name, mse, *_ in read_csv_rows(b, "compare.csv"):
            kind = name.split("[")[0]
            if abs(float(mse) - expected[kind]) > SCORE_TOL:
                b.fail_artifact("compare.csv", f"compare mse for {name} is {mse}, "
                                f"reference {expected[kind]!r}")
        b.values["test_mse_hybrid"] = [expected["hybrid"]]
        train, _, _, pre = datasets(b.path("data"))
        rel = check_normal_equations(b, "linear.model", b.path("linear.model"), train)
        b.values["normal_eq_residual"] = [rel]
        check_roundtrip(b, "hybrid.model", b.path("hybrid.model"))
        check_roundtrip(b, "linear.model", b.path("linear.model"))
        return {"sample_tensors": sample_bytes(samples)}, pre

    def derived(self, b: Bench, cycles: list[dict]) -> dict:
        rates = [c["windows"] / c["predict_s"] for c in cycles]
        return {"windows_per_s": (rates, "1/s"),
                "test_mse_hybrid": (b.values["test_mse_hybrid"], "mse")}


class IngestLinear:
    name = "ingest_linear"
    primary = "train_linear_s"
    named = ("setup_s", "gen_data_s", "train_linear_s", "evaluate_s", "test_mse_linear",
             "peak_rss_mb", "error_rate")

    def prepare(self, b: Bench) -> None:
        # A short warm-up of the same three commands, so lazy set-up is done.
        warm = b.path("warmup")
        rec = b.call("setup.gen_data_s", "gen-data", "--days", b.days, "--seed", b.seed,
                     "--out", warm)
        rec = b.call("setup.train_linear_s", "train", "--data", warm,
                     "--out", b.path("warmup.model"), "--baseline", "linreg")
        if rec.ok:
            b.artifact(rec, "warmup.model", b.path("warmup.model"))
        b.call("setup.evaluate_s", "evaluate", "--data", warm, "--model", b.path("warmup.model"))

    def cycle(self, b: Bench) -> float:
        data, model, log = b.path("data"), b.path("linear.model"), b.path("linear.log.csv")
        gen = b.call("gen_data_s", "gen-data", "--days", b.long_days, "--seed", b.seed,
                     "--out", data)
        if gen.ok:
            b.artifact(gen, "data", *_bundle_paths(data))
        tr = b.call("train_linear_s", "train", "--data", data, "--out", model, "--log", log,
                    "--baseline", "linreg")
        finite(tr, "validation mse", parse_line(tr, r"^best validation mse: (\S+)$"))
        if tr.ok:
            rows = count_data_rows(log)
            if rows != 0:
                tr.fail(f"epoch log has {rows} rows; the linear baseline runs no epochs")
            b.artifact(tr, "linear.model", model)
        ev = b.call("evaluate_s", "evaluate", "--data", data, "--model", model)
        mse = finite(ev, "evaluate mse", parse_line(ev, r"^mse: (\S+)$"))
        if mse is not None:
            b.values["test_mse_linear"].append(mse)
        return {"gen_data_s": gen.seconds, "train_linear_s": tr.seconds,
                "evaluate_s": ev.seconds}

    def verify(self, b: Bench):
        train, val, test, pre = datasets(b.path("data"))
        if b.produced("linear.model"):
            rel = check_normal_equations(b, "linear.model", b.path("linear.model"), train)
            b.values["normal_eq_residual"] = [rel]
            check_roundtrip(b, "linear.model", b.path("linear.model"))
        width = train.x_seq[0].size + train.static_width + 1
        return {"sample_tensors": sample_bytes(train, val, test),
                "design_matrix": len(train) * width * 8,
                "gram_matrix": width * width * 8}, pre

    def derived(self, b: Bench, cycles: list[dict]) -> dict:
        rates = [b.long_days / c["cycle_s"] for c in cycles]
        return {"days_per_s": (rates, "1/s"),
                "test_mse_linear": (b.values["test_mse_linear"], "mse")}


WORKLOADS = {w.name: w for w in (TrainHybrid(), ScoreHistory(), IngestLinear())}


def _bundle_paths(directory: str) -> list[str]:
    return [os.path.join(directory, name) for name in (*BUNDLE_FILES, "manifest.json")]


# ---------------------------------------------------------------------------
# Statistics, kernels and environment
# ---------------------------------------------------------------------------


def summary(values: list[float], unit: str) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"value": statistics.median(ordered), "unit": unit, "n": n, "samples": values}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
    return out


def kernel_counts(window: int, f_market: int, f_sentiment: int, f_static: int,
                  channels: int = 8, width: int = 3, hidden: int = 32) -> dict:
    """Computed (not measured) multiply-adds and bytes per sample for each kernel."""
    pad_len = window + width - 1
    lstm_in = f_market + channels
    gates = 4 * hidden
    conv_params = channels * width * f_sentiment + channels
    lstm_params = gates * (lstm_in + hidden) + gates
    head_in = hidden + f_static
    conv_fwd = window * channels * width * f_sentiment
    lstm_fwd = window * gates * (lstm_in + hidden)
    kernels = {
        "conv": {"dims": f"T={window} {f_sentiment}->{channels} k={width}",
                 "forward_macs": conv_fwd, "backward_macs": 2 * conv_fwd,
                 "param_bytes": 8 * conv_params,
                 "forward_activation_bytes": 8 * (pad_len * f_sentiment + window * channels),
                 "backward_activation_bytes": 8 * (2 * window * channels + pad_len * f_sentiment)},
        "lstm": {"dims": f"T={window} F={lstm_in} H={hidden}",
                 "forward_macs": lstm_fwd, "backward_macs": 2 * lstm_fwd,
                 "param_bytes": 8 * lstm_params,
                 # input plus the cached i, f, g, o, c, tanh(c), h per step
                 "forward_activation_bytes": 8 * window * (lstm_in + 7 * hidden),
                 "backward_activation_bytes": 8 * window * (lstm_in + 8 * hidden + gates)},
        "dense": {"dims": f"{head_in}->1",
                  "forward_macs": head_in, "backward_macs": 2 * head_in,
                  "param_bytes": 8 * (head_in + 1),
                  "forward_activation_bytes": 8 * (head_in + 1),
                  "backward_activation_bytes": 8 * (2 * head_in + 1)},
    }
    return {"label": "computed, per sample; gradient bytes equal param_bytes", **kernels}


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
            sizes[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes
    import numpy as np
    info = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None, "note": "checkout is not a git repository"}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=False).stdout.strip()
    return {"revision": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def environment(seed: int, working_set: dict) -> dict:
    import numpy as np
    caches = _cache_sizes()
    llc = caches.get(max(caches)) if caches else None
    total = sum(working_set.values())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git": _git(),
        "seed": seed,
        "working_set_bytes": {**working_set, "total": total},
        "last_level_cache_bytes": llc,
        "working_set_fits_in_llc": (total <= llc) if llc else None,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_loop(workload, bench: Bench, seconds: float, alternate: bool) -> list[dict]:
    """Closed loop: cycles back to back until ``seconds`` have passed.

    With ``alternate``, every second cycle is traced, so that slow drift of
    the machine's speed hits traced and untraced cycles alike.
    """
    cycles = []
    deadline = clock() + seconds
    while len(cycles) < (2 if alternate else 1) or clock() < deadline:
        bench.tracing = alternate and len(cycles) % 2 == 1
        first = len(bench.records)
        cycle = workload.cycle(bench)
        calls = bench.records[first:]
        cycle["cycle_s"] = sum(r.seconds for r in calls)
        cycle["norm"] = {r.metric: r.norm_seconds for r in calls}
        cycle["norm"]["cycle_s"] = sum(r.norm_seconds for r in calls)
        cycle["traced"] = bench.tracing
        cycles.append(cycle)
    bench.tracing = False
    return cycles


def probe_stats(records: list[CallRecord]) -> dict:
    """The probe's samples, and its share of the calls' wall time."""
    samples = [s for r in records for s in r.probes]
    in_calls = sum(s for r in records for s in r.probes[:-1])
    deciles = statistics.quantiles(samples, n=10)
    return {"period_s": PROBE_PERIOD_S, "units": PROBE_UNITS, "nominal_s": PROBE_NOMINAL_S,
            "n": len(samples), "median_s": statistics.median(samples),
            "p10_s": deciles[0], "p90_s": deciles[-1],
            "share_of_call_wall": in_calls / (in_calls + sum(r.seconds for r in records))}


def per_layer_metrics(trace: dict, cycles: int, overhead: float, primary: dict) -> dict:
    calls, self_s, span_s, c = trace["calls"], trace["self_s"], trace["span_s"], trace["counters"]
    out = {}
    rng = [name for name in span_names() if name.startswith(RNG_PREFIX)]
    for name in span_names():
        if name not in rng:
            out[f"{name}.calls"] = (calls[name] / cycles, "count")
            out[f"{name}.self_s"] = (self_s[name] / cycles, "s")
    out["tensor.rng_calls"] = (sum(calls[n] for n in rng) / cycles, "count")
    out["tensor.SeededRng.self_s"] = (sum(self_s[n] for n in rng) / cycles, "s")
    out["layers.lstm.sample_steps"] = (c["layers.lstm.sample_steps"] / cycles, "count")
    for kernel, cls in (("lstm", "LSTMCell"), ("conv", "Conv1DLayer"), ("dense", "DenseLayer")):
        for direction in ("forward", "backward"):
            macs = c[f"layers.{kernel}.{direction}.macs"]
            busy = self_s[f"layers.{cls}.{direction}"]
            out[f"layers.{kernel}.{direction}.macs"] = (macs / cycles, "count")
            out[f"layers.{kernel}.{direction}.macs_per_s"] = (macs / busy if busy else 0.0, "1/s")
    run, best = c["training.epochs_run"], c["training.best_epoch"]
    out["training.epochs_run"] = (run / cycles, "count")
    out["training.best_epoch"] = (best / cycles, "count")
    out["training.useful_epoch_ratio"] = (best / run if run else 0.0, "ratio")
    windows = c["models.windows"]
    out["models.forward_calls_per_window"] = (
        c["models.window_forward_calls"] / windows if windows else 0.0, "ratio")
    rows_in, rows_out = c["pipeline.rows_in"], c["pipeline.rows_out"]
    out["pipeline.rows_in"] = (rows_in / cycles, "count")
    out["pipeline.rows_out"] = (rows_out / cycles, "count")
    out["pipeline.rows_kept_ratio"] = (rows_out / rows_in if rows_in else 0.0, "ratio")
    out["pipeline.samples"] = (c["pipeline.samples"] / cycles, "count")
    for name in ("data_io.bytes_read", "data_io.bytes_written"):
        out[name] = (c[name] / cycles, "B")
    out["data_io.rows_read"] = (c["data_io.rows_read"] / cycles, "count")
    out["synth.news_items"] = (c["synth.news_items"] / cycles, "count")
    main_span = span_s["cli.main"]
    out["trace.span_coverage"] = (1.0 - self_s["cli.main"] / main_span if main_span else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    p_span = primary["span_s"]["cli.main"]
    p_busy = sum(v for n, v in primary["self_s"].items() if n.startswith(("layers.", "training.")))
    out["trace.layers_training_share"] = (p_busy / p_span if p_span else 0.0, "ratio")
    return out


def run(args) -> int:
    import_s = import_riskcast()
    workload = WORKLOADS[args.workload]
    bench_dir = ROOT / ".perfbench_work"
    bench_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=bench_dir))
    try:
        return _run(args, workload, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            bench_dir.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workload, workdir: Path, import_s: float) -> int:
    size = "smoke" if args.smoke else "full"
    bench = Bench(args.seed, size)
    probe = SpeedProbe()
    reference_unit()  # builds the reference inputs outside any sample
    for _ in range(IMPORT_PROBES):
        probe.sample()
    import_norm_s = import_s * PROBE_NOMINAL_S / statistics.fmean(probe.samples)
    setups, norm_setups = [], []
    for repeat in range(SETUP_REPEATS):
        first = len(bench.records)
        bench.work = workdir / f"setup{repeat}"
        bench.work.mkdir()
        workload.prepare(bench)
        setups.append(sum(r.seconds for r in bench.records[first:]))
        norm_setups.append(sum(r.norm_seconds for r in bench.records[first:]))
    if not all(r.ok for r in bench.records):
        bad = next(r for r in bench.records if not r.ok)
        die(f"set-up call {' '.join(bad.argv)} failed: {bad.problems}")
    setup_s = import_s + statistics.median(setups)
    setup_norm_s = import_norm_s + statistics.median(norm_setups)

    all_cycles = timed_loop(workload, bench, args.seconds, alternate=bool(args.trace))
    cycles = [c for c in all_cycles if not c["traced"]]
    traced_cycles = [c for c in all_cycles if c["traced"]]

    verify_start = clock()
    working_set, pre = workload.verify(bench)
    verify_s = clock() - verify_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(bench.records)
    failed = sum(not r.ok for r in bench.records)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s", "n": len(setups), "import_s": import_s,
                    "repeats_s": setups},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        "error_rate": {"value": failed / attempted, "unit": "ratio", "n": attempted},
    }
    normalised = {
        "setup_s": {"value": setup_norm_s, "unit": "s", "n": len(norm_setups),
                    "import_s": import_norm_s, "repeats_s": norm_setups},
    }
    for metric in cycles[0]["norm"]:
        end_to_end[metric] = summary([c[metric] for c in cycles], "s")
        normalised[metric] = summary([c["norm"][metric] for c in cycles], "s")
    for metric, (values, unit) in workload.derived(bench, cycles).items():
        end_to_end[metric] = summary(values, unit)

    e2e = {
        "setup_s": (setup_norm_s, "s"),
        "call_s": (normalised[workload.primary]["value"], "s"),
        "cycle_s": (normalised["cycle_s"]["value"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "workload": workload.name,
        "load": "closed loop, 1 client, in-process riskcast.cli.main calls",
        "size": size,
        "end_to_end": end_to_end,
        "normalised": normalised,
        "probe": probe_stats(bench.records),
        "issue_metrics": {name: end_to_end[name] for name in workload.named},
        "checks": {
            "attempted": attempted, "failed": failed,
            "problems": [f"{' '.join(r.argv[:1])}: {p}" for r in bench.records for p in r.problems],
            "score_tolerance": SCORE_TOL, "normal_equation_tolerance": NORMAL_EQ_TOL,
            **{k: v for k, v in bench.values.items() if k == "normal_eq_residual"},
        },
        "verify_s": verify_s,
        "kernels": kernel_counts(pre.window, len(pre.market_cols), len(pre.sentiment_cols),
                                 len(pre.static_all)),
        "environment": environment(args.seed, working_set),
    }
    if args.trace:
        # Raw times: traced calls run without the probe, so they are not normalised.
        overhead = (statistics.median(c["cycle_s"] for c in traced_cycles)
                    / end_to_end["cycle_s"]["value"] - 1.0)
        total = _empty_trace()
        for trace in bench.traces.values():
            _merge_trace(total, trace)
        layer = per_layer_metrics(total, len(traced_cycles), overhead,
                                  bench.traces[workload.primary])
        metrics = layer
        detail["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        detail["traced_cycles"] = len(traced_cycles)
        detail["primary_span_s"] = {name: span / len(traced_cycles) for name, span in
                                    bench.traces[workload.primary]["span_s"].items()}
    else:
        metrics = e2e

    for kind, table in (("raw", end_to_end), ("normalised", normalised)):
        for name, info in table.items():
            extra = "  ".join(f"{k}={v:.6g}" for k, v in info.items()
                              if k.startswith("p") and isinstance(v, float))
            print(f"{workload.name:14s} {kind:10s} {name:22s} {info['value']:.6g} {info['unit']}"
                  f"  n={info['n']}  {extra}")
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run a traced loop and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's own test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
