"""Span tracing of riskcast's public entry points, installed from outside the program.

Each entry point below is replaced, for the duration of one CLI call, by a
wrapper that records its call count, its span time and its self time (the
span minus the time covered by the spans it opened).  Spans are folded into
per-name totals as they close instead of being kept one by one, because a
traced ``gen-data`` opens several hundred thousand RNG spans.

Functions imported with ``from .x import f`` live on in the importing
module's namespace, so every ``riskcast.*`` module attribute that refers to
a wrapped function is rebound too; methods are patched on their class.
Everything is restored when the tracer is uninstalled.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

RNG_METHODS = ("next_uint64", "next_uint64s", "next_float", "next_floats", "uniform",
               "uniforms", "normal", "normals", "randint", "shuffle")

# Layer (the riskcast module name) -> wrapped entry points inside it.
ENTRY_POINTS = {
    "cli": ("main",),
    "layers": ("LSTMCell.forward", "LSTMCell.backward", "Conv1DLayer.forward",
               "Conv1DLayer.backward", "DenseLayer.forward", "DenseLayer.backward",
               "dropout_forward", "dropout_backward"),
    "training": ("fit", "adam_step", "mse_loss", "validation_mse"),
    "models": ("HybridModel.forward", "HybridModel.backward",
               "LinearRegressionModel.forward", "linreg_fit", "predict_batch",
               "prediction_scores"),
    "features": ("sentiment_score", "aggregate_daily_sentiment", "moving_average",
                 "trailing_volatility", "align_by_date", "fit_standardize",
                 "apply_standardize", "one_hot_encode", "build_windows"),
    "pipeline": ("make_datasets", "build_samples", "assemble_frame"),
    "data_io": ("load_bundle", "load_model", "save_model", "write_frame_csv",
                "write_news_csv", "write_policy_csv", "write_predictions_csv",
                "chronological_split"),
    "synth": ("synth_generate",),
    "tensor": tuple(f"SeededRng.{m}" for m in RNG_METHODS),
    "evaluation": ("evaluate_predictions", "compare_models"),
    "lexicon": ("default_lexicon",),
}

RNG_PREFIX = "tensor.SeededRng."
BUNDLE_FILES = ("market.csv", "financial.csv", "macro.csv", "news.csv", "policy.csv")


def span_names() -> list[str]:
    return [f"{layer}.{entry}" for layer, entries in ENTRY_POINTS.items() for entry in entries]


# ---------------------------------------------------------------------------
# Counters recorded at the same boundaries as the spans.  A hook runs after
# the wrapped call returns: hook(counters, parent_span, args, result).
# ---------------------------------------------------------------------------


def _lstm_forward(c, parent, args, result):
    cell, xs = args[0], args[1]
    steps = len(xs)
    c["layers.lstm.sample_steps"] += steps
    c["layers.lstm.forward.macs"] += steps * cell.w_x.shape[0] * (cell.input_size + cell.hidden_size)


def _lstm_backward(c, parent, args, result):
    cell, cache = args[0], args[1]
    steps = cache.xs.shape[0]
    c["layers.lstm.backward.macs"] += 2 * steps * cell.w_x.shape[0] * (cell.input_size + cell.hidden_size)


def _conv_forward(c, parent, args, result):
    conv, x = args[0], args[1]
    out_len = len(x) - conv.k + 1
    c["layers.conv.forward.macs"] += out_len * conv.kernels.size


def _conv_backward(c, parent, args, result):
    conv, cache = args[0], args[1]
    c["layers.conv.backward.macs"] += 2 * cache.out_len * conv.kernels.size


def _dense_forward(c, parent, args, result):
    c["layers.dense.forward.macs"] += args[0].w.size


def _dense_backward(c, parent, args, result):
    c["layers.dense.backward.macs"] += 2 * args[0].w.size


def _fit(c, parent, args, result):
    log = result[1]
    c["training.epochs_run"] += log.n_epochs
    c["training.best_epoch"] += log.best_epoch


def _model_forward(c, parent, args, result):
    if parent == "models.predict_batch":
        c["models.window_forward_calls"] += 1


def _predict_batch(c, parent, args, result):
    c["models.windows"] += len(args[1])


def _assemble_frame(c, parent, args, result):
    c["pipeline.rows_in"] += len(args[0].market)
    c["pipeline.rows_out"] += len(result)


def _make_datasets(c, parent, args, result):
    c["pipeline.samples"] += sum(len(s) for s in result[:3])


def _build_samples(c, parent, args, result):
    c["pipeline.samples"] += len(result)


def _load_bundle(c, parent, args, result):
    directory = args[0]
    for name in BUNDLE_FILES:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            c["data_io.bytes_read"] += os.path.getsize(path)
    c["data_io.rows_read"] += (len(result.market) + len(result.financial)
                               + len(result.news) + len(result.policy))


def _load_model(c, parent, args, result):
    c["data_io.bytes_read"] += os.path.getsize(args[0])


def _written(c, parent, args, result):
    c["data_io.bytes_written"] += os.path.getsize(args[1])


def _synth(c, parent, args, result):
    c["synth.news_items"] += len(result.news)


HOOKS = {
    "layers.LSTMCell.forward": _lstm_forward,
    "layers.LSTMCell.backward": _lstm_backward,
    "layers.Conv1DLayer.forward": _conv_forward,
    "layers.Conv1DLayer.backward": _conv_backward,
    "layers.DenseLayer.forward": _dense_forward,
    "layers.DenseLayer.backward": _dense_backward,
    "training.fit": _fit,
    "models.HybridModel.forward": _model_forward,
    "models.LinearRegressionModel.forward": _model_forward,
    "models.predict_batch": _predict_batch,
    "pipeline.assemble_frame": _assemble_frame,
    "pipeline.make_datasets": _make_datasets,
    "pipeline.build_samples": _build_samples,
    "data_io.load_bundle": _load_bundle,
    "data_io.load_model": _load_model,
    "data_io.save_model": _written,
    "data_io.write_frame_csv": _written,
    "data_io.write_news_csv": _written,
    "data_io.write_policy_csv": _written,
    "data_io.write_predictions_csv": _written,
    "synth.synth_generate": _synth,
}


class Tracer:
    """Per-name call counts, span and self times, and counters, for one call."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.span_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []      # [span name, seconds covered by child spans]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        calls, span_s, self_s, counters = self.calls, self.span_s, self.self_s, self.counters
        hook = HOOKS.get(name)
        # Draw methods call each other; only the draw requested from outside
        # the generator opens a span, which keeps a traced gen-data affordable.
        flat = name.startswith(RNG_PREFIX)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flat and stack and stack[-1][0].startswith(RNG_PREFIX):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                calls[name] += 1
                span_s[name] += span
                self_s[name] += span - frame[1]
            if hook is not None:
                hook(counters, stack[-1][0] if stack else None, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "riskcast" or key.startswith("riskcast."))]
        for layer, entries in ENTRY_POINTS.items():
            module = importlib.import_module(f"riskcast.{layer}")
            for entry in entries:
                name = f"{layer}.{entry}"
                if "." in entry:
                    cls_name, method = entry.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(module, entry)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
