"""Command-line surface: data generation, training, evaluation, prediction,
model comparison, and gradient checking.

Every command is deterministic given its flags; all randomness flows from
``--seed`` (default 42, a fixed documented value, never the wall clock).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, fields, replace

from . import data_io, pipeline
from .data_io import SplitSpec, load_bundle, load_model, save_model
from .errors import (
    DataError,
    DimensionError,
    InsufficientHistoryError,
    ModelIOError,
    NumericalError,
    ParameterError,
)
from .evaluation import (
    check_threshold,
    compare_models,
    comparison_csv,
    comparison_table,
    evaluate_predictions,
    report_text,
)
from .layers import DropoutSpec
from .lexicon import default_lexicon, load_lexicon
from .models import HybridModel, ModelDims, linreg_fit, predict_batch, prediction_scores
from .synth import SynthConfig, synth_generate
from .tensor import SeededRng, check_seed, derive_seed
from .training import TrainConfig, TrainLog, fit, gradient_check, grid_search, validation_mse

GRADCHECK_TOLERANCE = 1e-4

_EPILOG = """\
exit codes:
  0  success
  2  usage errors or invalid parameter values
  3  data or schema errors (malformed CSV, misaligned sources, shape mismatches)
  4  numerical failures (non-finite values, singular solves, gradient check above tolerance)
  5  file I/O and model-file errors, and a worker process that died
"""


def _config(cls, args):
    """``cls`` built from the flags named after its fields.  The subparsers
    leave a flag that was not given out of ``args``, so its field keeps the
    default that ``cls`` declares."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.name in args})


def _check_outputs(args, *paths, models=()) -> None:
    """Fail before any work when an output path is a file the command reads:
    one of ``models``, a data file under ``--data`` or the ``--lexicon`` file
    (a parameter error, exit 2); or when it is a directory or its directory is
    missing (an I/O error, exit 5).  ``None`` is an output not asked for."""
    reads = [("model file", model) for model in models]
    reads += [("input file", os.path.join(args.data, name)) for name in data_io.DATA_FILES]
    if args.lexicon:
        reads.append(("lexicon file", args.lexicon))
    for path in paths:
        if path is not None:
            for kind, source in reads:
                if os.path.realpath(path) == os.path.realpath(source):
                    raise ParameterError(f"output {path} would overwrite the {kind} {source}")
            directory = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(directory):
                raise FileNotFoundError(errno.ENOENT, "output directory does not exist",
                                        directory)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)


def _lexicon_from(args):
    return load_lexicon(args.lexicon) if args.lexicon else default_lexicon()


def _add_common_data_flags(sub):
    sub.add_argument("--data", required=True, help="directory holding the input CSV files")
    sub.add_argument("--lexicon", default=None,
                     help="custom sentiment lexicon file ([positive]/[negative] sections)")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _config(SynthConfig, args)
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        # The error os.makedirs would raise, raised before generating.
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
    bundle = synth_generate(cfg, args.out)
    manifest = {
        "generator": "riskcast gen-data",
        "config": asdict(cfg),
        "provenance": bundle.provenance,
        "files": list(data_io.DATA_FILES),
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(manifest['files'])} data files and manifest.json to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _parse_grid(tokens: list[str], cfg: TrainConfig, default_hidden: int
                ) -> list[tuple[float, int]]:
    """The (learning rate, hidden size) points of ``--grid``, each checked,
    or the one point ``--lr``/``--hidden`` when there are no tokens."""
    lrs = [cfg.learning_rate]
    hiddens = [default_hidden]
    for token in tokens:
        if "=" not in token:
            raise ParameterError(f"grid token must look like key=v1,v2: {token!r}")
        key, _, values = token.partition("=")
        if key not in ("lr", "hidden"):
            raise ParameterError(f"unknown grid key {key!r} (expected lr or hidden)")
        try:
            parsed = [(float if key == "lr" else int)(v) for v in values.split(",") if v]
        except ValueError:
            raise ParameterError(f"grid {key} values must be numbers: {token!r}") from None
        if not parsed:
            raise ParameterError(f"grid token has no values: {token!r}")
        if key == "lr":
            lrs = parsed
        else:
            hiddens = parsed
    for lr in lrs:
        replace(cfg, learning_rate=lr)  # TrainConfig checks the rate
    for hidden in hiddens:
        if hidden < 1:
            raise ParameterError(f"hidden size must be >= 1, got {hidden}")
    return [(lr, hidden) for lr in lrs for hidden in hiddens]


# The flags that only the hybrid model reads, by their destination in ``args``.
_HYBRID_FLAGS = {"learning_rate": "--lr", "hidden_size": "--hidden",
                 "batch_size": "--batch-size", "patience": "--patience", "grid": "--grid"}


def cmd_train(args) -> int:
    if args.baseline is not None:
        given = [flag for dest, flag in _HYBRID_FLAGS.items() if dest in args]
        if given:
            raise ParameterError(f"--baseline {args.baseline} does not use {', '.join(given)} "
                                 "(hybrid-model flags)")
    cfg = _config(TrainConfig, args)
    # Checked on the baseline path too, so a bad --dropout never passes silently.
    dropout = _config(DropoutSpec, args)
    if args.baseline is None and cfg.max_epochs == 0:
        raise ParameterError("--epochs must be >= 1 to train the hybrid model")
    hidden = getattr(args, "hidden_size", ModelDims.hidden_size)
    grid = _parse_grid(getattr(args, "grid", []), cfg, hidden)
    pipe_cfg = _config(pipeline.PipelineConfig, args)
    log_path = getattr(args, "log", args.out + ".log.csv")
    _check_outputs(args, args.out)
    _check_outputs(args, log_path, models=[args.out])
    bundle = load_bundle(args.data)
    lexicon = _lexicon_from(args)
    train_set, val_set, test_set, pre = pipeline.make_datasets(
        bundle, lexicon, pipe_cfg, SplitSpec()
    )

    if args.baseline == "linreg":
        model = linreg_fit(train_set)
        model.preprocess = pre
        save_model(model, args.out)
        TrainLog().write_csv(log_path)  # baseline has no epochs; header only
        val_mse = validation_mse(model, val_set)
        print(f"linear baseline fit on {len(train_set)} samples")
        print(f"best validation mse: {val_mse!r}")
        return 0

    def factory(hidden_size: int, seed: int) -> HybridModel:
        dims = ModelDims(
            window=pre.window,
            f_market=len(pre.market_cols),
            f_sentiment=len(pre.sentiment_cols),
            f_static=len(pre.static_all),
            hidden_size=hidden_size,
        )
        return HybridModel.initialize(dims, seed=seed, dropout_p=dropout.p)

    if "grid" in args:
        result = grid_search(factory, train_set, val_set, cfg, grid)
        for trial in result.trials:
            print(f"grid trial lr={trial.learning_rate} hidden={trial.hidden_size} "
                  f"val_mse={trial.val_mse!r}")
        print(f"selected lr={result.learning_rate} hidden={result.hidden_size}")
        model, log = result.model, result.log
    else:
        model = factory(hidden, cfg.seed)
        model, log = fit(model, train_set, val_set, cfg)
    if log.best_epoch == 0:
        raise NumericalError(
            f"training diverged: no epoch of {log.n_epochs} reached a finite validation mse"
        )

    model.preprocess = pre
    save_model(model, args.out)
    log.write_csv(log_path)
    print(f"trained {log.n_epochs} epochs "
          f"(best epoch {log.best_epoch}, early stop: {log.stopped_early})")
    print(f"best validation mse: {log.best_val_mse!r}")
    return 0


# ---------------------------------------------------------------------------
# evaluate / predict / compare
# ---------------------------------------------------------------------------


def _load_model_with_recipe(path):
    model = load_model(path)
    if model.preprocess is None:
        raise ModelIOError(
            f"{path}: model carries no preprocessing recipe; retrain with the CLI"
        )
    return model


def _test_block(args, preprocess):
    """The test block of the samples that ``preprocess`` rebuilds from ``--data``.

    Only the block's rows are built and only the news on them is scored; the
    block is bitwise the one split from the full build.
    """
    return pipeline.build_samples(load_bundle(args.data), _lexicon_from(args), preprocess,
                                  test_block=True)


def _test_reports(args, paths) -> list:
    """One ``(name, report)`` per model file in ``paths``, all scored on one
    test block; every flag and path is checked before the first read."""
    check_threshold(args.threshold)
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ParameterError(f"{paths[0]} and {paths[1]} are the same model file; "
                             "compare needs two models")
    _check_outputs(args, args.csv, models=paths)
    models = [_load_model_with_recipe(path) for path in paths]
    for path, model in zip(paths[1:], models[1:]):
        if model.preprocess != models[0].preprocess:
            raise DataError(
                f"{path}: preprocessing recipe differs from {paths[0]}; "
                "models must be trained on identical splits"
            )
    test_set = _test_block(args, models[0].preprocess)
    return [(f"{model.kind}[{os.path.basename(path)}]",
             evaluate_predictions(test_set.y, prediction_scores(model, test_set), args.threshold))
            for path, model in zip(paths, models)]


def _report(args, reports, text: str) -> int:
    """Print ``text``, and write ``reports`` as CSV when ``--csv`` asks for it."""
    print(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(comparison_csv(reports))
    return 0


def cmd_evaluate(args) -> int:
    reports = _test_reports(args, [args.model])
    return _report(args, reports, report_text(*reports[0]))


def cmd_predict(args) -> int:
    _check_outputs(args, args.out, models=[args.model])
    model = _load_model_with_recipe(args.model)
    bundle = load_bundle(args.data)
    try:
        samples = pipeline.build_samples(bundle, _lexicon_from(args), model.preprocess)
    except InsufficientHistoryError as exc:
        print(f"riskcast: warning: no admissible prediction windows ({exc})",
              file=sys.stderr)
        predictions = []
    else:
        predictions = predict_batch(model, samples)
    data_io.write_predictions_csv(predictions, args.out)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def cmd_compare(args) -> int:
    reports = _test_reports(args, args.models)
    return _report(args, reports, comparison_table(compare_models(reports)))


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    check_seed(args.seed)
    dims = ModelDims(window=4, f_market=2, f_sentiment=3, f_static=3,
                     conv_channels=2, kernel_width=3, hidden_size=3)
    model = HybridModel.initialize(dims, seed=args.seed)
    rng = SeededRng(derive_seed(args.seed, 0x47434B))
    x_seq = rng.normals(dims.window * dims.f_seq).reshape(dims.window, dims.f_seq)
    x_static = rng.normals(dims.f_static)
    target = rng.uniform(0.0, 1.0)
    result = gradient_check(model, x_seq, x_static, target, epsilon=1e-5)
    print(f"checked {result.n_params} parameters")
    print(f"max relative gradient error: {result.max_rel_error!r} "
          f"(worst: {result.worst_param})")
    if result.max_rel_error > GRADCHECK_TOLERANCE:
        print(f"riskcast: gradient error exceeds tolerance {GRADCHECK_TOLERANCE}",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _field_flag(sub, flag, cls, field, help="", **kwargs):
    """``flag``, parsed into ``args.<field>`` and given no default of its own:
    ``cls`` declares the default, which --help shows."""
    sub.add_argument(flag, dest=field, metavar=flag[2:].replace("-", "_").upper(),
                     help=f"{help} (default {getattr(cls, field)})".lstrip(), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcast",
        description="Train and evaluate financial risk behavior forecasters.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # In gen-data and train, a flag that was not given is left out of args,
    # so that the config it feeds keeps its own default (_config).
    gen = subparsers.add_parser("gen-data", help="write a synthetic CSV dataset",
                                argument_default=argparse.SUPPRESS)
    _field_flag(gen, "--days", SynthConfig, "n_days", type=int,
                help="trading days (200 to 2083186)")
    _field_flag(gen, "--seed", SynthConfig, "seed", type=int)
    gen.add_argument("--out", required=True, help="output directory")
    _field_flag(gen, "--base-vol", SynthConfig, "base_vol", type=float)
    _field_flag(gen, "--regime-prob", SynthConfig, "regime_shift_prob", type=float)
    _field_flag(gen, "--kappa", SynthConfig, "kappa", type=float,
                help="planted sentiment-to-volatility coupling in [0, 1]")
    gen.add_argument("--nonlinear", dest="nonlinearity", action=argparse.BooleanOptionalAction,
                     help="plant a sentiment x trend interaction in the volatility "
                          f"(default {SynthConfig.nonlinearity})")
    gen.set_defaults(func=cmd_gen_data)

    train = subparsers.add_parser("train", help="train the hybrid model or a baseline",
                                  argument_default=argparse.SUPPRESS)
    _add_common_data_flags(train)
    train.add_argument("--out", required=True, help="model file to write")
    train.add_argument("--log", help="epoch log CSV (default: <out>.log.csv)")
    _field_flag(train, "--window", pipeline.PipelineConfig, "window", type=int,
                help="days per sample window")
    _field_flag(train, "--horizon", pipeline.PipelineConfig, "horizon", type=int,
                help="days ahead for the risk target")
    _field_flag(train, "--epochs", TrainConfig, "max_epochs", type=int)
    _field_flag(train, "--lr", TrainConfig, "learning_rate", type=float, help="learning rate")
    _field_flag(train, "--hidden", ModelDims, "hidden_size", type=int, help="LSTM hidden size")
    _field_flag(train, "--batch-size", TrainConfig, "batch_size", type=int,
                help="minibatch size")
    _field_flag(train, "--patience", TrainConfig, "patience", type=int,
                help="epochs without a better validation mse before stopping")
    _field_flag(train, "--dropout", DropoutSpec, "p", type=float,
                help="dropout probability on the LSTM's last hidden state")
    _field_flag(train, "--seed", TrainConfig, "seed", type=int)
    train.add_argument("--baseline", choices=["linreg"], default=None,
                       help="fit the linear baseline instead of the hybrid; --grid, --lr, "
                            "--hidden, --batch-size and --patience are then errors")
    train.add_argument("--grid", nargs="+", metavar="KEY=V1,V2",
                       help="grid search, e.g. --grid lr=0.001,0.01 hidden=16,32")
    train.set_defaults(func=cmd_train)

    ev = subparsers.add_parser("evaluate", help="report test-split metrics for a model")
    _add_common_data_flags(ev)
    ev.add_argument("--model", required=True)
    ev.add_argument("--threshold", type=float, default=0.5,
                    help="risk-class threshold for accuracy")
    ev.add_argument("--csv", default=None, help="also write metrics as CSV")
    ev.set_defaults(func=cmd_evaluate)

    pred = subparsers.add_parser("predict", help="write per-date risk scores")
    _add_common_data_flags(pred)
    pred.add_argument("--model", required=True)
    pred.add_argument("--out", required=True, help="predictions CSV to write")
    pred.set_defaults(func=cmd_predict)

    comp = subparsers.add_parser("compare", help="side-by-side test-split comparison")
    _add_common_data_flags(comp)
    comp.add_argument("models", nargs=2, metavar="MODEL",
                      help="two model files trained on identical splits")
    comp.add_argument("--threshold", type=float, default=0.5)
    comp.add_argument("--csv", default=None, help="also write the comparison as CSV")
    comp.set_defaults(func=cmd_compare)

    grad = subparsers.add_parser(
        "gradcheck", help="verify analytic gradients against finite differences"
    )
    grad.add_argument("--seed", type=int, default=42)
    grad.set_defaults(func=cmd_gradcheck)

    return parser


# The exit code of each error class, as _EPILOG lists them.  No error is an
# instance of two of these classes.
_EXIT_CODES = {ParameterError: 2, DataError: 3, DimensionError: 3, NumericalError: 4,
              ModelIOError: 5, OSError: 5}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"riskcast: error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
