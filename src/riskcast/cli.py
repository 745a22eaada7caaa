"""Command-line surface: data generation, training, evaluation, prediction,
model comparison, and gradient checking.

Every command is deterministic given its flags; all randomness flows from
``--seed`` (default 42, a fixed documented value, never the wall clock).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import data_io, pipeline
from .data_io import SplitSpec, load_bundle, load_model, save_model
from .errors import (
    DataError,
    DimensionError,
    InsufficientHistoryError,
    ModelIOError,
    NumericalError,
    ParameterError,
    SchemaError,
)
from .evaluation import (
    compare_models,
    comparison_csv,
    comparison_table,
    compute_mse,
    evaluate_predictions,
    report_csv,
    report_text,
)
from .frames import drop_incomplete_rows
from .layers import DropoutSpec
from .lexicon import default_lexicon, load_lexicon
from .models import HybridModel, ModelDims, linreg_fit, predict_batch, prediction_scores
from .synth import SynthConfig, synth_generate
from .tensor import SeededRng, derive_seed
from .training import TrainConfig, TrainLog, fit, gradient_check, grid_search

GRADCHECK_TOLERANCE = 1e-4

_EPILOG = """\
exit codes:
  0  success
  2  usage errors or invalid parameter values
  3  data or schema errors (malformed CSV, misaligned sources, shape mismatches)
  4  numerical failures (non-finite values, singular solves, gradient check above tolerance)
  5  file I/O and model-file errors
"""


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
    cfg = SynthConfig(
        n_days=args.days,
        seed=args.seed,
        base_vol=args.base_vol,
        regime_shift_prob=args.regime_prob,
        kappa=args.kappa,
        nonlinearity=args.nonlinear,
    )
    bundle = synth_generate(cfg)
    os.makedirs(args.out, exist_ok=True)

    def _path(name):
        return os.path.join(args.out, name)

    data_io.write_frame_csv(bundle.market, _path("market.csv"))
    # Unbundle the outer-joined financial/macro frame into its two files.
    for columns, name in ((data_io.FINANCIAL_COLUMNS, "financial.csv"),
                          (data_io.MACRO_COLUMNS, "macro.csv")):
        data_io.write_frame_csv(drop_incomplete_rows(bundle.financial.select(list(columns))),
                                _path(name))
    data_io.write_news_csv(bundle.news, _path("news.csv"))
    data_io.write_policy_csv(bundle.policy, _path("policy.csv"))
    manifest = {
        "generator": "riskcast gen-data",
        "config": {
            "n_days": cfg.n_days,
            "seed": cfg.seed,
            "base_vol": cfg.base_vol,
            "regime_shift_prob": cfg.regime_shift_prob,
            "kappa": cfg.kappa,
            "nonlinearity": cfg.nonlinearity,
        },
        "provenance": bundle.provenance,
        "files": ["market.csv", "financial.csv", "macro.csv", "news.csv", "policy.csv"],
    }
    with open(_path("manifest.json"), "w", encoding="utf-8") as handle:
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


def cmd_train(args) -> int:
    cfg = TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        patience=args.patience,
        seed=args.seed,
    )
    # Checked on the baseline path too, so a bad --dropout never passes silently.
    dropout = DropoutSpec(args.dropout)
    if args.baseline is None and cfg.max_epochs == 0:
        raise ParameterError("--epochs must be >= 1 to train the hybrid model")
    grid = _parse_grid(args.grid or [], cfg, args.hidden)
    bundle = load_bundle(args.data)
    lexicon = _lexicon_from(args)
    pipe_cfg = pipeline.PipelineConfig(window=args.window, horizon=args.horizon)
    train_set, val_set, test_set, pre = pipeline.make_datasets(
        bundle, lexicon, pipe_cfg, SplitSpec()
    )
    log_path = args.log or args.out + ".log.csv"

    if args.baseline == "linreg":
        model = linreg_fit(train_set)
        model.preprocess = pre
        save_model(model, args.out)
        TrainLog().write_csv(log_path)  # baseline has no epochs; header only
        val_mse = compute_mse(val_set.y, prediction_scores(model, val_set))
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

    if args.grid:
        result = grid_search(factory, train_set, val_set, cfg, grid)
        for trial in result.trials:
            print(f"grid trial lr={trial.learning_rate} hidden={trial.hidden_size} "
                  f"val_mse={trial.val_mse!r}")
        print(f"selected lr={result.learning_rate} hidden={result.hidden_size}")
        model, log = result.model, result.log
    else:
        model = factory(args.hidden, cfg.seed)
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
    """The test block of the samples that ``preprocess`` rebuilds from ``--data``."""
    samples = pipeline.build_samples(load_bundle(args.data), _lexicon_from(args), preprocess)
    return data_io.chronological_split(samples, pipeline.split_for(preprocess))[2]


def cmd_evaluate(args) -> int:
    model = _load_model_with_recipe(args.model)
    test_set = _test_block(args, model.preprocess)
    scores = prediction_scores(model, test_set)
    report = evaluate_predictions(test_set.y, scores, threshold=args.threshold)
    name = f"{model.kind}[{os.path.basename(args.model)}]"
    print(report_text(name, report))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(report_csv(name, report))
    return 0


def cmd_predict(args) -> int:
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
    models = [_load_model_with_recipe(path) for path in args.models]
    first = models[0].preprocess
    for path, model in zip(args.models[1:], models[1:]):
        if model.preprocess != first:
            raise DataError(
                f"{path}: preprocessing recipe differs from {args.models[0]}; "
                "models must be trained on identical splits"
            )
    test_set = _test_block(args, first)
    reports = []
    for path, model in zip(args.models, models):
        scores = prediction_scores(model, test_set)
        name = f"{model.kind}[{os.path.basename(path)}]"
        reports.append((name, evaluate_predictions(test_set.y, scores, args.threshold)))
    comparison = compare_models(reports)
    print(comparison_table(comparison))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(comparison_csv(comparison))
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    dims = ModelDims(window=4, f_market=2, f_sentiment=3, f_static=3,
                     conv_channels=2, kernel_width=3, hidden_size=3)
    model = HybridModel.initialize(dims, seed=args.seed, dropout_p=0.2)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcast",
        description="Train and evaluate financial risk behavior forecasters.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("gen-data", help="write a synthetic CSV dataset")
    gen.add_argument("--days", type=int, default=2000, help="trading days (200 to 2083186)")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--base-vol", type=float, default=0.01)
    gen.add_argument("--regime-prob", type=float, default=0.04)
    gen.add_argument("--kappa", type=float, default=0.8,
                     help="planted sentiment-to-volatility coupling in [0, 1]")
    gen.add_argument("--nonlinear", action=argparse.BooleanOptionalAction, default=True,
                     help="plant a sentiment x trend interaction in the volatility")
    gen.set_defaults(func=cmd_gen_data)

    train = subparsers.add_parser("train", help="train the hybrid model or a baseline")
    _add_common_data_flags(train)
    train.add_argument("--out", required=True, help="model file to write")
    train.add_argument("--log", default=None, help="epoch log CSV (default: <out>.log.csv)")
    train.add_argument("--window", type=int, default=20, help="days per sample window")
    train.add_argument("--horizon", type=int, default=5, help="days ahead for the risk target")
    train.add_argument("--epochs", type=int, default=200)
    train.add_argument("--lr", type=float, default=1e-3)
    train.add_argument("--hidden", type=int, default=32)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--patience", type=int, default=10)
    train.add_argument("--dropout", type=float, default=0.2)
    train.add_argument("--seed", type=int, default=42)
    train.add_argument("--baseline", choices=["linreg"], default=None,
                       help="fit the linear baseline instead of the hybrid")
    train.add_argument("--grid", nargs="+", default=None, metavar="KEY=V1,V2",
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"riskcast: error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, DataError, DimensionError) as exc:
        print(f"riskcast: error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"riskcast: error: {exc}", file=sys.stderr)
        return 4
    except (ModelIOError, OSError) as exc:
        print(f"riskcast: error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
