"""Evaluation metrics (MSE, thresholded accuracy, R^2) and the side-by-side
model comparison report.

Accuracy for this regression task is defined as agreement of risk classes
after binarizing both the target and the prediction at a threshold tau
(value > tau means high risk).  The threshold is recorded in every report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, NumericalError, ParameterError
from .training import mse_loss


def compute_mse(y, yhat) -> float:
    """Mean squared error; shares its definition with the training loss."""
    return mse_loss(y, yhat)[0]


def _check_pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.ndim != 1 or yhat.ndim != 1:
        raise DimensionError("metric inputs must be 1-d vectors")
    if y.size == 0:
        raise DataError("metric over empty vectors")
    if y.shape != yhat.shape:
        raise DimensionError(f"metric length mismatch: {y.size} vs {yhat.size}")
    return y, yhat


def check_threshold(threshold: float) -> None:
    if not np.isfinite(threshold):
        # NaN or +-inf puts every finite value in one class: accuracy 1.0.
        raise ParameterError(f"threshold must be finite, got {threshold}")


def compute_accuracy(y, yhat, threshold: float = 0.5) -> float:
    """Fraction of samples whose risk class (value > threshold) matches."""
    y, yhat = _check_pair(y, yhat)
    check_threshold(threshold)
    return float(np.mean((y > threshold) == (yhat > threshold)))


def compute_r2(y, yhat) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Raises instead of returning NaN when the targets have no variance.
    """
    y, yhat = _check_pair(y, yhat)
    if y.size < 2:
        raise DataError(f"R^2 needs at least 2 samples, got {y.size}")
    resid = y - yhat
    centered = y - np.mean(y)
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        raise NumericalError("R^2 is undefined: targets have zero variance")
    return 1.0 - float(resid @ resid) / ss_tot


@dataclass
class EvalReport:
    mse: float
    accuracy: float
    r2: float
    n: int
    threshold: float


def evaluate_predictions(y, yhat, threshold: float = 0.5) -> EvalReport:
    y, yhat = _check_pair(y, yhat)
    return EvalReport(
        mse=compute_mse(y, yhat),
        accuracy=compute_accuracy(y, yhat, threshold),
        r2=compute_r2(y, yhat),
        n=y.size,
        threshold=threshold,
    )


@dataclass
class ComparisonReport:
    rows: list[tuple[str, EvalReport]]
    winners: dict[str, str]  # metric -> row name, or "tie"


_METRICS = (
    ("mse", lambda r: r.mse, min),
    ("accuracy", lambda r: r.accuracy, max),
    ("r2", lambda r: r.r2, max),
)


def compare_models(reports: list[tuple[str, EvalReport]]) -> ComparisonReport:
    """Rank at least two reports computed on identical test samples.

    Winner per metric: minimum MSE, maximum accuracy, maximum R^2; exact
    ties are reported as ``"tie"``.
    """
    if len(reports) < 2:
        raise DataError(f"comparison needs at least 2 reports, got {len(reports)}")
    counts = {report.n for _, report in reports}
    if len(counts) != 1:
        raise DataError(f"reports cover different sample counts: {sorted(counts)}")
    winners: dict[str, str] = {}
    for metric, getter, best_of in _METRICS:
        values = [getter(report) for _, report in reports]
        best = best_of(values)
        names = [name for (name, report) in reports if getter(report) == best]
        winners[metric] = names[0] if len(names) == 1 else "tie"
    return ComparisonReport(rows=list(reports), winners=winners)


def comparison_table(comparison: ComparisonReport) -> str:
    """Aligned plain-text table plus one winner line per metric."""
    name_width = max(len("model"), *(len(name) for name, _ in comparison.rows))
    lines = [
        f"{'model':<{name_width}}  {'mse':>12}  {'accuracy':>10}  {'r2':>10}  {'n':>6}"
    ]
    for name, report in comparison.rows:
        lines.append(
            f"{name:<{name_width}}  {report.mse:>12.6f}  {report.accuracy:>10.4f}  "
            f"{report.r2:>10.4f}  {report.n:>6d}"
        )
    lines.append("")
    for metric in ("mse", "accuracy", "r2"):
        lines.append(f"winner {metric}: {comparison.winners[metric]}")
    return "\n".join(lines)


def comparison_csv(rows: list[tuple[str, EvalReport]]) -> str:
    """Machine-readable ``(name, report)`` rows, full float precision."""
    lines = ["model,mse,accuracy,r2"]
    for name, report in rows:
        lines.append(f"{name},{report.mse!r},{report.accuracy!r},{report.r2!r}")
    return "\n".join(lines) + "\n"


def report_text(name: str, report: EvalReport) -> str:
    return (
        f"model: {name}\n"
        f"samples: {report.n}\n"
        f"threshold: {report.threshold!r}\n"
        f"mse: {report.mse!r}\n"
        f"accuracy: {report.accuracy!r}\n"
        f"r2: {report.r2!r}"
    )
