import datetime as dt
import os

import numpy as np
import pytest

from riskcast import HybridModel, ModelDims, SampleSet, SeededRng
from riskcast.frames import DatedLabels, calendar_dates, day_numbers
from riskcast.models import LinearRegressionModel


def numeric_grad(loss_fn, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss with respect to ``array``,
    perturbing the array in place."""
    grad = np.empty_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        loss_plus = loss_fn()
        flat[i] = saved - eps
        loss_minus = loss_fn()
        flat[i] = saved
        gflat[i] = (loss_plus - loss_minus) / (2.0 * eps)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def normwise_rel_error(value: np.ndarray, reference: np.ndarray) -> float:
    """||value - reference|| / ||reference||: unlike ``rel_error`` it does not
    blow up on entries that are tiny because of cancellation in a sum."""
    return float(np.linalg.norm(value - reference) / max(np.linalg.norm(reference), 1e-300))


def tiny_dims(**overrides) -> ModelDims:
    base = dict(window=4, f_market=2, f_sentiment=3, f_static=3,
                conv_channels=2, kernel_width=3, hidden_size=3)
    base.update(overrides)
    return ModelDims(**base)


def tiny_hybrid(seed: int = 42, dropout_p: float = 0.2, **overrides) -> HybridModel:
    return HybridModel.initialize(tiny_dims(**overrides), seed=seed, dropout_p=dropout_p)


def random_samples(n: int, dims: ModelDims, seed: int = 0,
                   target_fn=None) -> SampleSet:
    """SampleSet with standard-normal features and targets in [0, 1]."""
    rng = SeededRng(seed)
    x_seq = rng.normals(n * dims.window * dims.f_seq).reshape(n, dims.window, dims.f_seq)
    x_static = rng.normals(n * dims.f_static).reshape(n, dims.f_static)
    if target_fn is None:
        y = rng.uniforms(n, 0.0, 1.0)
    else:
        y = np.array([target_fn(x_seq[i], x_static[i]) for i in range(n)])
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    return SampleSet(x_seq, x_static, y, day_numbers(dates))


def dated_labels(pairs) -> DatedLabels:
    """The news items or policy events of ``(date, label)`` pairs, in order."""
    return DatedLabels(day_numbers([day for day, _ in pairs]), [label for _, label in pairs])


def label_pairs(labels: DatedLabels) -> list[tuple[dt.date, str]]:
    """The ``(date, label)`` pair of each item of ``labels``, in order, after
    checking that its days are int64 ordinals and its labels ``str``s."""
    assert labels.days.dtype == np.int64 and labels.days.shape == (len(labels),)
    assert type(labels.labels) is list and all(type(label) is str for label in labels.labels)
    return list(zip(calendar_dates(labels.days), labels.labels))


def design(samples: SampleSet) -> np.ndarray:
    """The linear model's design matrix: one row ``[x_seq flattened row-major,
    x_static, 1]`` per sample."""
    n = len(samples)
    return np.hstack([samples.x_seq.reshape(n, -1), samples.x_static, np.ones((n, 1))])


def linreg_objective(model: LinearRegressionModel, samples: SampleSet) -> float:
    """Ridge objective ||y - Zb||^2 + lambda ||b||^2 (bias included)."""
    beta = np.concatenate([model.weights, model.bias])
    resid = samples.y - design(samples) @ beta
    return float(resid @ resid + model.ridge_lambda * (beta @ beta))


def allow_cpus(monkeypatch, count):
    """Make ``count`` CPUs usable, through the affinity mask that
    ``workers.usable_cpus`` reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch) -> list:
    """Wrap ``os.fork``; the returned list gets one entry per fork."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20240131)
