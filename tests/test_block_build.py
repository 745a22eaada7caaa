"""The test-block build.

``build_samples(..., test_block=True)``, which ``evaluate`` and ``compare``
use, builds and scores only what the test block reads.  It must give
bitwise the block that ``chronological_split`` cuts from the full build,
and the commands must print and write the same bytes as on the full build.
"""

import dataclasses
import datetime as dt
import functools

import numpy as np
import pytest

from riskcast import (
    PipelineConfig,
    SplitSpec,
    SynthConfig,
    build_samples,
    chronological_split,
    default_lexicon,
    load_bundle,
    load_model,
    make_datasets,
    synth_generate,
)
from riskcast import cli
from riskcast.cli import main
from riskcast.lexicon import SentimentLexicon
from riskcast.pipeline import assemble_frame, split_for

DATA_FILES = ["market.csv", "financial.csv", "macro.csv", "news.csv", "policy.csv"]
CUSTOM_LEXICON = SentimentLexicon(frozenset({"rally", "growth", "calm"}),
                                  frozenset({"crash", "fear", "default"}))


def _full_then_split(bundle, lexicon, preprocess):
    samples = build_samples(bundle, lexicon, preprocess)
    return chronological_split(samples, split_for(preprocess))[2]


def _assert_bitwise(got, want):
    for name in ("x_seq", "x_static", "y", "days"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


def _weekend_news(bundle):
    """Strongly worded items dated on Saturdays across the history, where
    no market row is."""
    first, last = (dt.date.fromordinal(int(d)) for d in bundle.market.days[[0, -1]])
    saturday = first + dt.timedelta(days=(5 - first.weekday()) % 7)
    items = []
    while saturday <= last:
        items.append((saturday, "rally growth crash fear"))
        saturday += dt.timedelta(days=7)
    return items


def _shuffled(items, seed):
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


@functools.cache
def _synth(days, seed):
    return synth_generate(SynthConfig(n_days=days, seed=seed))


@pytest.mark.parametrize("days,seed,variant", [
    (2000, 7, "as generated"),
    (3000, 3, "as generated"),
    (2000, 7, "news out of order"),
    (2000, 7, "no news"),
    (2000, 7, "news on non-trading days"),
    (2000, 7, "custom lexicon"),
])
def test_block_build_equals_full_build_then_split(days, seed, variant):
    bundle = _synth(days, seed)
    lexicon = CUSTOM_LEXICON if variant == "custom lexicon" else default_lexicon()
    news = {
        "news out of order": lambda: _shuffled(bundle.news, seed),
        "no news": lambda: [],
        "news on non-trading days": lambda: bundle.news + _weekend_news(bundle),
    }.get(variant, lambda: bundle.news)()
    bundle = dataclasses.replace(bundle, news=news)
    preprocess = make_datasets(bundle, lexicon, PipelineConfig(), SplitSpec())[3]

    block = build_samples(bundle, lexicon, preprocess, test_block=True)
    _assert_bitwise(block, _full_then_split(bundle, lexicon, preprocess))
    assert len(block) < len(build_samples(bundle, lexicon, preprocess)) // 5


def test_block_frame_is_the_tail_of_the_full_frame():
    bundle = _synth(2000, 7)
    lexicon = default_lexicon()
    preprocess = make_datasets(bundle, lexicon, PipelineConfig(), SplitSpec())[3]
    cfg = preprocess.config
    full = assemble_frame(bundle, lexicon, cfg, preprocess.policy_vocab)
    block = assemble_frame(bundle, lexicon, cfg, preprocess.policy_vocab,
                           test_block_of=preprocess)
    start = len(full) - len(block)
    assert start > 0
    assert block.column_names == full.column_names
    assert np.array_equal(block.days, full.days[start:])
    for name in full.column_names:
        assert full.column(name)[start:].tobytes() == block.column(name).tobytes(), name


# ---------------------------------------------------------------------------
# The commands: the same stdout, stderr, exit code and CSV bytes as on the
# full build.
# ---------------------------------------------------------------------------


def _full_build_test_block(args, preprocess):
    return _full_then_split(load_bundle(args.data), cli._lexicon_from(args), preprocess)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("block")
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--days", "600", "--seed", "3", "--out", str(data_dir)]) == 0
    hybrid, linear = tmp_path / "hybrid.rcm", tmp_path / "linear.rcm"
    assert main(["train", "--data", str(data_dir), "--out", str(hybrid), "--epochs", "1",
                 "--hidden", "4", "--seed", "3"]) == 0
    assert main(["train", "--data", str(data_dir), "--out", str(linear),
                 "--baseline", "linreg"]) == 0
    return tmp_path, data_dir, hybrid, linear


def _copy_data(data_dir, out_dir, skip=()):
    out_dir.mkdir()
    for name in DATA_FILES:
        if name not in skip:
            (out_dir / name).write_bytes((data_dir / name).read_bytes())
    return out_dir


def _data_variant(variant, data_dir, tmp_path):
    """The data directory and extra flags of one variant."""
    out = tmp_path / "variant"
    if variant == "as generated":
        return data_dir, []
    if variant == "custom lexicon":
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("[positive]\nrally\ngrowth\n[negative]\ncrash\nfear\n")
        return data_dir, ["--lexicon", str(lexicon)]
    if variant == "no news.csv":
        return _copy_data(data_dir, out, skip=("news.csv",)), []
    _copy_data(data_dir, out)
    news = out / "news.csv"
    header, *rows = news.read_text().splitlines()
    if variant == "news out of order":
        rows = rows[::-1]
    else:
        rows += [f"{day.isoformat()},{text}"
                 for day, text in _weekend_news(load_bundle(str(data_dir)))]
    news.write_text("\n".join([header, *rows]) + "\n")
    return out, []


def _run_both_ways(monkeypatch, capsys, argv, csv_path):
    """(exit code, stdout, stderr, CSV bytes) of ``argv`` on the test-block
    build, then on the full build."""
    results = []
    for full in (False, True):
        if full:
            monkeypatch.setattr(cli, "_test_block", _full_build_test_block)
        if csv_path is not None and csv_path.exists():
            csv_path.unlink()
        rc = main(argv)
        captured = capsys.readouterr()
        written = csv_path.read_bytes() if csv_path is not None and csv_path.exists() else None
        results.append((rc, captured.out, captured.err, written))
    return results


@pytest.mark.parametrize("variant", ["as generated", "news out of order", "no news.csv",
                                     "news on non-trading days", "custom lexicon"])
@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_commands_match_the_full_build(workspace, tmp_path, monkeypatch, capsys,
                                       command, variant):
    _, data_dir, hybrid, linear = workspace
    data, extra = _data_variant(variant, data_dir, tmp_path)
    csv_path = tmp_path / "metrics.csv"
    models = ["--model", str(hybrid)] if command == "evaluate" else [str(hybrid), str(linear)]
    argv = [command, *models, "--data", str(data), "--csv", str(csv_path), *extra]
    block, full = _run_both_ways(monkeypatch, capsys, argv, csv_path)
    assert block[0] == 0
    assert block[3]
    assert block == full


# ---------------------------------------------------------------------------
# Short histories
# ---------------------------------------------------------------------------


def _cut_to_samples(data_dir, out_dir, hybrid_path, n_samples):
    """Copy of the data ending where the aligned history holds ``n_samples``
    windows under the model's recipe."""
    pre = load_model(hybrid_path).preprocess
    bundle = load_bundle(str(data_dir))
    frame = assemble_frame(bundle, default_lexicon(), pre.config, pre.policy_vocab)
    cutoff = frame.dates[pre.window + pre.config.horizon + n_samples - 2].isoformat()
    out_dir.mkdir()
    for name in DATA_FILES:
        lines = (data_dir / name).read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] <= cutoff]
        (out_dir / name).write_text("\n".join(kept) + "\n")
    return out_dir


def _with_split(model_path, out_path, fractions):
    lines = model_path.read_text().splitlines()
    lines = [f"split {fractions}" if line.startswith("split ") else line for line in lines]
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("n_samples,fractions,message", [
    (0, None, "insufficient data"),
    (5, None, "chronological split needs at least 10 samples, got 5"),
    (12, "0.9 0.05 0.05", "split of 12 samples leaves an empty block: 10/0/2"),
])
def test_short_history_exits_3_as_on_the_full_build(workspace, tmp_path, monkeypatch, capsys,
                                                    command, n_samples, fractions, message):
    _, data_dir, hybrid, linear = workspace
    short = _cut_to_samples(data_dir, tmp_path / "short", hybrid, n_samples)
    if fractions is not None:
        hybrid = _with_split(hybrid, tmp_path / "hybrid.rcm", fractions)
        linear = _with_split(linear, tmp_path / "linear.rcm", fractions)
    csv_path = tmp_path / "metrics.csv"
    models = ["--model", str(hybrid)] if command == "evaluate" else [str(hybrid), str(linear)]
    argv = [command, *models, "--data", str(short), "--csv", str(csv_path)]
    block, full = _run_both_ways(monkeypatch, capsys, argv, csv_path)
    assert block[0] == 3
    assert message in block[2]
    assert block[3] is None
    assert block == full


def test_train_refuses_a_short_history_as_evaluate_does(workspace, tmp_path, capsys):
    """Training counts and checks its samples by the rule that evaluation
    splits them by, so both refuse the same history with the same message."""
    _, data_dir, hybrid, _ = workspace
    short = str(_cut_to_samples(data_dir, tmp_path / "short", hybrid, 5))
    errors = []
    for argv in (["train", "--data", short, "--out", str(tmp_path / "m.rcm"),
                  "--baseline", "linreg"],
                 ["evaluate", "--data", short, "--model", str(hybrid)]):
        assert main(argv) == 3
        errors.append(capsys.readouterr().err)
    assert errors == ["riskcast: error: chronological split needs at least 10 samples, "
                      "got 5\n"] * 2
