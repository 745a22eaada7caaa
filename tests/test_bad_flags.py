"""Every invalid flag value is a usage error raised before the first read.

``BAD_FLAGS`` holds, per subcommand, invalid values of each flag that has
any.  Each row runs with the inputs present and, for a command that reads
data, with them missing.  It must exit 2 with the row's message, read nothing
(``load_bundle`` and ``load_model`` fail if called) and leave every file as
it was.  A second test walks the parser, so a value-taking flag added without
a row fails it.
"""

import argparse

import pytest

from riskcast import cli
from riskcast.cli import main

_BASELINE = "--baseline linreg does not use {} (hybrid-model flags)"
_OVERWRITES = "output {0} would overwrite the {1} {0}"

# (command, flag under test, argv, expected message).  Placeholders: {tmp} is
# an empty temporary directory; {data}, {hybrid}, {linear} and {lexicon} are the
# inputs, all in {dir}, which is either a real workspace or missing.
BAD_FLAGS = [
    ("gen-data", "--days", "gen-data --out {tmp}/gen --days 199",
     "n_days must be >= 200, got 199"),
    ("gen-data", "--days", "gen-data --out {tmp}/gen --days 2083187",
     "n_days must be <= 2083186"),
    *[("gen-data", "--base-vol", f"gen-data --out {{tmp}}/gen --base-vol {value}",
       f"base_vol must be positive and finite, got {value}")
      for value in ("0.0", "-0.01", "nan", "inf")],
    *[("gen-data", "--regime-prob", f"gen-data --out {{tmp}}/gen --regime-prob {value}",
       f"regime_shift_prob must lie in [0, 1], got {value}") for value in ("-0.1", "1.5", "nan")],
    *[("gen-data", "--kappa", f"gen-data --out {{tmp}}/gen --kappa {value}",
       f"kappa must lie in [0, 1], got {value}") for value in ("-0.5", "1.5", "nan")],

    ("train", "--window", "train --data {data} --out {tmp}/m.rcm --window 0",
     "window and horizon must be >= 1, got 0, 5"),
    ("train", "--horizon", "train --data {data} --out {tmp}/m.rcm --horizon 0",
     "window and horizon must be >= 1, got 20, 0"),
    ("train", "--epochs", "train --data {data} --out {tmp}/m.rcm --epochs 0",
     "--epochs must be >= 1 to train the hybrid model"),
    ("train", "--epochs", "train --data {data} --out {tmp}/m.rcm --epochs 0 --grid lr=0.001,0.01",
     "--epochs must be >= 1 to train the hybrid model"),
    ("train", "--epochs", "train --data {data} --out {tmp}/m.rcm --epochs -1 --baseline linreg",
     "max_epochs must be >= 0, got -1"),
    *[("train", "--lr", f"train --data {{data}} --out {{tmp}}/m.rcm --lr {value}",
       f"learning rate must be positive and finite, got {value}")
      for value in ("0.0", "-0.001", "nan", "inf")],
    ("train", "--hidden", "train --data {data} --out {tmp}/m.rcm --hidden 0",
     "hidden size must be >= 1, got 0"),
    ("train", "--batch-size", "train --data {data} --out {tmp}/m.rcm --batch-size 0",
     "batch_size must be >= 1, got 0"),
    ("train", "--patience", "train --data {data} --out {tmp}/m.rcm --patience 0",
     "patience must be >= 1, got 0"),
    *[("train", "--dropout", f"train --data {{data}} --out {{tmp}}/m.rcm --dropout {value}{extra}",
       f"dropout probability must be in [0, 1), got {value}")
      for value, extra in (("1.0", ""), ("1.0", " --baseline linreg"), ("-0.1", ""),
                           ("nan", ""))],
    ("train", "--grid", "train --data {data} --out {tmp}/m.rcm --grid lr=abc",
     "grid lr values must be numbers: 'lr=abc'"),
    ("train", "--grid", "train --data {data} --out {tmp}/m.rcm --grid hidden=1.5",
     "grid hidden values must be numbers: 'hidden=1.5'"),
    ("train", "--grid", "train --data {data} --out {tmp}/m.rcm --grid hidden=0",
     "hidden size must be >= 1, got 0"),
    ("train", "--grid", "train --data {data} --out {tmp}/m.rcm --grid lr=0.01,nan",
     "learning rate must be positive and finite, got nan"),
    ("train", "--grid", "train --data {data} --out {tmp}/m.rcm --grid depth=3",
     "unknown grid key 'depth' (expected lr or hidden)"),
    ("train", "--grid", "train --data {data} --out {tmp}/m.rcm --grid lr",
     "grid token must look like key=v1,v2: 'lr'"),
    ("train", "--grid", "train --data {data} --out {tmp}/m.rcm --grid lr=",
     "grid token has no values: 'lr='"),
    ("train", "--baseline", "train --data {data} --out {tmp}/m.rcm --baseline ridge",
     "invalid choice: 'ridge'"),
    *[("train", "--baseline", f"train --data {{data}} --out {{tmp}}/m.rcm --baseline linreg "
       f"{flags}", _BASELINE.format(flags.split()[0]))
      for flags in ("--grid lr=0.5 hidden=3", "--lr 5", "--hidden 7", "--patience 3",
                    "--batch-size 1")],
    ("train", "--out", "train --data {data} --out {data}/market.csv",
     _OVERWRITES.format("{data}/market.csv", "input file")),
    ("train", "--log", "train --data {data} --out {tmp}/m.rcm --log {data}/financial.csv",
     _OVERWRITES.format("{data}/financial.csv", "input file")),
    ("train", "--log", "train --data {data} --out {tmp}/m.rcm --log {tmp}/./m.rcm",
     "output {tmp}/./m.rcm would overwrite the model file {tmp}/m.rcm"),
    ("train", "--log",
     "train --data {data} --lexicon {lexicon} --out {tmp}/m.rcm --log {lexicon}",
     _OVERWRITES.format("{lexicon}", "lexicon file")),

    *[(command, "--threshold", f"{command} --data {{data}} {models} --csv {{tmp}}/metrics.csv "
       f"--threshold={value}", f"threshold must be finite, got {value}")
      for command, models in (("evaluate", "--model {hybrid}"), ("compare", "{hybrid} {linear}"))
      for value in ("nan", "inf", "-inf")],
    ("evaluate", "--csv", "evaluate --data {data} --model {hybrid} --csv {data}/policy.csv",
     _OVERWRITES.format("{data}/policy.csv", "input file")),
    ("evaluate", "--csv", "evaluate --data {data} --model {hybrid} --csv {dir}/./hybrid.rcm",
     "output {dir}/./hybrid.rcm would overwrite the model file {hybrid}"),
    ("evaluate", "--csv",
     "evaluate --data {data} --lexicon {lexicon} --model {hybrid} --csv {lexicon}",
     _OVERWRITES.format("{lexicon}", "lexicon file")),

    ("predict", "--out", "predict --data {data} --model {hybrid} --out {data}/news.csv",
     _OVERWRITES.format("{data}/news.csv", "input file")),
    ("predict", "--out", "predict --data {data} --model {hybrid} --out {data}/../data/macro.csv",
     "output {data}/../data/macro.csv would overwrite the input file {data}/macro.csv"),
    ("predict", "--out", "predict --data {data} --model {hybrid} --out {dir}/./hybrid.rcm",
     "output {dir}/./hybrid.rcm would overwrite the model file {hybrid}"),
    ("predict", "--out",
     "predict --data {data} --lexicon {lexicon} --model {hybrid} --out {lexicon}",
     _OVERWRITES.format("{lexicon}", "lexicon file")),

    ("compare", "models", "compare --data {data} {hybrid} {dir}/./hybrid.rcm",
     "{hybrid} and {dir}/./hybrid.rcm are the same model file; compare needs two models"),
    ("compare", "--csv", "compare --data {data} {hybrid} {linear} --csv {data}/market.csv",
     _OVERWRITES.format("{data}/market.csv", "input file")),
    ("compare", "--csv", "compare --data {data} {hybrid} {linear} --csv {data}/../linear.rcm",
     "output {data}/../linear.rcm would overwrite the model file {linear}"),
    ("compare", "--csv",
     "compare --data {data} --lexicon {lexicon} {hybrid} {linear} --csv {lexicon}",
     _OVERWRITES.format("{lexicon}", "lexicon file")),
]

# Value-taking flags with no invalid value: input paths (a missing or
# malformed input is a read error, exit 3 or 5), gen-data's output directory,
# and seeds (any integer is a seed).
NO_INVALID_VALUE = {
    ("gen-data", "--seed"), ("gen-data", "--out"),
    ("train", "--data"), ("train", "--lexicon"), ("train", "--seed"),
    ("evaluate", "--data"), ("evaluate", "--lexicon"), ("evaluate", "--model"),
    ("predict", "--data"), ("predict", "--lexicon"), ("predict", "--model"),
    ("compare", "--data"), ("compare", "--lexicon"),
    ("gradcheck", "--seed"),
}


def _row_id(row):
    return row[2].replace("{", "").replace("}", "")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Real inputs: a dataset, a hybrid and a linear model, and a lexicon."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    assert main(["gen-data", "--days", "200", "--seed", "3", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(root / "hybrid.rcm"),
                 "--epochs", "1", "--hidden", "2"]) == 0
    assert main(["train", "--data", str(data), "--out", str(root / "linear.rcm"),
                 "--baseline", "linreg"]) == 0
    (root / "lexicon.txt").write_text("[positive]\nrally\n[negative]\ncrash\n")
    return root


def _snapshot(*roots):
    return {path: path.read_bytes() if path.is_file() else None
            for root in roots for path in sorted(root.rglob("*"))}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.mark.parametrize("row, data", [
    pytest.param(row, data, id=f"{_row_id(row)}-{data}") for row in BAD_FLAGS
    for data in (("present",) if row[0] == "gen-data" else ("present", "missing"))])
def test_bad_flag_is_a_usage_error_before_any_read(workspace, tmp_path, monkeypatch, capsys,
                                                   row, data):
    _, _, argv, message = row

    def unreachable(*args):
        raise AssertionError("input read before every flag was checked")

    monkeypatch.setattr(cli, "load_bundle", unreachable)
    monkeypatch.setattr(cli, "load_model", unreachable)
    root = workspace if data == "present" else tmp_path / "missing"
    paths = {"tmp": tmp_path, "dir": root, "data": root / "data", "hybrid": root / "hybrid.rcm",
             "linear": root / "linear.rcm", "lexicon": root / "lexicon.txt"}
    before = _snapshot(workspace, tmp_path)
    assert _exit_code([token.format(**paths) for token in argv.split()]) == 2
    assert message.format(**paths) in capsys.readouterr().err
    assert _snapshot(workspace, tmp_path) == before


def _value_taking_flags():
    """``(command, flag)`` for every flag that takes a value; a positional
    argument is named by its destination."""
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return {(command, action.option_strings[0] if action.option_strings else action.dest)
            for command, sub in subparsers.choices.items()
            for action in sub._actions if action.nargs != 0}


def test_every_value_taking_flag_has_a_row_or_no_invalid_value():
    flags = _value_taking_flags()
    tested = {(command, flag) for command, flag, _, _ in BAD_FLAGS}
    assert sorted(flags - tested - NO_INVALID_VALUE) == []
    assert sorted((tested | NO_INVALID_VALUE) - flags) == []
    assert sorted(tested & NO_INVALID_VALUE) == []
    for command, flag, argv, _ in BAD_FLAGS:
        assert argv.split()[0] == command
        given = [token.partition("=")[0] for token in argv.split()]
        assert flag == "models" or flag in given, (command, flag, argv)
