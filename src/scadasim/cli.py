"""Command-line entry point: options, --out checks and printing. The work is
the package's: ``run_scenario`` and ``write_artifacts``, ``evaluate_grid``.

Exit codes: 0 success, 2 configuration or dataset error (including training
data a detector cannot fit), 3 balance calibration failure, 4 IDS
training-protocol violation (semi-supervised purity), 1 anything else.
An option value that cannot be used (an --algo list that names no known
algorithm or one twice, two --test files with one name, an --out that cannot
be what the command writes, a directory at one of its file paths) is refused
with exit code 2 before any work.
``simulate`` and ``ids eval`` write into an existing --out directory; before
any work they remove the optional files of an earlier run that this run does
not write (``trace.csv``, ``grid_truth.csv``, ``models/<algo>.json``), so a
finished run leaves no artifact of an earlier run beside its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .capture import (
    CalibrationError,
    DatasetFormatError,
    LabeledDataset,
    PurityError,
    TrainingDataError,
    check_balance,
    export_csv,
    import_csv,
)
from .config import ConfigError
from .scenario import ARTIFACTS, artifact_names, load_fixture, run_scenario, write_artifacts
from .writers import write_json, write_lines

if TYPE_CHECKING:
    from .ids import EvalCell

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_PROTOCOL = 4

# the report files of ``ids eval``, beside its models/<algo>.json files
REPORT_FILES = ("eval_report.json", "f1_per_scenario.csv", "report_table.txt")


class OptionError(ValueError):
    """A command-line option's value cannot be used; the message names the option."""


def _prepare_out(out: str, directory: str, written=(), stale=()) -> None:
    """Before any work, for the files of ``--out out``: create ``directory`` and
    its parents, refuse a directory at a ``written`` path, and remove each of
    ``stale`` that an earlier run left there."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise OptionError(f"--out {out}: cannot create directory {directory}: "
                          f"{exc.strerror}") from None
    for path in written:
        if os.path.isdir(path):
            raise OptionError(f"--out {out}: cannot write {path}: it is a directory")
    for path in stale:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise OptionError(f"--out {out}: cannot remove {path}: {exc.strerror}") from None


def cmd_simulate(args) -> int:
    config = load_fixture(args.scenario)
    names = artifact_names(args.trace, args.grid_csv)
    _prepare_out(args.out, args.out, [os.path.join(args.out, name) for name in names],
                 [os.path.join(args.out, name) for name in ARTIFACTS if name not in names])
    result = run_scenario(config, seed=args.seed, trace=args.trace)
    write_artifacts(result, args.out, grid_csv=args.grid_csv)
    check_balance(config.scenario_id, config.capture.balance_target, result.dataset)
    print(f"simulated scenario {config.scenario_id} seed {result.seed}: "
          f"{len(result.dataset.records)} records, attack share {result.dataset.balance[0]:.2f}%")
    return EXIT_OK


def cmd_dataset_export(args) -> int:
    config = load_fixture(args.scenario)
    if os.path.isdir(args.out):
        raise OptionError(f"--out {args.out}: is a directory; expected the path of the CSV file")
    if os.path.basename(args.out) in ("", ".", ".."):
        raise OptionError(f"--out {args.out!r}: names no file; expected the path of the CSV file")
    out_dir = os.path.dirname(args.out)
    if out_dir:
        _prepare_out(args.out, out_dir)
    result = run_scenario(config, seed=args.seed)
    export_csv(result.dataset, args.out)
    print(f"wrote {args.out}: {len(result.dataset.records)} records")
    return EXIT_OK


def _parse_algorithms(spec: str) -> list[str]:
    from .ids import ALGORITHMS
    algorithms = [a.strip() for a in spec.split(",") if a.strip()]
    if not algorithms:
        raise OptionError(f"--algo names no algorithm; expected some of {'/'.join(ALGORITHMS)}")
    for i, a in enumerate(algorithms):
        if a not in ALGORITHMS:
            raise OptionError(f"--algo names unknown algorithm {a!r}; "
                              f"expected {'/'.join(ALGORITHMS)}")
        if a in algorithms[:i]:
            raise OptionError(f"--algo names {a!r} twice; name each algorithm once")
    return algorithms


def _dataset_name(path: str) -> str:
    """A dataset's name in the reports: its file name without the extension."""
    return os.path.splitext(os.path.basename(path))[0]


def _load_datasets(paths: list[str]) -> list[tuple[str, LabeledDataset]]:
    out = []
    for path in paths:
        if not os.path.isfile(path):
            raise FileNotFoundError(f"dataset file not found: {path}")
        out.append((_dataset_name(path), import_csv(path)))
    return out


def cmd_ids_eval(args) -> int:
    from .ids import ALGORITHMS, GridTrainingError, evaluate_grid, save_model
    algorithms = _parse_algorithms(args.algo)
    test_names = [_dataset_name(path) for path in args.test]
    for i, name in enumerate(test_names):
        if name in test_names[:i]:
            raise OptionError(f"--test names two files called {name!r}; the report keys "
                              "each test set by its file name")
    train_sets = _load_datasets(args.train)
    test_sets = _load_datasets(args.test)
    models_dir = os.path.join(args.out, "models")
    model_paths = {algorithm: os.path.join(models_dir, f"{algorithm}.json")
                   for algorithm in ALGORITHMS}
    report_paths = [os.path.join(args.out, name) for name in REPORT_FILES]
    # --out itself first: "" names no directory, though models_dir is then "models"
    _prepare_out(args.out, args.out, report_paths)
    _prepare_out(args.out, models_dir,
                 [model_paths[algorithm] for algorithm in algorithms],
                 [path for algorithm, path in model_paths.items() if algorithm not in algorithms])
    try:
        cells, models = evaluate_grid(train_sets, test_sets, algorithms, args.seed,
                                      args.semi_train)
    except GridTrainingError as exc:
        source = "the warm-up slice of " if exc.warmup else ""
        raise TrainingDataError(f"cannot train {exc.algorithm} on {source}"
                                f"{' '.join(args.train)}: {exc}") from None
    for algorithm, model in models.items():
        save_model(model, model_paths[algorithm])
    report_json, f1_csv, table_txt = report_paths
    write_json(report_json, [cell.to_dict() for cell in cells])
    write_lines(f1_csv, ["algorithm,train,test,f1"] + [
        f"{cell.algorithm},{cell.train_scenario},{cell.test_scenario},{cell.f1!r}" for cell in cells])
    table = render_table(cells)
    write_lines(table_txt, table)
    print("\n".join(table))
    return EXIT_OK


def render_table(cells: list[EvalCell]) -> list[str]:
    header = f"{'algorithm':<10} {'train':<16} {'test':<16} {'TP':>8} {'FP':>6} {'FN':>6} " \
             f"{'precision':>9} {'recall':>9} {'F1':>9}"
    return [header, "-" * len(header)] + [_table_row(c) for c in cells]


def _table_row(c: EvalCell) -> str:
    return (f"{c.algorithm:<10} {c.train_scenario:<16} {c.test_scenario:<16} "
            f"{c.tp:>8} {c.fp:>6} {c.fn:>6} {c.precision:>9.4f} {c.recall:>9.4f} {c.f1:>9.4f}")


def cmd_report(args) -> int:
    from .ids import EvalCell
    if not os.path.isfile(args.report):
        raise FileNotFoundError(f"report file not found: {args.report}")
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise DatasetFormatError(f"{args.report}: not valid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise DatasetFormatError(f"{args.report}: expected a list of report cells")
    lines = render_table([])
    for i, d in enumerate(payload):
        try:
            lines.append(_table_row(EvalCell(**d)))
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{args.report}: cell {i}: {exc}") from None
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scadasim",
        description="Deterministic SCADA grid co-simulation testbed: attack "
                    "replication, labeled traffic datasets, anomaly-detection evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write its artifacts")
    sim.add_argument("--scenario", required=True,
                     help="1..6, 'reference', or the path of one complete config file")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--trace", action="store_true", help="also write the event trace")
    sim.add_argument("--grid-csv", action="store_true",
                     help="also write true per-step power-flow values")
    sim.set_defaults(func=cmd_simulate)

    dataset = sub.add_parser("dataset", help="dataset operations")
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)
    export = dataset_sub.add_parser("export", help="simulate and write only the dataset CSV")
    export.add_argument("--scenario", required=True)
    export.add_argument("--seed", type=int, default=None)
    export.add_argument("--out", required=True)
    export.set_defaults(func=cmd_dataset_export)

    ids = sub.add_parser("ids", help="evaluate detectors on dataset CSVs")
    ids_sub = ids.add_subparsers(dest="ids_command", required=True)
    evaluate_p = ids_sub.add_parser(
        "eval", help="train, evaluate, and write reports and the models/<algo>.json files")
    evaluate_p.add_argument("--algo", required=True, help="comma list: rf,knn,lof,iforest")
    evaluate_p.add_argument("--train", nargs="+", required=True)
    evaluate_p.add_argument("--test", nargs="+", required=True)
    evaluate_p.add_argument("--out", required=True)
    evaluate_p.add_argument("--seed", type=int, default=0)
    evaluate_p.add_argument("--semi-train", choices=("warmup", "full"), default="warmup",
                            help="semi-supervised training input: attack-free warm-up slice "
                                 "(default) or the full file")
    evaluate_p.set_defaults(func=cmd_ids_eval)

    report = sub.add_parser("report", help="render a saved evaluation report")
    report.add_argument("--report", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except PurityError as exc:
        print(f"ids protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DatasetFormatError, FileNotFoundError, OptionError, TrainingDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
