"""Command-line entry point: simulate scenarios, export datasets, train and
evaluate detectors (saving each model file), render reports.

Exit codes: 0 success, 2 configuration or dataset error (including training
data a detector cannot fit), 3 balance calibration failure, 4 IDS
training-protocol violation (semi-supervised purity), 1 anything else.
An option value that cannot be used (an --algo list that names no known
algorithm or one twice, two --test files with one name, an --out that cannot
be what the command writes) is refused with exit code 2 before any work.
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
from itertools import chain

from .capture import (
    CalibrationError,
    DatasetFormatError,
    LabeledDataset,
    RecordList,
    check_balance,
    export_csv,
    import_csv,
)
from .config import ConfigError
from .ids import (
    ALGORITHMS,
    EvalCell,
    PurityError,
    TrainingDataError,
    evaluate,
    save_model,
    train_model,
)
from .ids.models import SEMI_SUPERVISED
from .scenario import load_fixture, run_scenario
from .writers import write_json, write_lines

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_PROTOCOL = 4


class OptionError(ValueError):
    """A command-line option's value cannot be used; the message names the option."""


def _make_out_dir(out: str, directory: str) -> None:
    """Create ``directory`` (and its parents) for the files of ``--out out``,
    before any work is done."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise OptionError(f"--out {out}: cannot create directory {directory}: "
                          f"{exc.strerror}") from None


def _remove_stale(out: str, paths: list[str]) -> None:
    """Remove each of ``paths`` that an earlier run left in ``--out out``."""
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise OptionError(f"--out {out}: cannot remove {path}: {exc.strerror}") from None


def cmd_simulate(args) -> int:
    config = load_fixture(args.scenario)
    _make_out_dir(args.out, args.out)
    _remove_stale(args.out, [os.path.join(args.out, name) for name, written in
                             (("trace.csv", args.trace), ("grid_truth.csv", args.grid_csv))
                             if not written])
    result = run_scenario(config, seed=args.seed, trace=args.trace)
    export_csv(result.dataset, os.path.join(args.out, "dataset.csv"))
    write_lines(os.path.join(args.out, "attacker_actions.csv"),
                result.attacker.export_action_log())
    write_lines(os.path.join(args.out, "mtu_measurements.csv"), result.mtu_history_lines())
    write_json(os.path.join(args.out, "run_summary.json"), result.run_summary())
    if args.trace:
        write_lines(os.path.join(args.out, "trace.csv"),
                    chain(("step,offset_ms,seq,target,kind",), result.trace_lines))
    if args.grid_csv:
        write_lines(os.path.join(args.out, "grid_truth.csv"), result.grid_history_lines())
    check_balance(config.scenario_id, config.capture.balance_target, result.dataset)
    print(f"simulated scenario {config.scenario_id} seed {result.seed}: "
          f"{len(result.dataset.records)} records, attack share {result.dataset.balance[0]:.2f}%")
    return EXIT_OK


def cmd_dataset_export(args) -> int:
    config = load_fixture(args.scenario)
    if os.path.isdir(args.out):
        raise OptionError(f"--out {args.out}: is a directory; expected the path of the CSV file")
    out_dir = os.path.dirname(args.out)
    if out_dir:
        _make_out_dir(args.out, out_dir)
    result = run_scenario(config, seed=args.seed)
    export_csv(result.dataset, args.out)
    print(f"wrote {args.out}: {len(result.dataset.records)} records")
    return EXIT_OK


def _parse_algorithms(spec: str) -> list[str]:
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


def _training_list(train_sets: list[tuple[str, LabeledDataset]], warmup: bool) -> RecordList:
    """The --train files' records, or their warm-up slices, as one list."""
    return RecordList(chain.from_iterable(ds.warmup_slice() if warmup else ds.records
                                          for _, ds in train_sets))


def _train(args, records: RecordList, warmup: bool, algorithm: str):
    """The model of one algorithm, trained on ``records`` from the --train files."""
    try:
        return train_model(algorithm, records, seed=args.seed)
    except TrainingDataError as exc:
        source = "the warm-up slice of " if warmup else ""
        raise TrainingDataError(
            f"cannot train {algorithm} on {source}{' '.join(args.train)}: {exc}"
        ) from None


def cmd_ids_eval(args) -> int:
    algorithms = _parse_algorithms(args.algo)
    test_names = [_dataset_name(path) for path in args.test]
    for i, name in enumerate(test_names):
        if name in test_names[:i]:
            raise OptionError(f"--test names two files called {name!r}; the report keys "
                              "each test set by its file name")
    train_sets = _load_datasets(args.train)
    test_sets = _load_datasets(args.test)
    models_dir = os.path.join(args.out, "models")
    _make_out_dir(args.out, models_dir)
    _remove_stale(args.out, [os.path.join(models_dir, f"{algorithm}.json")
                             for algorithm in ALGORITHMS if algorithm not in algorithms])
    train_name = "+".join(name for name, _ in train_sets)
    # each test set's true labels, taken once for every algorithm
    tests = [(name, ds.records, [r.label for r in ds.records]) for name, ds in test_sets]
    # whether each algorithm trains on the warm-up slices; each list that some
    # algorithm trains on is built once, so the algorithms share its key pass
    warmups = {algorithm: algorithm in SEMI_SUPERVISED and args.semi_train == "warmup"
               for algorithm in algorithms}
    training_lists = {warmup: _training_list(train_sets, warmup) for warmup in set(warmups.values())}
    cells = []
    for algorithm, warmup in warmups.items():
        model = _train(args, training_lists[warmup], warmup, algorithm)
        save_model(model, os.path.join(models_dir, f"{algorithm}.json"))
        for name, records, truth in tests:
            predictions = model.predict_records(records)
            cells.append(evaluate(predictions, truth, algorithm, train_name, name))
    write_json(os.path.join(args.out, "eval_report.json"), [cell.to_dict() for cell in cells])
    f1_lines = ["algorithm,train,test,f1"]
    for cell in cells:
        f1_lines.append(f"{cell.algorithm},{cell.train_scenario},{cell.test_scenario},{cell.f1!r}")
    write_lines(os.path.join(args.out, "f1_per_scenario.csv"), f1_lines)
    table = render_table(cells)
    write_lines(os.path.join(args.out, "report_table.txt"), table)
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
                     help="1..6, 'reference', or a config file path")
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
