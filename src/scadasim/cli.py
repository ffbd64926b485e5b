"""Command-line entry point: simulate scenarios, export datasets, train and
evaluate detectors, render reports.

Exit codes: 0 success, 2 configuration error, 3 balance calibration failure,
4 IDS training-protocol violation (semi-supervised purity), 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .capture import (
    BALANCE_TOLERANCE_PP,
    LabeledDataset,
    DatasetFormatError,
    export_csv,
    import_csv,
)
from .config import ConfigError
from .ids import ALGORITHMS, EvalCell, PurityError, evaluate, save_model, train_model
from .ids.models import SEMI_SUPERVISED
from .scenario import load_fixture, run_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_PROTOCOL = 4


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_simulate(args) -> int:
    config = load_fixture(args.scenario)
    result = run_scenario(config, seed=args.seed, trace=args.trace)
    os.makedirs(args.out, exist_ok=True)
    export_csv(result.dataset, os.path.join(args.out, "dataset.csv"))
    _write_lines(os.path.join(args.out, "attacker_actions.csv"),
                 result.attacker.export_action_log())
    _write_lines(os.path.join(args.out, "mtu_measurements.csv"), result.mtu_history_lines())
    _write_json(os.path.join(args.out, "run_summary.json"), result.run_summary())
    if args.trace:
        _write_lines(os.path.join(args.out, "trace.csv"),
                     ["step,offset_ms,seq,target,kind"] + result.trace_lines)
    if args.grid_csv:
        _write_lines(os.path.join(args.out, "grid_truth.csv"), result.grid_history_lines())
    achieved = result.dataset.balance[0]
    target = config.capture.balance_target
    if target is not None and abs(achieved - target) > BALANCE_TOLERANCE_PP:
        print(
            f"calibration failure: attack share {achieved:.2f}% outside "
            f"{target:.2f}% +/- {BALANCE_TOLERANCE_PP}pp",
            file=sys.stderr,
        )
        return EXIT_CALIBRATION
    print(f"simulated scenario {config.scenario_id} seed {result.seed}: "
          f"{len(result.dataset.records)} records, attack share {achieved:.2f}%")
    return EXIT_OK


def cmd_dataset_export(args) -> int:
    config = load_fixture(args.scenario)
    result = run_scenario(config, seed=args.seed)
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    export_csv(result.dataset, args.out)
    print(f"wrote {args.out}: {len(result.dataset.records)} records")
    return EXIT_OK


def _parse_algorithms(spec: str) -> list[str]:
    algorithms = [a.strip() for a in spec.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ConfigError([f"unknown algorithm {a!r}; expected {'/'.join(ALGORITHMS)}"])
    return algorithms


def _load_datasets(paths: list[str]) -> list[tuple[str, LabeledDataset]]:
    out = []
    for path in paths:
        if not os.path.isfile(path):
            raise FileNotFoundError(f"dataset file not found: {path}")
        name = os.path.splitext(os.path.basename(path))[0]
        out.append((name, import_csv(path)))
    return out


def _training_records(datasets: list[tuple[str, LabeledDataset]], algorithm: str,
                      semi_train: str):
    records = []
    for _, ds in datasets:
        if algorithm in SEMI_SUPERVISED and semi_train == "warmup":
            records.extend(ds.warmup_slice())
        else:
            records.extend(ds.records)
    return records


def cmd_ids_train(args) -> int:
    algorithms = _parse_algorithms(args.algo)
    train_sets = _load_datasets(args.train)
    os.makedirs(args.out, exist_ok=True)
    for algorithm in algorithms:
        records = _training_records(train_sets, algorithm, args.semi_train)
        model = train_model(algorithm, records, seed=args.seed)
        path = os.path.join(args.out, f"{algorithm}.json")
        save_model(model, path)
        print(f"trained {algorithm} on {len(records)} records -> {path}")
    return EXIT_OK


def cmd_ids_eval(args) -> int:
    algorithms = _parse_algorithms(args.algo)
    train_sets = _load_datasets(args.train)
    test_sets = _load_datasets(args.test)
    os.makedirs(args.out, exist_ok=True)
    models_dir = os.path.join(args.out, "models")
    os.makedirs(models_dir, exist_ok=True)
    train_name = "+".join(name for name, _ in train_sets)
    cells = []
    for algorithm in algorithms:
        records = _training_records(train_sets, algorithm, args.semi_train)
        model = train_model(algorithm, records, seed=args.seed)
        save_model(model, os.path.join(models_dir, f"{algorithm}.json"))
        for name, ds in test_sets:
            predictions = model.predict_records(ds.records)
            truth = [r.label for r in ds.records]
            cells.append(evaluate(predictions, truth, algorithm, train_name, name))
    _write_json(os.path.join(args.out, "eval_report.json"),
                [cell.to_dict() for cell in cells])
    f1_lines = ["algorithm,train,test,f1"]
    for cell in cells:
        f1_lines.append(f"{cell.algorithm},{cell.train_scenario},{cell.test_scenario},{cell.f1!r}")
    _write_lines(os.path.join(args.out, "f1_per_scenario.csv"), f1_lines)
    table = render_table(cells)
    _write_lines(os.path.join(args.out, "report_table.txt"), table)
    print("\n".join(table))
    return EXIT_OK


def render_table(cells: list[EvalCell]) -> list[str]:
    header = f"{'algorithm':<10} {'train':<16} {'test':<16} {'TP':>8} {'FP':>6} {'FN':>6} " \
             f"{'precision':>9} {'recall':>9} {'F1':>9}"
    lines = [header, "-" * len(header)]
    for c in cells:
        lines.append(
            f"{c.algorithm:<10} {c.train_scenario:<16} {c.test_scenario:<16} "
            f"{c.tp:>8} {c.fp:>6} {c.fn:>6} {c.precision:>9.4f} {c.recall:>9.4f} {c.f1:>9.4f}"
        )
    return lines


def cmd_report(args) -> int:
    if not os.path.isfile(args.report):
        raise FileNotFoundError(f"report file not found: {args.report}")
    with open(args.report, "r", encoding="utf-8") as fh:
        cells = [EvalCell(**d) for d in json.load(fh)]
    print("\n".join(render_table(cells)))
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

    ids = sub.add_parser("ids", help="train/evaluate detectors on dataset CSVs")
    ids_sub = ids.add_subparsers(dest="ids_command", required=True)
    train = ids_sub.add_parser("train", help="train models and save them")
    train.add_argument("--algo", required=True, help="comma list: rf,knn,lof,iforest")
    train.add_argument("--train", nargs="+", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--semi-train", choices=("warmup", "full"), default="warmup",
                       help="semi-supervised training input: attack-free warm-up slice "
                            "(default) or the full file")
    train.set_defaults(func=cmd_ids_train)
    evaluate_p = ids_sub.add_parser("eval", help="train, evaluate, and write reports")
    evaluate_p.add_argument("--algo", required=True)
    evaluate_p.add_argument("--train", nargs="+", required=True)
    evaluate_p.add_argument("--test", nargs="+", required=True)
    evaluate_p.add_argument("--out", required=True)
    evaluate_p.add_argument("--seed", type=int, default=0)
    evaluate_p.add_argument("--semi-train", choices=("warmup", "full"), default="warmup")
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
    except PurityError as exc:
        print(f"ids protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DatasetFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
