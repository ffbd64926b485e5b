"""The benchmark's workloads, driven through scadasim's public functions.

A workload is run as passes. Each pass first sets up (timed as ``setup_s``),
then does the work a user waits for (timed as ``wall_s``), then checks its
outputs outside the timed region. Everything is derived from the benchmark
seed: the scenario seed of a simulate workload, and the scenario seeds and
model seed of ``ids_eval``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from reference import INTERPRETER, MIXED
from scadasim import capture, ids, scenario
from scadasim.ids.models import SEMI_SUPERVISED

SIMULATE_FILES = ("dataset.csv", "attacker_actions.csv", "mtu_measurements.csv", "run_summary.json")
TRACE_HEADER = "step,offset_ms,seq,target,kind"
# The paper's cross-scenario protocol: train on one scenario, test on its sibling.
IDS_PAIRS = (("s2", "s1"), ("s5", "s4"))
IDS_INPUTS = {"s1": 1, "s2": 2, "s4": 4, "s5": 5}
INPUT_TIMEOUT_S = 170
GENERATE_INPUTS = "import sys, workloads; workloads.generate_ids_inputs(int(sys.argv[1]), sys.argv[2])"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@dataclass
class PassResult:
    wall_s: float
    records: int  # labelled records produced, or record x detector predictions
    run_s: float | None = None  # run_scenario alone, for events per second
    speed: float = 1.0  # host speed during the pass, relative to nominal
    counts: dict[str, int] = field(default_factory=dict)
    digest: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# The artifact writers below produce the same bytes as `scadasim simulate`.
def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def calibration_problem(config, achieved: float) -> str | None:
    target = config.capture.balance_target
    if target is not None and abs(achieved - target) > capture.BALANCE_TOLERANCE_PP:
        return (f"scenario {config.scenario_id}: attack share {achieved:.2f}% outside "
                f"{target:.2f}% +/- {capture.BALANCE_TOLERANCE_PP}pp")
    return None


class SimulateWorkload:
    """`scadasim simulate` of one scenario: simulate, label, write the artifacts."""

    reference = INTERPRETER  # the simulation is interpreter-bound

    def __init__(self, scenario_id: int, seed: int):
        self.scenario_id = scenario_id
        self.seed = seed

    def prepare(self, workdir: str) -> None:
        """Nothing to generate: the scenario fixture ships with the package."""

    def setup(self):
        config = scenario.load_fixture(self.scenario_id)
        scenario.build_simulation(config, self.seed)
        return config

    def run(self, config, out: str, engine_trace: bool = False) -> PassResult:
        t0 = perf_counter()
        result = scenario.run_scenario(config, seed=self.seed, trace=engine_trace)
        t1 = perf_counter()
        capture.export_csv(result.dataset, os.path.join(out, "dataset.csv"))
        write_lines(os.path.join(out, "attacker_actions.csv"), result.attacker.export_action_log())
        write_lines(os.path.join(out, "mtu_measurements.csv"), result.mtu_history_lines())
        write_json(os.path.join(out, "run_summary.json"), result.run_summary())
        if engine_trace:
            write_lines(os.path.join(out, "trace.csv"), [TRACE_HEADER] + result.trace_lines)
        t2 = perf_counter()

        records = len(result.dataset.records)
        mirrored = result.mtu.fabric.mirrored_count
        passed = PassResult(wall_s=t2 - t0, run_s=t1 - t0, records=records)
        passed.counts = {
            "engine.events": result.events_processed,
            "capture.records": records,
            "network.mirrored": mirrored,
            "powergrid.solves": len(result.grid.history),
            "scada.rtu_reports": sum(rtu.reports_sent for rtu in result.rtus.values()),
            "attacker.actions": len(result.attacker.state.action_log),
        }
        files = SIMULATE_FILES + (("trace.csv",) if engine_trace else ())
        passed.digest = {name: sha256_file(os.path.join(out, name)) for name in files}
        if mirrored != records:
            passed.problems.append(f"conservation: mirrored {mirrored} != captured {records}")
        problem = calibration_problem(config, result.dataset.balance[0])
        if problem:
            passed.problems.append(problem)
        return passed

    def read_back_problems(self, out: str) -> list[str]:
        """The last pass's dataset.csv must survive an import and re-export.

        Run once, after the passes, so it does not count toward their peak memory.
        """
        original = os.path.join(out, "dataset.csv")
        reread = os.path.join(out, "reread.csv")
        capture.export_csv(capture.import_csv(original), reread)
        if sha256_file(reread) != sha256_file(original):
            return ["dataset.csv does not survive an import and re-export"]
        return []


def generate_ids_inputs(seed: int, out_dir: str) -> None:
    """Simulate the four scenarios ids_eval reads and write their dataset CSVs.

    Runs in a child interpreter so that the simulations' memory is not part of
    the ids_eval process's peak. Writes ``inputs.json`` with each file's hash
    and the calibration and conservation checks.
    """
    info = {}
    for name, scenario_id in IDS_INPUTS.items():
        config = scenario.load_fixture(scenario_id)
        result = scenario.run_scenario(config, seed=seed)
        path = os.path.join(out_dir, f"{name}.csv")
        capture.export_csv(result.dataset, path)
        mirrored = result.mtu.fabric.mirrored_count
        problems = [p for p in (calibration_problem(config, result.dataset.balance[0]),) if p]
        if mirrored != len(result.dataset.records):
            problems.append(f"{name}: conservation: mirrored {mirrored} "
                            f"!= captured {len(result.dataset.records)}")
        info[name] = {"sha256": sha256_file(path), "problems": problems}
    write_json(os.path.join(out_dir, "inputs.json"), info)


class IdsEvalWorkload:
    """`scadasim ids eval` of all four detectors on both cross-scenario pairs."""

    reference = MIXED  # numpy scans over the records, and interpreter loops

    def __init__(self, seed: int):
        self.seed = seed
        self.input_dir = ""
        self.input_digest: dict[str, str] = {}

    def prepare(self, workdir: str) -> list[str]:
        """Generate the input datasets; returns the problems found in them."""
        self.input_dir = os.path.join(workdir, "inputs")
        os.makedirs(self.input_dir, exist_ok=True)
        # A plain interpreter, not multiprocessing: that would also start a
        # resource-tracker process that nothing waits for. subprocess.run
        # waits for the child, and kills and reaps it on a timeout.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((HERE, os.path.join(ROOT, "src"))))
        try:
            child = subprocess.run(
                [sys.executable, "-c", GENERATE_INPUTS, str(self.seed), self.input_dir],
                env=env, stdout=subprocess.DEVNULL, timeout=INPUT_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError("generating the ids_eval inputs timed out") from None
        if child.returncode != 0:
            raise RuntimeError(f"generating the ids_eval inputs failed (exit {child.returncode})")
        with open(os.path.join(self.input_dir, "inputs.json"), encoding="utf-8") as fh:
            info = json.load(fh)
        self.input_digest = {f"{name}.csv": entry["sha256"] for name, entry in info.items()}
        return [p for entry in info.values() for p in entry["problems"]]

    def setup(self):
        return {name: capture.import_csv(os.path.join(self.input_dir, f"{name}.csv"))
                for name in IDS_INPUTS}

    def run(self, datasets, out: str) -> PassResult:
        t0 = perf_counter()
        cells, models = [], []
        for train_name, test_name in IDS_PAIRS:
            train, test = datasets[train_name], datasets[test_name]
            for algorithm in ids.ALGORITHMS:
                records = train.warmup_slice() if algorithm in SEMI_SUPERVISED else train.records
                model = ids.train_model(algorithm, records, seed=self.seed)
                predictions = model.predict_records(test.records)
                truth = [r.label for r in test.records]
                cells.append(ids.evaluate(predictions, truth, algorithm, train_name, test_name))
                models.append(model)
        wall = perf_counter() - t0

        predictions = sum(len(datasets[test].records) for _, test in IDS_PAIRS) * len(ids.ALGORITHMS)
        passed = PassResult(wall_s=wall, records=predictions)
        passed.counts = {"ids.predictions": predictions}
        for cell, model in zip(cells, models):
            key = f"{cell.algorithm}:{cell.train_scenario}->{cell.test_scenario}"
            path = os.path.join(out, f"{cell.algorithm}-{cell.train_scenario}.json")
            ids.save_model(model, path)
            passed.digest[f"model:{key}"] = sha256_file(path)
            passed.digest[f"cell:{key}"] = f"{cell.tp},{cell.fp},{cell.tn},{cell.fn},{cell.f1!r}"
        return passed


WORKLOADS = {
    "dos_scan_flood": lambda seed: SimulateWorkload(1, seed),
    "manipulation_telemetry": lambda seed: SimulateWorkload(4, seed),
    "ids_eval": IdsEvalWorkload,
}
