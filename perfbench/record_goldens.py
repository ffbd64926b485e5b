"""Record the golden outputs the benchmark checks each pass against.

    python3 perfbench/record_goldens.py --seeds 0-23 --out perfbench/goldens.json

Run it only on a commit whose outputs are known to be right: the goldens
stand for "byte-identical to that commit". For each seed it stores the sha256
of every artifact a simulate workload writes (trace.csv included, from a run
with the engine trace on), and for ids_eval the hashes of the four input
datasets and of every model file, plus each evaluation cell's confusion counts
and F1. Entries already in the output file are kept unless re-recorded.
"""

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (sets the import path and BLAS threads)
from workloads import IdsEvalWorkload, SimulateWorkload

SIMULATE = {"dos_scan_flood": 1, "manipulation_telemetry": 4}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record(seed: int, workdir: str) -> dict[str, dict]:
    entries = {}
    for name, scenario_id in SIMULATE.items():
        workload = SimulateWorkload(scenario_id, seed)
        passed = workload.run(workload.setup(), workdir, engine_trace=True)
        if passed.problems:
            raise RuntimeError(f"{name} seed {seed}: {passed.problems}")
        entries[name] = passed.digest
    workload = IdsEvalWorkload(seed)
    problems = workload.prepare(workdir)
    if problems:
        raise RuntimeError(f"ids_eval seed {seed}: {problems}")
    passed = workload.run(workload.setup(), workdir)
    entries["ids_eval"] = {**workload.input_digest, **passed.digest}
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="a seed or an inclusive range such as 0-23")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    goldens = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=run.ROOT, check=False).stdout.strip()
    goldens["recorded_with"] = {"commit": commit or "unknown", "python": platform.python_version()}
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        workdir = tempfile.mkdtemp(prefix="goldens-", dir=work)
        try:
            for name, digest in record(seed, workdir).items():
                goldens.setdefault(name, {})[str(seed)] = digest
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
