"""Benchmark of scadasim: simulate workloads and the cross-scenario IDS evaluation.

    python3 perfbench/run.py --workload dos_scan_flood --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured on unmodified
code; with ``--trace 1`` they are its per-layer metrics, taken from passes run
under the outside-in tracer. See perfbench/README.md.
"""

import os

# One load-generating process and no helper threads: BLAS runs single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

MIN_PASSES = 3  # timed passes of an untraced run
MIN_TRACED_PASSES = 2  # traced passes, so traced counts can be compared
MIN_SETUPS = 7  # set-up samples behind setup_s ...
SETUP_SECONDS = 1.0  # ... and the least time they cover together


class Checker:
    """Counts attempted and failed operations.

    An operation (input generation or one pass) fails when it raises, misses
    the calibration tolerance, or fails an output check: a hash or F1 cell
    that differs from the golden of this seed, or from the run's first pass,
    or a count that differs between passes.
    """

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.reference_digest: dict[str, str] = {}
        self.reference_counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def output_problems(self, digest: dict[str, str], counts: dict) -> list[str]:
        problems = []
        for key, value in digest.items():
            if self.golden is not None and self.golden.get(key) != value:
                problems.append(f"{key} does not match the golden of this seed")
            if self.reference_digest.setdefault(key, value) != value:
                problems.append(f"{key} differs from the first pass")
        for key, value in counts.items():
            if self.reference_counts.setdefault(key, value) != value:
                problems.append(f"count {key} = {value}, first pass {self.reference_counts[key]}")
        return problems

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


def load_goldens() -> dict:
    path = HERE / "goldens.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def passes_for(budget_s: float, minimum: int, run_one) -> None:
    """Run passes until ``minimum`` are done and another would overrun the budget."""
    start = perf_counter()
    done, last = 0, 0.0
    while done < minimum or perf_counter() - start + last <= budget_s:
        t = perf_counter()
        run_one(done + 1)
        last = perf_counter() - t
        done += 1


def measure(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> tuple[dict, list]:
    """Run one workload; returns the result object and rows for the table."""
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, SimulateWorkload

    workload = WORKLOADS[name](seed)
    checker = Checker(load_goldens().get(name, {}).get(str(seed)))
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    out = workdir / "out"
    out.mkdir(parents=True)

    def one_pass(label: str, engine_trace: bool = False, after=None):
        gc.collect()
        try:
            before = workload.reference.run()
            t0 = perf_counter()
            state = workload.setup()
            setup_s = perf_counter() - t0
            kwargs = {"engine_trace": True} if engine_trace else {}
            passed = workload.run(state, str(out), **kwargs)
            del state
            passed.speed = workload.reference.speed(before, workload.reference.run())
            problems = passed.problems + checker.output_problems(passed.digest, passed.counts)
            if after:
                problems += after(passed)
        except Exception:
            checker.record(label, [traceback.format_exc()])
            return None, None
        checker.record(label, problems)
        return setup_s, passed

    try:
        try:
            problems = workload.prepare(str(workdir))
        except Exception:
            problems = [traceback.format_exc()]
        if problems is not None:
            problems += checker.output_problems(workload.input_digest, {})
            checker.record("inputs", problems)
            if problems:
                return _result(checker, {}, spec, trace), []

        setups, untraced, traced, overheads = [], [], [], []
        tracer = Tracer()
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

        def untraced_pass(n):
            setup_s, passed = one_pass(f"pass {n}")
            if passed is not None:
                setups.append(setup_s * passed.speed)
                untraced.append(passed)
            return passed

        def after_traced(passed):
            totals = tracer.totals()
            m = layers.layer_metrics(totals, passed.counts)
            problems = layers.consistency_problems(totals, m, passed.counts)
            if traced:
                problems += [f"traced count {c} = {m[c]}, first traced pass {traced[0][c]}"
                             for c in counts if m[c] != traced[0][c]]
            traced.append(m)
            return problems

        def pair(n):
            # An untraced pass, then the same pass traced, so that both see
            # the same host speed and their ratio is the tracing overhead.
            plain = untraced_pass(n)
            layers.install(tracer)  # before build_simulation binds the handlers
            tracer.reset()
            try:
                _, passed = one_pass(f"traced pass {n}", after=after_traced)
            finally:
                tracer.uninstall()
                tracer.reset()
            if plain is not None and passed is not None:
                overheads.append(passed.wall_s * passed.speed / (plain.wall_s * plain.speed))

        if trace:
            passes_for(seconds, MIN_TRACED_PASSES, pair)
        else:
            passes_for(seconds, MIN_PASSES, untraced_pass)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if isinstance(workload, SimulateWorkload):
            try:
                problems = workload.read_back_problems(str(out))
            except Exception:
                problems = [traceback.format_exc()]
            checker.record("read-back check", problems)
            if checker.golden is not None:
                # Untimed, and after the peak memory is read: the engine's own
                # event trace, for the trace.csv golden.
                one_pass("engine-trace pass", engine_trace=True)

        metrics, rows = {}, []
        events_per_s = [p.counts["engine.events"] / (p.run_s * p.speed)
                        for p in untraced if p.run_s]
        if not trace:
            before, extra = workload.reference.run(), []
            while len(setups) + len(extra) < MIN_SETUPS or sum(setups + extra) < SETUP_SECONDS:
                t0 = perf_counter()
                workload.setup()
                extra.append(perf_counter() - t0)
            speed = workload.reference.speed(before, workload.reference.run())
            setups += [s * speed for s in extra]
            if untraced:
                walls = [p.wall_s * p.speed for p in untraced]
                rates = [p.records / (p.wall_s * p.speed) for p in untraced]
                metrics = {
                    "wall_s": statistics.median(walls),
                    "setup_s": statistics.median(setups),
                    "records_per_s": statistics.median(rates),
                    "peak_rss_mb": peak_rss_mb,
                }
                rows = [("wall_s", walls), ("setup_s", setups), ("records_per_s", rates),
                        ("peak_rss_mb", [peak_rss_mb]),
                        ("raw_wall_s", [p.wall_s for p in untraced]),
                        ("host.speed", [p.speed for p in untraced])]
                if events_per_s:
                    rows.append(("events_per_s", events_per_s))
            rows.append(("error_rate", [checker.failed / checker.attempted]))
        elif traced and overheads:
            for metric in spec["per_layer"]:
                key = metric["name"]
                if key == "trace.overhead":
                    values = overheads
                elif key == "engine.events_per_s":
                    values = events_per_s or [0.0]
                elif key == "host.speed":
                    values = [p.speed for p in untraced]
                else:
                    values = [m[key] for m in traced]
                metrics[key] = statistics.median(values)
                rows.append((key, values))
        return _result(checker, metrics, spec, trace), rows
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _result(checker: Checker, metrics: dict, spec: dict, trace: bool) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    return {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def print_table(name: str, rows: list, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(events_per_s="1/s", error_rate="ratio", raw_wall_s="s")
    print(f"== {name}")
    for key, values in rows:
        median = statistics.median(values)
        spread = f"  median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}" \
            if len(values) > 1 else ""
        print(f"{key:<26} {median:>14.6g} {units[key]:<6}{spread}")


def run_each(names: list[str], args) -> int:
    """Run several workloads one after another, each in a fresh interpreter,
    so that no workload's memory carries into the next one's peak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma list of names, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "scadasim" / "__init__.py").is_file():
        print(f"error: run from a scadasim checkout; {spec_path} or {SRC}/scadasim is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; expected {known} or 'all'", file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_each(names, args)

    result, rows = measure(names[0], args.seed, args.seconds, bool(args.trace), spec)
    print_table(names[0], rows, spec)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
