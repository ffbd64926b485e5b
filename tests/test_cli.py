import hashlib
import json
import os

import pytest
import yaml

from scadasim.capture import import_csv
from scadasim.cli import main
from scadasim.scenario import fixture_path

# sha256 of `simulate --scenario reference --seed 1 --trace`; a refactor that
# changes any of these bytes must say why and re-pin them.
PINNED_REFERENCE_SEED_1 = {
    "attacker_actions.csv": "0a3a717fa60bbf5b2f936d02b61065428866d3f3006f363b46ed50810dfd511f",
    "dataset.csv": "d62100e050b04dfe599210a43a0868ec493ead924025c0e7e6062a46fa7b0ab0",
    "mtu_measurements.csv": "cc63d20a2556f3779acaf1fb0a4b96f8a34f6147ff6a7369758302f41ba1cf83",
    "run_summary.json": "e201488305abe379e4752d2a51d5bdf3057cd546dcfb9b3e35f0a4110b122249",
    "trace.csv": "425b8189ac9687290ca26513de1425cc5c89b3e04e6fb0b188e0a537fdf7a621",
}


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def reference_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("ref-run")
    code = run_cli("simulate", "--scenario", "reference", "--seed", "7",
                   "--out", str(out), "--trace")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def two_datasets(tmp_path_factory):
    out = tmp_path_factory.mktemp("datasets")
    a = out / "ref-a.csv"
    b = out / "ref-b.csv"
    assert run_cli("dataset", "export", "--scenario", "reference", "--seed", "1",
                   "--out", str(a)) == 0
    assert run_cli("dataset", "export", "--scenario", "reference", "--seed", "2",
                   "--out", str(b)) == 0
    return a, b


class TestSimulate:
    def test_writes_core_artifact_files(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "reference", "--seed", "5",
                       "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "attacker_actions.csv", "dataset.csv", "mtu_measurements.csv", "run_summary.json",
        ]

    def test_rerun_is_byte_identical(self, tmp_path, reference_artifacts):
        again = tmp_path / "again"
        assert run_cli("simulate", "--scenario", "reference", "--seed", "7",
                       "--out", str(again), "--trace") == 0
        for name in ("dataset.csv", "attacker_actions.csv", "mtu_measurements.csv",
                     "run_summary.json", "trace.csv"):
            assert (again / name).read_bytes() == (reference_artifacts / name).read_bytes()

    def test_summary_contents(self, reference_artifacts):
        summary = json.loads((reference_artifacts / "run_summary.json").read_text())
        assert summary["scenario_id"] == "reference"
        assert summary["seed"] == 7
        assert summary["attacker_stage"] == "done"
        assert summary["packets_captured"] > 0

    def test_unknown_config_path_exits_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--scenario", str(tmp_path / "nope.yaml"),
                       "--out", str(tmp_path / "o")) == 2

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("format_version: 1\n")
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_reference_seed_1_artifact_hashes_are_pinned(self, tmp_path):
        out = tmp_path / "pinned"
        assert run_cli("simulate", "--scenario", "reference", "--seed", "1",
                       "--out", str(out), "--trace") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in PINNED_REFERENCE_SEED_1}
        assert digests == PINNED_REFERENCE_SEED_1


def _second_rtu(raw, offset_ms):
    second = dict(raw["scada"]["rtus"][0], station="rtu2", report_offset_ms=offset_ms)
    raw["scada"]["rtus"].append(second)


@pytest.mark.parametrize("field, mutate", [
    pytest.param("report_offset_ms",
                 lambda raw: raw["scada"]["rtus"][0].update(report_offset_ms=1000), id="offset-1000"),
    pytest.param("report_offset_ms",
                 lambda raw: raw["scada"]["rtus"][0].update(report_offset_ms=-5), id="offset-neg"),
    # the second RTU reports 10 ms after its configured offset
    pytest.param("report_offset_ms", lambda raw: _second_rtu(raw, 990), id="offset-2nd-rtu-990"),
    pytest.param("warmup_steps",
                 lambda raw: raw["durations"].update(warmup_steps=-3), id="warmup-neg"),
    pytest.param("probe_pacing_ms",
                 lambda raw: raw["attacker"].update(probe_pacing_ms=-3), id="pacing-neg"),
    pytest.param("probe_timeout_ms",
                 lambda raw: raw["attacker"].update(probe_timeout_ms=-1), id="timeout-neg"),
])
def test_out_of_range_timing_exits_2_naming_field(tmp_path, capsys, field, mutate):
    raw = yaml.safe_load(fixture_path("reference").read_text(encoding="utf-8"))
    mutate(raw)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
    assert field in capsys.readouterr().err


class TestDatasetExport:
    def test_exported_csv_imports_cleanly(self, two_datasets):
        a, _ = two_datasets
        ds = import_csv(str(a))
        assert len(ds.records) > 1000
        assert ds.balance[0] > 0


class TestIdsCommands:
    def test_train_writes_model_files(self, tmp_path, two_datasets):
        a, _ = two_datasets
        out = tmp_path / "models"
        assert run_cli("ids", "train", "--algo", "rf,lof", "--train", str(a),
                       "--out", str(out), "--seed", "0") == 0
        assert sorted(p.name for p in out.iterdir()) == ["lof.json", "rf.json"]

    def test_eval_writes_reports_and_f1_rows(self, tmp_path, two_datasets):
        a, b = two_datasets
        out = tmp_path / "report"
        assert run_cli("ids", "eval", "--algo", "rf,knn,lof,iforest",
                       "--train", str(a), "--test", str(a), str(b),
                       "--out", str(out), "--seed", "0") == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report) == 4 * 2  # algorithms x test sets
        f1_rows = (out / "f1_per_scenario.csv").read_text().splitlines()
        assert f1_rows[0] == "algorithm,train,test,f1"
        assert len(f1_rows) == 1 + 8
        assert (out / "report_table.txt").is_file()
        assert (out / "models" / "iforest.json").is_file()

    def test_supervised_f1_on_own_training_data_at_least_held_out(self, tmp_path, two_datasets):
        a, b = two_datasets
        out = tmp_path / "self"
        assert run_cli("ids", "eval", "--algo", "rf,knn", "--train", str(a),
                       "--test", str(a), str(b), "--out", str(out)) == 0
        report = json.loads((out / "eval_report.json").read_text())
        for algo in ("rf", "knn"):
            cells = {c["test_scenario"]: c["f1"] for c in report if c["algorithm"] == algo}
            assert cells["ref-a"] >= cells["ref-b"] - 1e-12

    def test_purity_violation_exits_4(self, tmp_path, two_datasets, capsys):
        a, _ = two_datasets
        out = tmp_path / "models"
        code = run_cli("ids", "train", "--algo", "lof", "--train", str(a),
                       "--out", str(out), "--semi-train", "full")
        assert code == 4
        assert "attack-labeled" in capsys.readouterr().err

    def test_missing_test_file_exits_2_naming_path(self, tmp_path, two_datasets, capsys):
        a, _ = two_datasets
        code = run_cli("ids", "eval", "--algo", "rf", "--train", str(a),
                       "--test", str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_eval_reruns_are_byte_identical(self, tmp_path, two_datasets):
        a, b = two_datasets
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli("ids", "eval", "--algo", "rf,iforest", "--train", str(a),
                           "--test", str(b), "--out", str(out), "--seed", "3") == 0
        for rel in ("eval_report.json", "f1_per_scenario.csv",
                    os.path.join("models", "rf.json"), os.path.join("models", "iforest.json")):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


class TestReport:
    def test_report_renders_table(self, tmp_path, two_datasets, capsys):
        a, b = two_datasets
        out = tmp_path / "rep"
        run_cli("ids", "eval", "--algo", "knn", "--train", str(a), "--test", str(b),
                "--out", str(out))
        capsys.readouterr()
        assert run_cli("report", "--report", str(out / "eval_report.json")) == 0
        rendered = capsys.readouterr().out
        assert "knn" in rendered and "F1" in rendered


class TestReportShape:
    def test_four_algorithms_by_six_test_sets_give_24_rows(self, tmp_path):
        paths = []
        for seed in range(1, 7):
            p = tmp_path / f"ds{seed}.csv"
            assert run_cli("dataset", "export", "--scenario", "reference",
                           "--seed", str(seed), "--out", str(p)) == 0
            paths.append(str(p))
        out = tmp_path / "full"
        assert run_cli("ids", "eval", "--algo", "rf,knn,lof,iforest",
                       "--train", paths[0], "--test", *paths, "--out", str(out)) == 0
        rows = (out / "f1_per_scenario.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 6
