import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import pytest
import yaml

from conftest import PurePythonLoader
from scadasim import cli
from scadasim.capture import CSV_HEADER, import_csv
from scadasim.cli import main
from scadasim.ids import models
from scadasim.scenario import fixture_text

# sha256 of `simulate --scenario reference --seed 1 --trace`; a refactor that
# changes any of these bytes must say why and re-pin them.
PINNED_REFERENCE_SEED_1 = {
    "attacker_actions.csv": "0a3a717fa60bbf5b2f936d02b61065428866d3f3006f363b46ed50810dfd511f",
    "dataset.csv": "d62100e050b04dfe599210a43a0868ec493ead924025c0e7e6062a46fa7b0ab0",
    "mtu_measurements.csv": "cc63d20a2556f3779acaf1fb0a4b96f8a34f6147ff6a7369758302f41ba1cf83",
    "run_summary.json": "e201488305abe379e4752d2a51d5bdf3057cd546dcfb9b3e35f0a4110b122249",
    "trace.csv": "425b8189ac9687290ca26513de1425cc5c89b3e04e6fb0b188e0a537fdf7a621",
}

# sha256 of `ids eval --algo rf,knn,lof,iforest --train ref-a.csv --test ref-a.csv
# ref-b.csv --seed 0`, where ref-a/ref-b are reference seeds 1/2; a speed-up of
# the detectors or the encoding must leave every one of these bytes unchanged.
PINNED_IDS_EVAL = {
    "eval_report.json": "fd1f22bd977e42f81fb2859320b002f0037b7db7c50896cead695e4bd8ca7d7e",
    "models/iforest.json": "50594e267c87e30935a7f0831fd5748ee7028f876f8a12eb178f2f1965c3231b",
    "models/knn.json": "2f902d4356b3ed3bd6d65e81fd333938c908eded69a63bd6d70ac09e4398b0f5",
    "models/lof.json": "eae41870ad9b71317ee9f467b7ba9ed00bd7a5deecd053a1ec8c10f71a24c58b",
    "models/rf.json": "2457e0428001124d2909d29ab955a55fd1bca209615f3bf120f1910bb28df2af",
}

# sha256 of the same `ids eval`, trained on both files: `--train ref-a.csv ref-b.csv
# --test ref-a.csv ref-b.csv --seed 0`; the two training lists are joined with their
# key passes, and every detector fits on the joined list.
PINNED_IDS_EVAL_TWO_TRAIN = {
    "eval_report.json": "3d0bfd3a2bf34e6fcbe4ab41a7141e199cca40afd5e2e052b6b9544138b21c64",
    "models/iforest.json": "98fee044367d9ed1002db397fce58a7862cd6551d9ddbaaa4851f8ee346ac76a",
    "models/knn.json": "32be6769ccbf231a9a9df81769256a04cee9125f5f037f02d8f66ed4ac3ca76f",
    "models/lof.json": "1eb9f579b000400f19797ed75396f3d1fa35c443c77e86cc9fb9b7833b856648",
    "models/rf.json": "4c00b044b23a8e1b3e898e2ab10fb41c7095b85c3f628fe995753341982c655a",
}

# sha256 of `simulate --scenario N --seed 0 --grid-csv` for the fixtures that
# the reference pin and the benchmark goldens (scenarios 1 and 4) leave out;
# every value in the grid and MTU files comes out of one power-flow solve, and
# the dataset and action log pin the labelling and the attack procedure.
PINNED_GRID_SEED_0 = {
    2: {"grid_truth.csv": "871f18ebea9b7a4552f3af5e192c37f43e15afca36261f6bb54f95e7c7e62ab6",
        "mtu_measurements.csv": "3fb99b2304f978999d72125696efb308797f71aca4c3e27df853adc3e6c10b25",
        "dataset.csv": "5f30b5e68787b6124f0a45d9bbf5863db011e8d6353889a3c82dd96a1a346f27",
        "attacker_actions.csv": "01912d9ebd59105b4a2fbfba98aa62ff1bc96c5989423b377750a3272051e0d2"},
    3: {"grid_truth.csv": "e69d3ad9940d43457348b2be3f43522a7248e8c6cb0b64b2f9113e7fa303febd",
        "mtu_measurements.csv": "f1f9b312ec7a4bb3f5557cce219012ad3aba4db8f2231bcc2a69b0de5b491350",
        "dataset.csv": "8568c4b0f1b1acbc4d9a92265af0dc5737360c08570d8ff50832ac1c7adb0512",
        "attacker_actions.csv": "ffcb4774e1a02f9cfb4f88f1b5b55bfae7d39fc7de5e4f81a8a71d4d4b85933e"},
    5: {"grid_truth.csv": "3840d4f471d92636381c8b989ccf91d78a5c8e5d4841c1acaecbb6ffa321e1ec",
        "mtu_measurements.csv": "88962915ac0cfd621298f9931eb0638ce6c58d272f2f5b7fa92c5672c6a34954",
        "dataset.csv": "28b2ae30c2b9ca3fd7f5ddbf91600306b9ff7c6e6b4a562e3eea69153dbb34dc",
        "attacker_actions.csv": "12f572231ce1efb1fd1045bee9be5fa9c52286750627a9fc9483800e06fee1cb"},
    6: {"grid_truth.csv": "2fd28aa6060a65b465ae0938949f1246e77991102665a47025f07cbaf0599e95",
        "mtu_measurements.csv": "e8e0729e4e3798e78d655ea03d08caa4202c23f1e72cb8d363aae65b14bd4912",
        "dataset.csv": "0e7a3d497d108b766a88b9ebd9bd710c3481b69c38316fb28de41caf136f6d6d",
        "attacker_actions.csv": "cfb3ae9b817174509da75badb1faa33aa22fb51ea335cf882e409e533f639ded"},
}

NORMAL_ROW = "1000,10.0.0.11,10.0.0.10,SCADA,61,normal,"
ATTACK_ROW = "2000,10.0.0.66,10.0.0.11,SCAN_PROBE,60,attack,S1"


def run_cli(*argv):
    return main(list(argv))


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


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

    def test_out_that_is_a_file_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        assert run_cli("simulate", "--scenario", "4", "--seed", "0", "--out", str(taken)) == 2
        err = capsys.readouterr().err
        assert f"--out {taken}" in err and "cannot create directory" in err
        assert taken.read_text(encoding="utf-8") == ""

    def test_unknown_config_path_exits_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--scenario", str(tmp_path / "nope.yaml"),
                       "--out", str(tmp_path / "o")) == 2

    def test_unknown_scenario_number_exits_2_naming_the_fixtures(self, tmp_path, capsys):
        out = tmp_path / "bad"
        assert run_cli("simulate", "--scenario", "9", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "1..6" in err and "reference" in err and "'9'" in err
        assert not out.exists()

    def test_directory_as_scenario_exits_2_naming_path(self, tmp_path, capsys):
        assert run_cli("simulate", "--scenario", str(tmp_path),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{tmp_path}: cannot read" in err

    @pytest.mark.parametrize("mutate, error", [
        # the ops traffic would leave from the attacker's address before the first attack stage
        pytest.param(lambda raw: raw["ops"].update(host="attacker-host"),
                     "attacker.host: 'attacker-host' already runs the ops traffic",
                     id="ops-on-attacker-host"),
        pytest.param(lambda raw: raw["attacker"].update(host="ops-host"),
                     "attacker.host: 'ops-host' already runs the ops traffic",
                     id="attacker-on-ops-host"),
        pytest.param(lambda raw: raw["attacker"].update(host="mtu-host"),
                     "attacker.host: 'mtu-host' already runs the MTU", id="attacker-on-mtu-host"),
        pytest.param(lambda raw: raw["attacker"].update(host="rtu1-host"),
                     "attacker.host: 'rtu1-host' already runs RTU 'rtu1'",
                     id="attacker-on-rtu-host"),
    ])
    def test_attacker_on_a_host_that_runs_another_app_exits_2(self, tmp_path, capsys, mutate,
                                                               error):
        raw = yaml.safe_load(fixture_text("reference"))
        mutate(raw)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(out)) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("capture", "balance_targt"),
                                              ("durations", "warmup_stpes")])
    def test_misspelled_key_exits_2_naming_it(self, tmp_path, capsys, section, key):
        raw = yaml.safe_load(fixture_text("reference"))
        raw[section][key] = 50
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(out)) == 2
        assert f"{section}.{key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ip_node_address_exits_2_naming_field(self, tmp_path, capsys):
        raw = yaml.safe_load(fixture_text("reference"))
        node = next(n for n in raw["ict"]["nodes"] if n["id"] == "mtu-host")
        node["address"] = "x"
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
        assert "address" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("format_version: 1\n")
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_key_written_twice_exits_2_naming_file_key_and_line(self, tmp_path, capsys,
                                                                monkeypatch, scenario_loader):
        # this ran with exit 0, and the second block quietly stopped the labelling
        text = fixture_text("reference")
        line = text.count("\n") + 1
        bad = tmp_path / "twice.yaml"
        bad.write_text(text + "capture:\n  label_manipulated_reports: false\n",
                       encoding="utf-8")
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid scenario config:\n  {bad}: ")
        assert f"found duplicate key 'capture'\n  in \"{bad}\", line {line}," in err
        assert not out.exists()

    def test_lone_surrogate_exits_2(self, tmp_path, capsys, monkeypatch, scenario_loader):
        # the pure-Python parser reads this escape, and simulate exited 1 writing the
        # artifacts; libyaml refuses the escape itself
        text = fixture_text("reference")
        bad = tmp_path / "surrogate.yaml"
        bad.write_text(text.replace("scenario_id: reference", 'scenario_id: "r\\ud800"'),
                       encoding="utf-8")
        assert 'scenario_id: "r\\ud800"' in bad.read_text(encoding="utf-8")
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if scenario_loader is PurePythonLoader:
            assert "scenario_id: 'r\\ud800' holds a lone surrogate, not UTF-8 text" in err
        assert not out.exists()

    def test_nesting_too_deep_exits_2_naming_the_file(self, tmp_path, capsys, scenario_loader):
        # this exited 1 with "maximum recursion depth exceeded"
        bad = tmp_path / "deep.yaml"
        bad.write_text("format_version: 1\ngrid: " + "[" * 3000 + "]" * 3000 + "\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(out)) == 2
        assert f"{bad}: nested too deeply to parse" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mutate, error", [
        # the switches run no spanning tree: this ran with exit 0 as a broadcast
        # storm of 94,660 records, and the attack failed
        pytest.param(lambda raw: raw["ict"]["links"].append(
                         {"id": "k-trunk2", "a": "sw-core", "b": "sw-station"}),
                     "ict: link k-trunk2: closes a loop", id="second-trunk-link"),
        # this exited 1 with a complex division by zero in the solver's setup
        pytest.param(lambda raw: raw["grid"]["buses"][2].update(nominal_kv=0),
                     "grid: bus b1: nominal_kv must be > 0", id="zero-bus-voltage"),
        # this scanned 0.0.0.1 to 0.0.0.3
        pytest.param(lambda raw: raw["attacker"].update(address_range="0.0.0.1-::3"),
                     "attacker.address_range: address range '0.0.0.1-::3' mixes IPv4 and IPv6",
                     id="mixed-version-address-range"),
    ])
    def test_structural_problem_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                          mutate, error):
        raw = yaml.safe_load(fixture_text("reference"))
        mutate(raw)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid scenario config:") and error in err
        assert not out.exists()

    def test_reference_seed_1_artifact_hashes_are_pinned(self, tmp_path):
        out = tmp_path / "pinned"
        assert run_cli("simulate", "--scenario", "reference", "--seed", "1",
                       "--out", str(out), "--trace") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in PINNED_REFERENCE_SEED_1}
        assert digests == PINNED_REFERENCE_SEED_1

    def test_world_then_campaign_in_one_file_runs_as_the_fixture(self, tmp_path):
        # the README's recipe for a config of one's own: world.yaml, then a campaign
        data = resources.files("scadasim").joinpath("data")
        config = tmp_path / "mine.yaml"
        config.write_bytes(b"".join(data.joinpath(f"{part}.yaml").read_bytes()
                                    for part in ("world", "reference")))
        out = tmp_path / "mine"
        assert run_cli("simulate", "--scenario", str(config), "--seed", "1",
                       "--out", str(out), "--trace") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in PINNED_REFERENCE_SEED_1}
        assert digests == PINNED_REFERENCE_SEED_1

    def test_missed_balance_target_exits_3_after_writing_artifacts(self, tmp_path, capsys):
        raw = yaml.safe_load(fixture_text("scenario4"))
        raw["capture"]["balance_target"] = 10.0
        config = tmp_path / "s4.yaml"
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", str(config), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "calibration failure" in err and "outside 10.00%" in err
        assert import_csv(str(out / "dataset.csv")).records

    def test_rerun_into_one_out_removes_only_the_files_it_does_not_write(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "reference", "--seed", "5",
                       "--out", str(out), "--trace", "--grid-csv") == 0
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        assert run_cli("simulate", "--scenario", "reference", "--seed", "6",
                       "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "attacker_actions.csv", "dataset.csv", "mtu_measurements.csv", "notes.txt",
            "run_summary.json",
        ]
        assert json.loads((out / "run_summary.json").read_text())["seed"] == 6

    def test_stale_file_that_cannot_be_removed_exits_2_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        (out / "trace.csv").mkdir(parents=True)
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        assert run_cli("simulate", "--scenario", "4", "--seed", "0", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: cannot remove" in err and "trace.csv" in err

    def test_directory_at_an_artifact_path_exits_2_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        (out / "dataset.csv").mkdir(parents=True)
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        assert run_cli("simulate", "--scenario", "reference", "--seed", "1",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: cannot write {out / 'dataset.csv'}: it is a directory" in err
        assert not (out / "run_summary.json").exists()

    @pytest.mark.parametrize("scenario", sorted(PINNED_GRID_SEED_0))
    def test_fixture_grid_hashes_are_pinned(self, tmp_path, scenario):
        out = tmp_path / "grid"
        assert run_cli("simulate", "--scenario", str(scenario), "--seed", "0",
                       "--out", str(out), "--grid-csv") == 0
        pinned = PINNED_GRID_SEED_0[scenario]
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
        assert digests == pinned


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
    # the offset error of that second RTU does not hide that it shares rtu1's host
    pytest.param("scada.rtus[1].host: 'rtu1-host' already runs RTU 'rtu1'",
                 lambda raw: _second_rtu(raw, 990), id="offset-2nd-rtu-990-host"),
    # a host holds one SCADA app; the attacker's spoof would reach rtu2 alone
    pytest.param("scada.rtus[1].host", lambda raw: _second_rtu(raw, 0), id="second-rtu-on-one-host"),
    # one engine target per station: a second rtu1 on its own host is refused on reading
    pytest.param("scada.rtus[1].station",
                 lambda raw: raw["scada"]["rtus"].append(dict(raw["scada"]["rtus"][0],
                                                              host="ops-host")),
                 id="duplicate-station"),
    pytest.param("warmup_steps",
                 lambda raw: raw["durations"].update(warmup_steps=-3), id="warmup-neg"),
    pytest.param("probe_pacing_ms",
                 lambda raw: raw["attacker"].update(probe_pacing_ms=-3), id="pacing-neg"),
    pytest.param("probe_timeout_ms",
                 lambda raw: raw["attacker"].update(probe_timeout_ms=-1), id="timeout-neg"),
    pytest.param("durations.post_steps",
                 lambda raw: raw["durations"].update(post_steps=-40), id="post-neg"),
    pytest.param("durations.post_steps",
                 lambda raw: raw["durations"].update(post_steps=None), id="post-null"),
    pytest.param("hosts.rtu1-host",
                 lambda raw: raw.update(hosts={"rtu1-host": -5}), id="host-entry-int"),
    pytest.param("ops.http_period_steps",
                 lambda raw: raw["ops"].update(http_period_steps=0), id="http-period-0"),
    pytest.param("grid.profile.day_steps",
                 lambda raw: raw["grid"]["profile"].update(day_steps=0), id="day-steps-0"),
    pytest.param("attacker.enforce_dos",
                 lambda raw: raw["attacker"].update(enforce_dos="no"), id="enforce-dos-str"),
    pytest.param("durations.warmup_steps",
                 lambda raw: raw["durations"].update(warmup_steps=2.7), id="warmup-float"),
    pytest.param("attacker.skip_unreachable_after",
                 lambda raw: raw["attacker"].update(skip_unreachable_after=-2), id="skip-neg"),
    pytest.param("grid.profile.noise_amplitude",
                 lambda raw: raw["grid"]["profile"].update(noise_amplitude=float("nan")),
                 id="noise-nan"),
    # read, not run: an unknown tag would fail the run at the first probe of the port
    pytest.param("hosts.rtu1-host.services[1]",
                 lambda raw: raw["hosts"]["rtu1-host"]["services"][1].update(protocol="FOO"),
                 id="service-protocol-unknown"),
    # read, not run: a key with a space breaks the spoof command, and a
    # misspelt key would leave P_kW unmanipulated without a word
    pytest.param("attacker.goal",
                 lambda raw: raw["attacker"]["goal"]["transform"].update(
                     {"P kW": raw["attacker"]["goal"]["transform"].pop("P_kW")}),
                 id="goal-quantity-with-space"),
    pytest.param("attacker.goal",
                 lambda raw: raw["attacker"]["goal"]["transform"].update(
                     {"P_kw": raw["attacker"]["goal"]["transform"].pop("P_kW")}),
                 id="goal-quantity-misspelt"),
    # read, not run: mtu_measurements.csv, trace.csv and grid_truth.csv are never quoted
    pytest.param("scada.rtus[0].station",
                 lambda raw: raw["scada"]["rtus"][0].update(station="rtu,1"), id="station-comma"),
    pytest.param("scada.rtus[0].points[0].id",
                 lambda raw: raw["scada"]["rtus"][0]["points"][0].update(id="m\n1"),
                 id="point-id-line-break"),
    pytest.param("grid.transformer.id",
                 lambda raw: raw["grid"]["transformer"].update(id="tx,1"),
                 id="transformer-id-comma"),
])
def test_out_of_range_timing_exits_2_naming_field(tmp_path, capsys, field, mutate):
    raw = yaml.safe_load(fixture_text("reference"))
    mutate(raw)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
    assert field in capsys.readouterr().err


class TestRunAsModule:
    """``python -m scadasim``, each in a child process, as a user starts it, and
    the CLI in a child interpreter that cannot import numpy."""

    @staticmethod
    def run_python(*args, **env):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=path, **env))

    def run_module(self, *argv, **env):
        return self.run_python("-m", "scadasim", *argv, **env)

    def test_help_exits_0(self):
        done = self.run_module("--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: scadasim")

    def test_ids_eval_bytes_do_not_depend_on_the_string_hash_seed(self, tmp_path, two_datasets):
        # the pinned `ids eval`, under two string-hash seeds: no byte of any file
        # may depend on set or dict hash order
        a, b = two_datasets
        digests = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            done = self.run_module("ids", "eval", "--algo", "rf,knn,lof,iforest",
                                   "--train", str(a), "--test", str(a), str(b),
                                   "--out", str(out), "--seed", "0", PYTHONHASHSEED=hash_seed)
            assert done.returncode == 0, done.stderr
            digests.append({path.relative_to(out).as_posix():
                            hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in out.rglob("*") if path.is_file()})
        assert digests[0] == digests[1]
        assert {name: digests[0][name] for name in PINNED_IDS_EVAL} == PINNED_IDS_EVAL

    def test_unknown_scenario_exits_2_and_creates_no_out(self, tmp_path):
        out = tmp_path / "bad"
        done = self.run_module("simulate", "--scenario", "9", "--out", str(out))
        assert done.returncode == 2, done.stderr
        assert "scenario '9'" in done.stderr
        assert not out.exists()

    def test_simulate_and_dataset_export_run_with_numpy_blocked(self, tmp_path):
        # numpy is the IDS's dependency: a None entry in sys.modules makes any
        # import of it fail, and the simulator still writes the pinned bytes
        script = ("import sys; sys.modules['numpy'] = None; from scadasim.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        out = tmp_path / "ref"
        done = self.run_python("-c", script, "simulate", "--scenario", "reference",
                               "--seed", "1", "--trace", "--out", str(out))
        assert done.returncode == 0, done.stderr
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in PINNED_REFERENCE_SEED_1}
        assert digests == PINNED_REFERENCE_SEED_1
        done = self.run_python("-c", script, "dataset", "export", "--scenario", "4",
                               "--out", str(tmp_path / "s4.csv"))
        assert done.returncode == 0, done.stderr


class TestDatasetExport:
    def test_exported_csv_imports_cleanly(self, two_datasets):
        a, _ = two_datasets
        ds = import_csv(str(a))
        assert len(ds.records) > 1000
        assert ds.balance[0] > 0

    def test_out_under_a_file_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        out = taken / "x.csv"
        assert run_cli("dataset", "export", "--scenario", "4", "--seed", "0",
                       "--out", str(out)) == 2
        assert f"--out {out}" in capsys.readouterr().err

    def test_out_that_is_a_directory_exits_2_before_simulating(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        assert run_cli("dataset", "export", "--scenario", "4", "--seed", "0",
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"--out {tmp_path}" in err and "is a directory" in err

    @pytest.mark.parametrize("out", ["", f"new{os.sep}", f"new{os.sep}."],
                             ids=["empty", "trailing-separator", "dot"])
    def test_out_that_names_no_file_exits_2_before_simulating_and_creates_nothing(
            self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", refuse_work)
        assert run_cli("dataset", "export", "--scenario", "4", "--seed", "0", "--out", out) == 2
        assert f"--out {out!r}: names no file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestIdsCommands:
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
        code = run_cli("ids", "eval", "--algo", "lof", "--train", str(a), "--test", str(a),
                       "--out", str(tmp_path / "out"), "--semi-train", "full")
        assert code == 4
        assert "attack-labeled" in capsys.readouterr().err

    def test_missing_test_file_exits_2_naming_path(self, tmp_path, two_datasets, capsys):
        a, _ = two_datasets
        code = run_cli("ids", "eval", "--algo", "rf", "--train", str(a),
                       "--test", str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval"])
    def test_dataset_that_is_not_utf8_exits_2_naming_file_and_row(
            self, tmp_path, capsys, command):
        train = tmp_path / "train.csv"
        train.write_bytes("\n".join([CSV_HEADER, NORMAL_ROW, ATTACK_ROW]).encode("utf-8")
                          + b"\n1000,10.0.0.11,10.0.0.\xff,SCADA,61,normal,\n")
        code = run_cli("ids", command, "--algo", "rf", "--train", str(train), "--test", str(train),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{train} row 4: byte 0xff" in err

    @pytest.mark.parametrize("command", ["eval"])
    @pytest.mark.parametrize("algo, detail", [
        pytest.param(",", "names no algorithm", id="empty"),
        pytest.param("rf,knn,rf", "'rf' twice", id="repeated"),
        pytest.param("lof, lof", "'lof' twice", id="repeated-after-space"),
        pytest.param("svm", "unknown algorithm 'svm'", id="unknown"),
    ])
    def test_algo_list_naming_none_or_one_twice_exits_2(
            self, tmp_path, capsys, two_datasets, command, algo, detail):
        a, _ = two_datasets
        out = tmp_path / "out"
        code = run_cli("ids", command, "--algo", algo, "--train", str(a), "--test", str(a),
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert detail in err and "--algo" in err and "scenario config" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval"])
    def test_out_that_is_a_file_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, two_datasets, command):
        a, _ = two_datasets
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        monkeypatch.setattr(models, "train_model", refuse_work)
        code = run_cli("ids", command, "--algo", "rf", "--train", str(a), "--test", str(a),
                       "--out", str(taken))
        assert code == 2
        assert f"--out {taken}" in capsys.readouterr().err

    def test_empty_out_exits_2_before_training_and_creates_nothing(
            self, tmp_path, capsys, monkeypatch, two_datasets):
        # os.path.join("", "models") is "models": the working directory is no --out
        a, _ = two_datasets
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(models, "train_model", refuse_work)
        code = run_cli("ids", "eval", "--algo", "rf", "--train", str(a), "--test", str(a),
                       "--out", "")
        assert code == 2
        assert "--out : cannot create directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["eval"])
    @pytest.mark.parametrize("algo, rows, detail", [
        pytest.param("rf", [], "empty training set", id="rf-header-only"),
        pytest.param("rf", [NORMAL_ROW] * 3, "both classes", id="rf-all-normal"),
        pytest.param("lof", [NORMAL_ROW] * 2, "more than k=20", id="lof-two-rows"),
        pytest.param("knn", [NORMAL_ROW, ATTACK_ROW], "k=5 exceeds", id="knn-two-rows"),
        pytest.param("iforest", [ATTACK_ROW, NORMAL_ROW], "empty training set",
                     id="iforest-no-warmup"),
    ])
    def test_unusable_training_data_exits_2_naming_algorithm_and_file(
            self, tmp_path, capsys, command, algo, rows, detail):
        train = tmp_path / "train.csv"
        train.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
        code = run_cli("ids", command, "--algo", algo, "--train", str(train), "--test", str(train),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot train {algo} on" in err and str(train) in err and detail in err

    def test_two_test_files_with_one_name_exit_2_before_training(
            self, tmp_path, capsys, monkeypatch, two_datasets):
        # both would be reported as test set 'ref-a', in rows nothing tells apart
        a, b = two_datasets
        twin = tmp_path / "elsewhere" / a.name
        twin.parent.mkdir()
        twin.write_bytes(b.read_bytes())
        monkeypatch.setattr(models, "train_model", refuse_work)
        out = tmp_path / "out"
        code = run_cli("ids", "eval", "--algo", "rf", "--train", str(a),
                       "--test", str(a), str(twin), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "--test" in err and "'ref-a'" in err
        assert not out.exists()

    @pytest.mark.parametrize("rel", ["models/rf.json", "eval_report.json"])
    def test_directory_at_an_output_path_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, two_datasets, rel):
        a, _ = two_datasets
        out = tmp_path / "out"
        (out / rel).mkdir(parents=True)
        monkeypatch.setattr(models, "train_model", refuse_work)
        code = run_cli("ids", "eval", "--algo", "rf,knn", "--train", str(a), "--test", str(a),
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"--out {out}: cannot write {out / rel}: it is a directory" in err
        assert not (out / "models" / "knn.json").exists()

    def test_eval_into_one_out_removes_the_models_of_algorithms_it_does_not_run(
            self, tmp_path, two_datasets):
        a, b = two_datasets
        out = tmp_path / "out"
        for algo in ("rf,knn", "rf"):
            assert run_cli("ids", "eval", "--algo", algo, "--train", str(a), "--test", str(b),
                           "--out", str(out)) == 0
            (out / "models" / "notes.txt").write_text("kept", encoding="utf-8")
        assert sorted(p.name for p in (out / "models").iterdir()) == ["notes.txt", "rf.json"]

    def test_ids_train_is_no_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("ids", "train", "--algo", "rf", "--train", "a.csv", "--out", "models")
        assert exit_info.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err

    def test_eval_artifact_hashes_are_pinned(self, tmp_path, two_datasets):
        a, b = two_datasets
        out = tmp_path / "pinned"
        assert run_cli("ids", "eval", "--algo", "rf,knn,lof,iforest", "--train", str(a),
                       "--test", str(a), str(b), "--out", str(out), "--seed", "0") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in PINNED_IDS_EVAL}
        assert digests == PINNED_IDS_EVAL

    def test_eval_on_two_training_files_hashes_are_pinned(self, tmp_path, two_datasets):
        a, b = two_datasets
        out = tmp_path / "pinned"
        assert run_cli("ids", "eval", "--algo", "rf,knn,lof,iforest", "--train", str(a), str(b),
                       "--test", str(a), str(b), "--out", str(out), "--seed", "0") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in PINNED_IDS_EVAL_TWO_TRAIN}
        assert digests == PINNED_IDS_EVAL_TWO_TRAIN

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
        assert run_cli("ids", "eval", "--algo", "knn", "--train", str(a), "--test", str(b),
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("report", "--report", str(out / "eval_report.json")) == 0
        rendered = capsys.readouterr().out
        assert "knn" in rendered and "F1" in rendered
        # the table rebuilt from the JSON report is the one ids eval wrote
        assert rendered.encode("utf-8") == (out / "report_table.txt").read_bytes()

    @pytest.mark.parametrize("text, detail", [
        pytest.param('[{"algorithm": "knn"}]', "cell 0", id="cell-lacks-fields"),
        pytest.param('{"algorithm": "knn"}', "list", id="top-level-not-a-list"),
        pytest.param('[{"algorithm": ', "JSON", id="invalid-json"),
    ])
    def test_malformed_report_exits_2_naming_file(self, tmp_path, capsys, text, detail):
        report = tmp_path / "eval_report.json"
        report.write_text(text, encoding="utf-8")
        assert run_cli("report", "--report", str(report)) == 2
        err = capsys.readouterr().err
        assert str(report) in err and detail in err


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
