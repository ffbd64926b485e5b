import copy
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from functools import cache
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PurePythonLoader
from scadasim import config as config_module
from scadasim.config import (
    MAX_SCAN,
    ConfigError,
    expand_address_range,
    expand_port_set,
    load_config,
    load_config_dict,
)
from scadasim.scenario import fixture_text, load_fixture


def minimal_raw():
    return {
        "format_version": 1,
        "scenario_id": "custom",
        "seed": 3,
        "grid": {
            "buses": [{"id": "mv", "nominal_kv": 10.0}, {"id": "lv", "nominal_kv": 0.4}],
            "transformer": {"id": "tx", "hv_bus": "mv", "lv_bus": "lv", "rating_kva": 400,
                            "resistance_ohm": 0.002, "reactance_ohm": 0.008},
            "lines": [],
            "loads": [{"id": "ld", "bus": "lv", "p_kw": 50, "q_kvar": 10}],
        },
        "ict": {
            "nodes": [
                {"id": "sw", "kind": "switch"},
                {"id": "mtu-host", "kind": "host", "address": "10.0.0.10"},
                {"id": "rtu1-host", "kind": "host", "address": "10.0.0.11"},
                {"id": "atk", "kind": "host", "address": "10.0.0.66"},
                {"id": "ids-host", "kind": "host", "address": "10.0.0.13"},
            ],
            "links": [
                {"id": "l1", "a": "mtu-host", "b": "sw"},
                {"id": "l2", "a": "rtu1-host", "b": "sw"},
                {"id": "l3", "a": "atk", "b": "sw"},
                {"id": "l4", "a": "ids-host", "b": "sw"},
            ],
            "span": {"switch": "sw", "monitor": "ids-host"},
        },
        "hosts": {
            "rtu1-host": {
                "services": [
                    {"port": 80, "protocol": "HTTP",
                     "rce": {"method": "cmd_param", "user": "www-data"}},
                ],
                "pe_paths": ["suid_binary"],
            },
        },
        "scada": {
            "mtu": {"host": "mtu-host"},
            "rtus": [{"station": "rtu1", "host": "rtu1-host",
                      "points": [{"id": "m1", "quantity": "P_kW", "element": "tx"}]}],
        },
        "attacker": {
            "host": "atk",
            "goal": {"kind": "dos"},
            "address_range": ["10.0.0.10-10.0.0.13"],
            "port_set": [80],
        },
        "capture": {},
    }


class TestHelpers:
    def test_expand_address_range(self):
        assert expand_address_range("10.0.0.1-10.0.0.3") == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        assert expand_address_range(["10.0.0.5", "10.0.1.254-10.0.2.1"]) == [
            "10.0.0.5", "10.0.1.254", "10.0.1.255", "10.0.2.0", "10.0.2.1"]
        with pytest.raises(ValueError, match="backwards"):
            expand_address_range("10.0.0.5-10.0.0.1")
        # each address keeps the version of the span's ends, even below 2**32
        assert expand_address_range("::1-::3") == ["::1", "::2", "::3"]
        with pytest.raises(ValueError, match="mixes IPv4 and IPv6"):
            expand_address_range("0.0.0.1-::3")

    def test_scan_is_bounded(self):
        assert len(expand_address_range("10.0.0.0-10.0.255.255")) == MAX_SCAN == 65_536
        past = "takes the scan past 65536 addresses"
        with pytest.raises(ValueError, match=f"'10.0.0.0-10.1.0.0' {past}"):
            expand_address_range("10.0.0.0-10.1.0.0")
        # spans that each fit cannot add up past the bound either
        with pytest.raises(ValueError, match=f"'10.2.0.0-10.2.0.1' {past}"):
            expand_address_range(["10.0.0.1", "10.1.0.0-10.1.255.254", "10.2.0.0-10.2.0.1"])

    def test_wide_address_span_is_refused_before_it_is_expanded(self):
        # a /8 expanded to 16.7M address strings at load time, and an IPv6 span such as
        # this one would have exhausted memory
        raw = minimal_raw()
        raw["attacker"]["address_range"] = ["10.0.0.10-10.0.0.13", "::1-::ffff:ffff"]
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                load_config_dict(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.errors == ["attacker.address_range: address range '::1-::ffff:ffff' "
                                    "takes the scan past 65536 addresses"]
        assert peak < 1_000_000

    def test_expand_port_set(self):
        assert expand_port_set("1-4") == [1, 2, 3, 4]
        assert expand_port_set([80, "20-22", 22]) == [20, 21, 22, 80]
        with pytest.raises(ValueError, match="out of range"):
            expand_port_set([0])

    @pytest.mark.parametrize("item", [-5, "80-", "a"])
    def test_port_set_error_names_the_item(self, item):
        raw = minimal_raw()
        raw["attacker"]["port_set"] = [80, item]
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == [f"attacker.port_set: port item {str(item)!r} "
                                    "is neither a port nor a 'lo-hi' range"]


class TestValidation:
    def test_minimal_config_loads(self):
        config = load_config_dict(minimal_raw())
        assert config.seed == 3
        assert config.attacker.port_set == [80]
        assert config.topology.span.monitor_node_id == "ids-host"

    def test_all_errors_reported_not_just_first(self):
        raw = minimal_raw()
        raw["ict"]["links"][0]["a"] = "ghost-host"       # bad link endpoint
        raw["attacker"]["host"] = "nobody"               # bad attacker host
        raw["format_version"] = 7                        # bad version
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        messages = err.value.errors
        assert len(messages) >= 3
        joined = "\n".join(messages)
        assert "ghost-host" in joined
        assert "nobody" in joined
        assert "format_version" in joined

    def test_link_error_names_link_and_host(self):
        raw = minimal_raw()
        raw["ict"]["links"][1] = {"id": "l2", "a": "rtu1-host", "b": "missing-switch"}
        with pytest.raises(ConfigError, match="missing-switch"):
            load_config_dict(raw)

    def test_loss_probability_out_of_range(self):
        raw = minimal_raw()
        raw["ict"]["links"][0]["loss_probability"] = 1.5
        with pytest.raises(ConfigError, match="loss_probability"):
            load_config_dict(raw)

    def test_unknown_binding_element_rejected(self):
        raw = minimal_raw()
        raw["scada"]["rtus"][0]["points"][0]["element"] = "ghost-tx"
        with pytest.raises(ConfigError, match="ghost-tx"):
            load_config_dict(raw)

    def test_manipulate_goal_requires_transform(self):
        raw = minimal_raw()
        raw["attacker"]["goal"] = {"kind": "manipulate"}
        with pytest.raises(ConfigError, match="manipulation spec"):
            load_config_dict(raw)

    @pytest.mark.parametrize("mutate, field", [
        pytest.param(lambda raw: raw["ict"]["nodes"][1].update(address="10.0.0.10,x"),
                     "ict.nodes[1].address", id="comma-in-address"),
        pytest.param(lambda raw: raw["ict"]["nodes"].append({"id": "sw\r\n2", "kind": "switch"}),
                     "ict.nodes[5].id", id="line-break-in-id"),
    ])
    def test_csv_unsafe_address_or_node_id_rejected(self, mutate, field):
        # dataset.csv is written unquoted, so such a value would break its re-import
        raw = minimal_raw()
        mutate(raw)
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config_dict(raw)

    @pytest.mark.parametrize("mutate, field, runs", [
        # the attacker's spoof would reach rtu2 alone; rtu1 would go on reporting true values
        pytest.param(lambda raw: raw["scada"]["rtus"].append(
                         dict(raw["scada"]["rtus"][0], station="rtu2")),
                     "scada.rtus[1].host", "RTU 'rtu1'", id="second-rtu-on-rtu1-host"),
        # the MTU would never hear its own host's reports
        pytest.param(lambda raw: raw["scada"]["rtus"][0].update(host="mtu-host"),
                     "scada.rtus[0].host", "the MTU", id="rtu-on-mtu-host"),
    ])
    def test_rtu_on_a_host_that_runs_a_scada_app_rejected(self, mutate, field, runs):
        raw = minimal_raw()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == [f"{field}: {raw['scada']['rtus'][-1]['host']!r} "
                                    f"already runs {runs}"]

    @pytest.mark.parametrize("mutate, where", [
        pytest.param(lambda raw: raw.update(scenario_id="r\ud800"), "scenario_id",
                     id="scenario-id"),
        pytest.param(lambda raw: raw["scada"]["rtus"][0].update(station="rtu\udc801"),
                     "scada.rtus[0].station", id="station"),
    ])
    def test_lone_surrogate_is_refused_by_name(self, mutate, where):
        # the pure-Python parser reads an escaped one, and simulate then exited 1 when
        # it wrote the artifacts, which are UTF-8
        raw = minimal_raw()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{where}: ")
        assert err.value.errors[0].endswith(" holds a lone surrogate, not UTF-8 text")

    def test_unknown_pe_path_rejected(self):
        raw = minimal_raw()
        raw["hosts"]["rtu1-host"]["pe_paths"] = ["kernel_bug"]
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == ["hosts.rtu1-host.pe_paths[0]: expected one of suid_binary, "
                                    "sudoers_script, got 'kernel_bug'"]

    def test_duplicate_station_rejected(self):
        # both RTUs would be engine target rtu:rtu1, and their MTU rows would mix
        raw = minimal_raw()
        raw["scada"]["rtus"].append(dict(raw["scada"]["rtus"][0], host="ids-host"))
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == ["scada.rtus[1].station: 'rtu1' already names scada.rtus[0]"]

    def test_two_hosts_keys_that_read_as_one_node_id_rejected(self):
        # YAML keeps 7 and "7" apart, but both name node '7': the later entry would
        # silently replace the earlier one's services
        raw = minimal_raw()
        nodes, links = raw["ict"]["nodes"], raw["ict"]["links"]
        nodes[4]["id"] = links[3]["a"] = raw["ict"]["span"]["monitor"] = 7
        raw["hosts"][7] = {"services": [{"port": 22, "protocol": "SSH"}]}
        raw["hosts"]["7"] = {}
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == ["hosts: duplicate key '7'"]

    @pytest.mark.parametrize("mutate, field", [
        pytest.param(lambda rtu: rtu.update(host="ghost-host"), "scada.rtus[0].host: ",
                     id="unknown-host"),
        pytest.param(lambda rtu: rtu["points"][0].update(element="ghost-tx"),
                     "scada.rtus[0].points[0].element: unknown transformer 'ghost-tx'",
                     id="unknown-element"),
        pytest.param(lambda rtu: rtu["points"][0].update(quantity="I_A"),
                     "scada.rtus[0].points[0].quantity: expected one of "
                     "transformer_loading_percent, P_kW, Q_kvar, V_pu, got 'I_A'",
                     id="unknown-quantity"),
        pytest.param(lambda rtu: rtu["points"][0].update(quantity="V_pu", element="ghost-bus"),
                     "scada.rtus[0].points[0].element: unknown bus 'ghost-bus'", id="unknown-bus"),
        pytest.param(lambda rtu: rtu.update(report_offset_ms=1000),
                     "scada.rtus[0].report_offset_ms: ", id="offset-1000"),
    ])
    def test_rtu_errors_name_the_rtu_by_index(self, mutate, field):
        raw = minimal_raw()
        mutate(raw["scada"]["rtus"][0])
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(field)

    @pytest.mark.parametrize("mutate, expected", [
        pytest.param(lambda raw: raw["attacker"].update(probe_pacing_ms=-1, host="ghost"),
                     ["attacker.probe_pacing_ms: must be at least 0, got -1",
                      "attacker.host: unknown host 'ghost'"], id="attacker-pacing"),
        pytest.param(lambda raw: raw["scada"]["rtus"][0].update(station="rtu,1", host="ghost"),
                     ["scada.rtus[0].host: unknown host 'ghost'",
                      "scada.rtus[0].station: 'rtu,1' holds a comma or line break, "
                      "which an unquoted CSV cannot carry"], id="rtu-station-comma"),
        # a field error outside ops, or in ops itself, hides none of ops's host checks
        pytest.param(lambda raw: (raw.update(format_version=7), raw["ops"].update(host="ghost")),
                     ["format_version: must be in [1, 1], got 7",
                      "ops.host: unknown host 'ghost'"], id="top-level-version"),
        pytest.param(lambda raw: (raw["capture"].update(balance_target="x"),
                                  raw["ops"].update(http_targets=["ghost"])),
                     ["capture.balance_target: expected a number, got 'x'",
                      "ops.http_targets: unknown host 'ghost'"], id="capture-balance-target"),
        pytest.param(lambda raw: raw["ops"].update(http_period_steps=0, host="ghost"),
                     ["ops.http_period_steps: must be at least 1, got 0",
                      "ops.host: unknown host 'ghost'"], id="ops-period"),
    ])
    def test_field_error_does_not_hide_the_sections_host_error(self, mutate, expected):
        raw = yaml.safe_load(fixture_text("reference"))
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert sorted(err.value.errors) == sorted(expected)

    @pytest.mark.parametrize("path", [
        ("scenario_idd",), ("durations", "warmup_stpes"), ("grid", "buss"),
        ("grid", "profile", "day_stpes"), ("grid", "buses", 0, "nominal_k"), ("ict", "nodez"),
        ("ict", "nodes", 0, "adress"), ("ict", "links", 0, "latncy_ms"),
        ("hosts", "rtu1-host", "pe_pathz"), ("hosts", "rtu1-host", "services", 0, "bannr"),
        ("scada", "rtuz"), ("scada", "mtu", "interrogate_stal"), ("scada", "rtus", 0, "statoin"),
        ("scada", "rtus", 0, "points", 0, "elemnt"), ("attacker", "probe_pacng_ms"),
        ("attacker", "goal", "transfrom"), ("ops", "give_up_aftr"), ("capture", "balance_targt"),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_misspelled_key_is_refused_naming_its_path(self, path):
        # without the check the setting it meant would keep its default without a word
        raw = yaml.safe_load(fixture_text("reference"))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 5
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        assert err.value.errors == [f"{where}: unknown key"]

    @pytest.mark.parametrize("delete", [lambda raw: raw.pop("scada"),
                                        lambda raw: raw["scada"].pop("mtu")],
                             ids=["scada", "scada.mtu"])
    def test_missing_mtu_is_named_missing(self, delete):
        # it read 'scada.mtu: expected a mapping, got None', unlike every other
        # required field
        raw = yaml.safe_load(fixture_text("reference"))
        delete(raw)
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == ["scada.mtu: missing"]

    @pytest.mark.parametrize("address", ["x", "10.0.0", "10.0.0.256", ""])
    def test_node_address_must_be_an_ip_address(self, address):
        # the attacker's address range could never reach such a node
        raw = minimal_raw()
        raw["ict"]["nodes"][1]["address"] = address
        with pytest.raises(ConfigError, match=re.escape("ict.nodes[1].address")):
            load_config_dict(raw)

    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(minimal_raw()))
        config = load_config(str(path))
        assert config.scada.rtus[0].binding.station == "rtu1"

    def test_yaml_syntax_error_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("format_version: 1\ngrid: [\n")
        with pytest.raises(ConfigError, match="broken.yaml"):
            load_config(str(path))


FIXTURES = ["reference"] + [f"scenario{i}" for i in range(1, 7)]

# sha256 of each fixture's text and of its config's repr, taken when each fixture was
# one whole file: composing it from the shared world and its campaign changes neither
PINNED_FIXTURES = {
    "reference": ("74a0bde1ffc9e57a2ab3445d005bc12f6d08be9ea989d4774758f8e78efab6ff",
                  "65b31a5c1b7735749fafa84b4b4dd0ffee2e359b00e2d5f2459a6ebf6e0472f7"),
    "scenario1": ("a518d64f3e882f2d8f565ca778dfa044f7012ed2e006db94602dac00d6476358",
                  "a9315330f08186dba0aa7ba7f38d43dfa778f88f9807f82c8cc86208d2efa323"),
    "scenario2": ("11eb08bbf6ea256eadeb56afdb6ff16f814660cb20c4132bc10953e1c0153306",
                  "277d352ebefab60f65cd0bc69a5c9f9b05aca7feff0ae2f794647f77909deba0"),
    "scenario3": ("954ff1f94e8a642d028c8872539908abe20f70253bd5389f01d29b1218b4a28d",
                  "e3089d6643adb331fd6f3a9e03c9a50df7053250656ba56f8dfcdcf5c1b7a016"),
    "scenario4": ("6d12d3b08d3e9932d44bce7fcefe5fdf3ef1421e88ff447ec33aaabbabcf4493",
                  "c2cf14cf49c2e873d76970aa953ec0855e6da6e7f570a8f8d6bd48bf9f24f033"),
    "scenario5": ("5c8eea7b74a578dcaf38be5d9dec549aafe7e347e810dc14535e0e39aea8d6a1",
                  "fd5cf6c33f46885fa34f788a426c47fea297110df1086583e2c1030316f0cb82"),
    "scenario6": ("5218144ae1e7148f5dc4f81f9deeddd29803ac74d00082e4b1b59081522b7ee6",
                  "0dbfac6e78674642b843059839b3b1ddbbf0e73e0c2dc14a7c04a11db9f87687"),
}
WORLD_KEYS = {"format_version", "seed", "grid", "ict", "hosts", "scada", "ops"}
CAMPAIGN_KEYS = {"scenario_id", "durations", "attacker", "capture"}


def data_text(name):
    """The text of ``scadasim/data/<name>.yaml``: the world or one campaign."""
    return resources.files("scadasim").joinpath("data", f"{name}.yaml").read_text(
        encoding="utf-8")


class TestShippedFixtures:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_loads_cleanly(self, name):
        config = load_fixture(name)
        assert config.format_version == 1
        assert config.topology.span is not None
        assert config.attacker.port_set

    @pytest.mark.parametrize("name", PINNED_FIXTURES)
    def test_fixture_text_and_config_are_pinned(self, name):
        text, config = PINNED_FIXTURES[name]
        assert hashlib.sha256(fixture_text(name).encode("utf-8")).hexdigest() == text
        assert hashlib.sha256(repr(load_fixture(name)).encode("utf-8")).hexdigest() == config

    @pytest.mark.parametrize("name", ["world"] + FIXTURES)
    def test_world_and_campaigns_hold_their_own_keys(self, name):
        # a key in both parts would be written twice in the composed document, and a
        # document marker or directive line would split it in two
        text = data_text(name)
        keys = yaml.load(text, Loader=config_module.ScenarioLoader)
        assert set(keys) == (WORLD_KEYS if name == "world" else CAMPAIGN_KEYS)
        assert not [line for line in text.splitlines() if line.startswith(("---", "...", "%"))]
        assert text.endswith("\n")

    def test_scenario_targets_match_table(self):
        targets = {1: 98.05, 2: 97.75, 3: 98.01, 4: 72.80, 5: 71.86, 6: 71.02}
        for sid, expected in targets.items():
            config = load_fixture(sid)
            assert config.capture.balance_target == pytest.approx(expected)

    def test_dos_scenarios_enforce_and_manipulation_scenarios_do_not(self):
        for sid in (1, 2, 3):
            config = load_fixture(sid)
            assert config.attacker.goal.kind == "dos"
            assert config.attacker.enforce_dos is True
        for sid in (4, 5, 6):
            config = load_fixture(sid)
            assert config.attacker.goal.kind == "manipulate"
            assert config.attacker.goal.manipulation


# inputs that both PyYAML parsers refuse, each with the same YAMLError subclass
MALFORMED_YAML = {
    "tab-indent": "format_version: 1\ngrid:\n\tbuses: []\n",
    "nul-byte": "format_version: 1\nscenario_id: a\x00b\n",
    "unclosed-quote": 'format_version: 1\nscenario_id: "a\n',
    "bad-escape": 'format_version: 1\nscenario_id: "\\q"\n',
    "unknown-anchor": "format_version: 1\ngrid: *nope\n",
    "python-tag": "format_version: 1\ngrid: !!python/object:os.system x\n",
    "unclosed-flow": "format_version: 1\ngrid: [\n",
    "two-documents": "format_version: 1\n---\nformat_version: 1\n",
}


class TestScenarioLoader:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_parses_as_under_pyyaml_safe_loader(self, name, scenario_loader):
        text = fixture_text(name)
        assert yaml.load(text, Loader=scenario_loader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_pure_python_fallback_gives_the_same_config(self, name, monkeypatch):
        package = repr(load_fixture(name))
        monkeypatch.setattr(config_module, "ScenarioLoader", PurePythonLoader)
        assert repr(load_fixture(name)) == package

    @pytest.mark.parametrize("text", MALFORMED_YAML.values(), ids=MALFORMED_YAML)
    def test_both_parsers_refuse_malformed_yaml_alike(self, text):
        refused = []
        for loader in (config_module.ScenarioLoader, PurePythonLoader):
            with pytest.raises(yaml.YAMLError) as err:
                yaml.load(text, Loader=loader)
            refused.append(type(err.value))
        assert refused[0] is refused[1]

    @pytest.mark.parametrize("text", MALFORMED_YAML.values(), ids=MALFORMED_YAML)
    def test_malformed_yaml_is_a_config_error_naming_the_file(self, tmp_path, text,
                                                              scenario_loader):
        path = tmp_path / "broken.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.errors[0].startswith(f"{path}: not a readable YAML document: ")

    @pytest.mark.parametrize("text, key, line", [
        ("format_version: 1\ncapture: {}\ncapture: {}\n", "'capture'", 3),
        ("format_version: 1\ncapture:\n  balance_target: 1\n  balance_target: 2\n",
         "'balance_target'", 4),
        # one key however it is written: quoted, and as another spelling of one int
        ("format_version: 1\n'format_version': 1\n", "'format_version'", 2),
        ("format_version: 1\nhosts: {1: a, 01: b}\n", "1", 2),
        # a campaign that repeats a world key, after the world it is composed with
        (data_text("world") + "grid: {}\n" + data_text("reference"), "'grid'",
         data_text("world").count("\n") + 1),
    ], ids=["top-level", "nested", "quoted", "one-int", "campaign-repeats-world-key"])
    def test_key_written_twice_is_refused_naming_key_and_line(self, tmp_path, text, key, line,
                                                              scenario_loader):
        # a second value silently replaced the first
        path = tmp_path / "twice.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        message = err.value.errors[0]
        assert message.startswith(f"{path}: ")
        assert f"found duplicate key {key}\n  in \"{path}\", line {line}," in message

    @pytest.mark.parametrize("text, expected", [
        ("base: &b {x: 1, y: 2}\nover: {<<: *b, x: 3}\n",
         {"base": {"x": 1, "y": 2}, "over": {"x": 3, "y": 2}}),
        ("a: &a {x: 1}\nb: &b {x: 2}\nover: {<<: [*a, *b], x: 3}\n",
         {"a": {"x": 1}, "b": {"x": 2}, "over": {"x": 3}}),
        # 'derived' is merged into 'late', and so flattened, before it is constructed
        ("a:\n  derived: &d {<<: {x: 1}, x: 2}\nlate: {<<: *d, y: 1}\n",
         {"a": {"derived": {"x": 2}}, "late": {"x": 2, "y": 1}}),
    ], ids=["merge", "merge-list", "merged-before-constructed"])
    def test_merge_overrides_are_not_duplicate_keys(self, text, expected, scenario_loader):
        assert yaml.load(text, Loader=scenario_loader) == expected == yaml.safe_load(text)

    def test_nesting_deeper_than_the_recursion_limit_is_a_config_error(self, tmp_path,
                                                                       scenario_loader):
        # block sequences in one another; the CLI test nests flow sequences
        path = tmp_path / "deep.yaml"
        path.write_text("format_version: 1\ngrid:\n  " + "- " * 3000 + "x\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.errors == [f"{path}: nested too deeply to parse"]

    def test_nesting_that_overflows_libyamls_composer_is_a_config_error(self, tmp_path):
        # libyaml's own composer recurses in C: at this depth it crashed the process
        # with a segmentation fault, so the run is kept out of the test process
        path = tmp_path / "deeper.yaml"
        path.write_text("format_version: 1\ngrid: " + "[" * 100_000 + "]" * 100_000 + "\n",
                        encoding="utf-8")
        src = str(Path(config_module.__file__).parents[1])
        code = ("import sys; from scadasim.cli import main; "
                "sys.exit(main(['simulate', '--scenario', sys.argv[1], '--out', sys.argv[2]]))")
        done = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "o")],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert f"{path}: nested too deeply to parse" in done.stderr


@cache
def _fixture_tree(name):
    """A shipped fixture's parsed YAML and every key path in it."""
    raw = yaml.safe_load(fixture_text(name))
    paths = []

    def walk(node, prefix):
        children = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            paths.append(prefix + (key,))
            walk(child, prefix + (key,))

    walk(raw, ())
    return raw, paths


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_single_field_mutation_loads_or_raises_config_error(data):
    base, paths = _fixture_tree(data.draw(st.sampled_from(FIXTURES), label="fixture"))
    path = data.draw(st.sampled_from(paths), label="path")
    raw = copy.deepcopy(base)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_VALUES, label="value")
    try:
        load_config_dict(raw)
    except ConfigError:
        pass


def _set(*path_and_value):
    """A fault that sets the value at a key path of a parsed fixture."""
    *path, value = path_and_value

    def fault(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return fault


# section -> its faults, each (kind, fault, the start of the error that must name it),
# where the kind is a bad field value, a bad cross-reference or a misspelled key. No
# fault moves an app off its host, so each cross-reference stays wrong whatever else is.
FAULTS = {
    "top": [("field", _set("format_version", 7), "format_version: must be"),
            ("key", _set("scenario_idd", "x"), "scenario_idd: unknown key")],
    "durations": [
        ("field", _set("durations", "warmup_steps", -1), "durations.warmup_steps: must be"),
        ("key", _set("durations", "warmup_stpes", 5), "durations.warmup_stpes: unknown key")],
    "grid": [
        ("field", _set("grid", "transformer", "rating_kva", "x"), "grid.transformer.rating_kva: "),
        ("field", _set("grid", "profile", "day_steps", 0), "grid.profile.day_steps: must be"),
        ("ref", _set("grid", "loads", 0, "bus", "ghost"), "grid.loads[0].bus: unknown bus"),
        ("ref", _set("grid", "lines", 0, "from", "ghost"), "grid.lines[0].from: unknown bus"),
        ("ref", _set("grid", "transformer", "hv_bus", "ghost"),
         "grid.transformer.hv_bus: unknown bus"),
        ("key", _set("grid", "profile", "day_stpes", 5), "grid.profile.day_stpes: unknown key")],
    "ict": [
        ("field", _set("ict", "links", 0, "loss_probability", "x"),
         "ict.links[0].loss_probability: "),
        ("ref", _set("ict", "links", 0, "a", "ghost"), "ict.links[0].a: unknown node"),
        ("ref", _set("ict", "span", "monitor", "ghost"), "ict.span.monitor: unknown node"),
        ("ref", _set("ict", "span", "switch", "ghost"), "ict.span.switch: unknown node"),
        ("key", _set("ict", "links", 0, "latncy_ms", 1), "ict.links[0].latncy_ms: unknown key")],
    "hosts": [
        ("field", _set("hosts", "rtu1-host", "services", 0, "port", 0),
         "hosts.rtu1-host.services[0].port: must be"),
        ("ref", _set("hosts", "ghost", {}), "hosts: unknown host 'ghost'"),
        ("key", _set("hosts", "rtu1-host", "pe_pathz", []),
         "hosts.rtu1-host.pe_pathz: unknown key")],
    "scada": [
        ("field", _set("scada", "mtu", "interrogate_stale", "x"), "scada.mtu.interrogate_stale: "),
        ("field", _set("scada", "rtus", 0, "report_offset_ms", "x"),
         "scada.rtus[0].report_offset_ms: "),
        ("ref", _set("scada", "mtu", "host", "ghost"), "scada.mtu.host: unknown host"),
        ("ref", lambda raw: raw["scada"]["rtus"].append({"station": "rtu9", "host": "ghost"}),
         "scada.rtus[1].host: unknown host"),
        ("ref", _set("scada", "rtus", 0, "points", 0, "element", "ghost"),
         "scada.rtus[0].points[0].element: unknown "),
        ("key", _set("scada", "rtus", 0, "statoin", "x"), "scada.rtus[0].statoin: unknown key")],
    "attacker": [
        ("field", _set("attacker", "probe_pacing_ms", -1), "attacker.probe_pacing_ms: must be"),
        ("ref", _set("attacker", "host", "ghost"), "attacker.host: unknown host"),
        ("ref", _set("attacker", "host", "rtu1-host"), "attacker.host: 'rtu1-host' already runs"),
        ("key", _set("attacker", "probe_pacng_ms", 2), "attacker.probe_pacng_ms: unknown key")],
    "ops": [("field", _set("ops", "http_period_steps", 0), "ops.http_period_steps: must be"),
            ("ref", _set("ops", "host", "ghost"), "ops.host: unknown host"),
            ("ref", _set("ops", "http_targets", ["ghost"]), "ops.http_targets: unknown host"),
            ("key", _set("ops", "give_up_aftr", 5), "ops.give_up_aftr: unknown key")],
    "capture": [("field", _set("capture", "balance_target", "x"), "capture.balance_target: "),
                ("key", _set("capture", "balance_targt", 50), "capture.balance_targt: unknown key")],
}
_ALL_FAULTS = [(section, *fault) for section, faults in FAULTS.items() for fault in faults]


# derandomized: the same 500 pairs on every run, among them each cross-reference
# after a fault of every other section
@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_two_faults_in_different_sections_are_both_named(data):
    # "lists every error found": a field value or a key read is never skipped, so
    # what a fault elsewhere could hide is a cross-reference check
    base, _ = _fixture_tree(data.draw(st.sampled_from(FIXTURES), label="fixture"))
    ref = data.draw(st.sampled_from([f for f in _ALL_FAULTS if f[1] == "ref"]), label="reference")
    other = data.draw(st.sampled_from([f for f in _ALL_FAULTS if f[0] != ref[0]]), label="other")
    raw = copy.deepcopy(base)
    for _, _, fault, _ in (ref, other):
        fault(raw)
    with pytest.raises(ConfigError) as err:
        load_config_dict(raw)
    for *_, start in (ref, other):
        assert any(e.startswith(start) for e in err.value.errors), (start, err.value.errors)


_QUANTITIES = "transformer_loading_percent, P_kW, Q_kvar, V_pu"


@pytest.mark.parametrize("faults, expected", [
    pytest.param([lambda raw: raw["grid"]["buses"].append({"id": "b1", "nominal_kv": 0.4}),
                  _set("grid", "loads", 0, "bus", "ghost")],
                 ["grid: duplicate bus id 'b1'", "grid.loads[0].bus: unknown bus 'ghost'"],
                 id="duplicate-bus-and-load-bus"),
    pytest.param([_set("grid", "loads", 0, "bus", "ghost"),
                  _set("grid", "ders", 0, "bus", "ghost")],
                 ["grid.loads[0].bus: unknown bus 'ghost'", "grid.ders[0].bus: unknown bus 'ghost'"],
                 id="load-bus-and-der-bus"),
    # a bus whose other field does not read still defines its id, and the load's bus is
    # checked all the same
    pytest.param([_set("grid", "buses", 2, "nominal_kv", "x"),
                  _set("grid", "loads", 0, "bus", "ghost")],
                 ["grid.buses[2].nominal_kv: expected a number, got 'x'",
                  "grid.loads[0].bus: unknown bus 'ghost'"], id="bus-field-and-load-bus"),
    pytest.param([_set("ict", "nodes", 0, "kind", "hub"), _set("ict", "links", 1, "b", "ghost")],
                 ["ict.nodes[0].kind: expected one of host, switch, router_firewall, got 'hub'",
                  "ict.links[1].b: unknown node 'ghost'"], id="node-kind-and-link-node"),
    pytest.param([_set("ict", "links", 0, "loss_probability", 2.0),
                  _set("ict", "links", 1, "latency_ms", -1)],
                 ["ict.links[0].loss_probability: must be in [0, 1], got 2.0",
                  "ict.links[1].latency_ms: must be at least 0, got -1"], id="loss-and-latency"),
    pytest.param([_set("hosts", "rtu1-host", "services", 0, "port", 0),
                  _set("hosts", "rtu1-host", "services", 0, "protocol", "FTP")],
                 ["hosts.rtu1-host.services[0].port: must be in [1, 65535], got 0",
                  "hosts.rtu1-host.services[0].protocol: expected one of SCADA, HTTP, SSH, "
                  "TELNET, SCAN_PROBE, OTHER, got 'FTP'"], id="port-and-protocol"),
    pytest.param([_set("attacker", "goal", "transform", {"I_A": [1, 0], "S_kVA": [1, 0]})],
                 [f"attacker.goal.transform: expected one of {_QUANTITIES}, got 'I_A'",
                  f"attacker.goal.transform: expected one of {_QUANTITIES}, got 'S_kVA'"],
                 id="two-transform-quantities"),
    pytest.param([_set("scada", "rtus", 0, "points", 0, "quantity", "I_A"),
                  _set("scada", "rtus", 0, "points", 2, "quantity", "S_kVA")],
                 [f"scada.rtus[0].points[0].quantity: expected one of {_QUANTITIES}, got 'I_A'",
                  f"scada.rtus[0].points[2].quantity: expected one of {_QUANTITIES}, got 'S_kVA'"],
                 id="two-binding-quantities"),
    # a field error of a bus hides the duplicate line id after it
    pytest.param([_set("grid", "buses", 2, "nominal_kv", "x"),
                  _set("grid", "lines", 1, "id", "lf1")],
                 ["grid.buses[2].nominal_kv: expected a number, got 'x'",
                  "grid: duplicate transformer/line id 'lf1'"], id="bus-field-and-duplicate-line",
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 15")),
])
def test_two_faults_in_one_section_are_both_named(faults, expected):
    # a section's field values are all read, and its structural problems all listed
    raw, _ = _fixture_tree("reference")
    raw = copy.deepcopy(raw)
    for fault in faults:
        fault(raw)
    with pytest.raises(ConfigError) as err:
        load_config_dict(raw)
    assert set(expected) <= set(err.value.errors), err.value.errors
