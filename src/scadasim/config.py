"""Scenario configuration: one YAML file describes grid, network, hosts,
telemetry, background operator traffic, the attacker, and capture settings.

Loading validates everything up front and reports every error found, not just
the first. Cross-references (bus ids, host ids, link endpoints, bindings) must
all resolve before a simulation is allowed to start.

The dataclasses are the schema: ``_fill`` reads each field with its annotated
type (a ``Literal`` lists the values it takes), its default and its bounds, the
``{"lo", "hi"}`` metadata that ``_bounded`` writes, refuses other keys, and never
raises. A field naming other entities declares their namespace, ``{"ref": ...}``,
for ``_check_references``. The grid and topology then list their structural problems.
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from types import NoneType, UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import yaml
from yaml.composer import Composer
from yaml.constructor import ConstructorError
from yaml.nodes import ScalarNode

from .attacker import AttackGoal
from .engine import MS_PER_STEP
from .network import IctTopology, NetLink, NetNode, SpanConfig
from .powergrid import (
    Bus,
    Der,
    GridModel,
    Line,
    Load,
    RtuBinding,
    Transformer,
)
from .vulnhost import HostService, PePath

FORMAT_VERSION = 1
# the i-th RTU reports RTU_STAGGER_MS * i after its configured offset
RTU_STAGGER_MS = 10
# the most addresses one scan covers: 128 times scenario 1's 508
MAX_SCAN = 65_536
# dataclass field -> YAML key, where the two differ
_KEYS = {
    "bus_id": "id", "line_id": "id", "transformer_id": "id", "load_id": "id", "der_id": "id",
    "node_id": "id", "link_id": "id", "point_id": "id", "from_bus": "from", "to_bus": "to",
    "endpoint_a": "a", "endpoint_b": "b", "switch_id": "switch", "monitor_node_id": "monitor",
    "executing_user": "user", "target_addresses": "targets", "manipulation": "transform",
    "mtu_host": "host",
}
_HOST = {"ref": "host"}  # a field naming host nodes: a name, a list of them or a mapping's keys


class ConfigError(ValueError):
    """Carries the full list of validation errors."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid scenario config:\n  " + "\n  ".join(errors))
        self.errors = errors


class _Errors(list):
    """A load's error messages; ``read`` holds each item ``_fill`` read: (class, path, fields)."""

    def __init__(self):
        self.read: list[tuple[type, str, dict]] = []


def _bounded(default, lo, hi=None):
    """A field default together with the inclusive bounds the loader enforces."""
    return field(default=default, metadata={"lo": lo, "hi": hi})


@dataclass
class DurationsConfig:
    warmup_steps: int = _bounded(30, lo=0)
    post_steps: int = _bounded(30, lo=0)
    attack_start_jitter_steps: int = _bounded(0, lo=0)
    max_attack_steps: int = _bounded(2000, lo=0)


@dataclass
class GridSection:
    model: GridModel
    # read from grid.profile
    day_steps: int = _bounded(1440, lo=1)
    noise_amplitude: float = _bounded(0.08, lo=0)


@dataclass
class HostEntry:
    services: dict[int, HostService] = field(default_factory=dict)
    pe_paths: frozenset[PePath] = frozenset()


@dataclass
class RtuConfig:
    host: str = field(metadata=_HOST)
    binding: RtuBinding
    # the loader adds the RTU's stagger, so a loaded config holds the ms into
    # each step at which the RTU reports
    report_offset_ms: int = 20


@dataclass
class ScadaSection:
    # mtu_host and interrogate_stale are read from scada.mtu, mtu_host as its `host`
    mtu_host: str = field(metadata=_HOST)
    rtus: list[RtuConfig]
    interrogate_stale: bool = True


@dataclass
class OpsSection:
    host: str = field(metadata=_HOST)
    http_targets: list[str] = field(default_factory=list, metadata=_HOST)
    http_period_steps: int = _bounded(5, lo=1)
    http_port: int = _bounded(80, lo=1, hi=65535)
    keepalive_targets: list[str] = field(default_factory=list, metadata=_HOST)
    keepalive_period_steps: int = _bounded(7, lo=1)
    keepalive_port: int = _bounded(22, lo=1, hi=65535)
    monitor_targets: list[str] = field(default_factory=list, metadata=_HOST)
    monitor_period_steps: int = _bounded(6, lo=1)
    monitor_port: int = _bounded(2404, lo=1, hi=65535)
    # consecutive missed liveness probes; 0 = never give up
    give_up_after: int = _bounded(0, lo=0)


@dataclass
class AttackerSection:
    host: str = field(metadata=_HOST)
    goal: AttackGoal
    address_range: list[str]
    port_set: list[int]
    probe_pacing_ms: int = _bounded(2, lo=0)
    probe_timeout_ms: int = _bounded(10, lo=0)
    # unanswered probes before an address is skipped; null or 0 = never skip
    skip_unreachable_after: int | None = _bounded(3, lo=0)
    enforce_dos: bool = False


@dataclass
class CaptureSection:
    label_manipulated_reports: bool = True
    balance_target: float | None = None


@dataclass(kw_only=True)
class ScenarioConfig:
    format_version: int = field(metadata={"lo": FORMAT_VERSION, "hi": FORMAT_VERSION})
    scenario_id: str = "custom"
    seed: int = 0
    durations: DurationsConfig = field(default_factory=DurationsConfig)
    grid: GridSection
    topology: IctTopology
    hosts: dict[str, HostEntry] = field(metadata=_HOST)
    scada: ScadaSection
    attacker: AttackerSection
    capture: CaptureSection = field(default_factory=CaptureSection)
    ops: OpsSection | None = None


def expand_address_range(spec) -> list[str]:
    """Accept single addresses and 'a.b.c.d-e.f.g.h' inclusive spans, whose two ends
    are of one IP version, to at most ``MAX_SCAN`` addresses in all."""
    items = spec if isinstance(spec, list) else [spec]
    out: list[str] = []
    for item in items:
        text = str(item)
        if "-" in text:
            start_s, end_s = text.split("-", 1)
            start = ipaddress.ip_address(start_s.strip())
            end = ipaddress.ip_address(end_s.strip())
            if start.version != end.version:
                raise ValueError(f"address range {text!r} mixes IPv{start.version} "
                                 f"and IPv{end.version}")
            if end < start:
                raise ValueError(f"address range {text!r} runs backwards")
            if len(out) + int(end) - int(start) >= MAX_SCAN:  # refused before it is expanded
                raise ValueError(f"address range {text!r} takes the scan past {MAX_SCAN} "
                                 "addresses")
            # ip_address(int) would give IPv4 for any value below 2**32
            out.extend(str(type(start)(v)) for v in range(int(start), int(end) + 1))
        else:
            out.append(str(ipaddress.ip_address(text)))
    return out


def expand_port_set(spec) -> list[int]:
    """Accept single ports and 'lo-hi' inclusive spans, alone or in a list."""
    items = spec if isinstance(spec, list) else [spec]
    ports: list[int] = []
    for item in items:
        text = str(item)
        lo_s, dash, hi_s = text.partition("-")
        try:
            lo = int(lo_s)
            hi = int(hi_s) if dash else lo
        except ValueError:
            raise ValueError(f"port item {text!r} is neither a port nor a 'lo-hi' range") from None
        if hi < lo:
            raise ValueError(f"port range {text!r} runs backwards")
        ports.extend(range(lo, hi + 1))
    for p in ports:
        if not 1 <= p <= 65535:
            raise ValueError(f"port {p} out of range")
    return sorted(set(ports))


# kind -> (the YAML values it takes, its name in messages); a bool is only ever a bool
_SCALARS = {bool: (bool, "a boolean"), int: (int, "an integer"), float: ((int, float), "a number"),
            str: ((str, int, float), "a string"), list: (list, "a list"), dict: (dict, "a mapping")}
_hints = cache(get_type_hints)
# the fields of a dataclass that declare a ``ref``
_references = cache(lambda cls: [f for f in fields(cls) if "ref" in f.metadata])


def _value(value, kind, where: str, errors: list[str], lo=None, hi=None):
    """``value`` read as ``kind`` and converted to it; ``kind`` is a ``_SCALARS``
    key, a ``Literal``, a dataclass, ``X | None``, ``str | list[str]``,
    ``dict[K, V]``, or a list, frozenset or tuple of one kind. A wrong type, a
    value the ``Literal`` does not list or a value outside the inclusive bounds
    appends an error naming ``where`` and reads as None. Two mapping keys that
    read as one key append an error too; the later value is kept.
    """
    if kind in _SCALARS:
        accepts, name = _SCALARS[kind]
        if not isinstance(value, accepts) or (isinstance(value, bool) and kind is not bool):
            errors.append(f"{where}: expected {name}, got {value!r:.60}")
            return None
        value = kind(value)
        if kind is float and not math.isfinite(value):
            errors.append(f"{where}: expected a finite number, got {value!r}")
            return None
        if kind is str and not value.isascii() and value.encode(errors="replace").decode() != value:
            errors.append(f"{where}: {value!r:.60} holds a lone surrogate, not UTF-8 text")
            return None
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
            errors.append(f"{where}: must be {bound}, got {value!r}")
            return None
        return value
    if is_dataclass(kind):
        return _fill(kind, value, where, errors)
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        if value not in args:
            errors.append(f"{where}: expected one of {', '.join(args)}, got {value!r:.60}")
            return None
        return value
    if origin is UnionType:
        if value is None and NoneType in args:
            return None
        # X | None takes X; str | list[str] takes the arm that fits the value
        arm = args[0] if NoneType in args else args[isinstance(value, list)]
        return _value(value, arm, where, errors, lo, hi)
    if origin is dict:
        items = _value(value, dict, where, errors)
        if items is None:
            return None
        out = {}
        for k, v in items.items():
            # YAML keeps 7 and "7" apart; read as a string they are one key
            key = _value(k, args[0], where, errors)
            if key is not None and key in out:
                errors.append(f"{where}: duplicate key {key!r}")
            out[key] = _value(v, args[1], f"{where}.{k}", errors)
        return out
    if origin in (list, tuple, frozenset):
        items = _value(value, list, where, errors)
        if items is None:
            return None
        if origin is tuple and Ellipsis not in args and len(items) != len(args):
            errors.append(f"{where}: expected {len(args)} items, got {len(items)}")
            return None
        return origin(_value(v, args[0], f"{where}[{i}]", errors) for i, v in enumerate(items))


def _read(raw: dict, key, kind, path: str, errors: list[str], default=MISSING,
          lo=None, hi=None):
    """The value under ``key`` of mapping ``raw`` at dotted ``path``, read by
    ``_value``; an absent key reads as ``default``, or is an error without one."""
    where = f"{path}.{key}" if path else key
    if key in raw:
        return _value(raw[key], kind, where, errors, lo, hi)
    if default is MISSING:
        errors.append(f"{where}: missing")
        return None
    return default


def _check_keys(raw: dict, keys, path: str, errors: list[str]) -> None:
    """Refuse each key of mapping ``raw`` outside ``keys``: a misspelt key
    would otherwise leave its setting at the default without a word."""
    where = f"{path}." if path else ""
    errors.extend(f"{where}{key}: unknown key" for key in raw if key not in keys)


def _fill(cls, raw, path: str, errors: list[str], hand_read=(), /, **given):
    """An instance of dataclass ``cls`` read from mapping ``raw`` at ``path``.

    Each field not in ``given`` is read under its YAML key (its name, or its
    ``_KEYS`` entry) with its annotated type, default and ``_bounded`` bounds;
    all go to ``errors.read`` as read. Any other key is refused, unless the caller
    reads it (``hand_read``). Returns None after appending errors, including a
    ValueError raised by the class's own validation.
    """
    start = len(errors)
    if _value(raw, dict, path, errors) is None:
        return None
    hints = _hints(cls)
    keys = set(hand_read)
    for f in fields(cls):
        if f.name not in given:
            key = _KEYS.get(f.name, f.name)
            keys.add(key)
            default = f.default if f.default_factory is MISSING else f.default_factory()
            given[f.name] = _read(raw, key, hints[f.name], path, errors, default,
                                  f.metadata.get("lo"), f.metadata.get("hi"))
    _check_keys(raw, keys, path, errors)
    errors.read.append((cls, path, given))
    if len(errors) > start:
        return None
    return _checked(path, errors, cls, **given)


def _checked(path: str, errors: list[str], check, /, *args, **kwargs):
    """``check(*args, **kwargs)``, or None after recording the ValueError it raised."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _check_csv_name(where: str, name: str, errors: list[str]) -> None:
    """Refuse a name with a comma or a line break: the artifact CSVs never quote
    their fields. RTU stations and point ids go into mtu_measurements.csv and
    trace.csv, the transformer id into grid_truth.csv; node ids keep the same rule."""
    if not {",", "\r", "\n"}.isdisjoint(name):
        errors.append(f"{where}: {name!r} holds a comma or line break, "
                      "which an unquoted CSV cannot carry")


def _read_grid(raw, errors: list[str]) -> GridSection | None:
    start = len(errors)
    if _value(raw, dict, "grid", errors) is None:
        return None
    _check_keys(raw, {*GridModel.__dataclass_fields__, "profile"}, "grid", errors)
    model = GridModel(
        _read(raw, "buses", tuple[Bus, ...], "grid", errors, ()),
        _read(raw, "lines", tuple[Line, ...], "grid", errors, ()),
        _read(raw, "transformer", Transformer, "grid", errors),
        _read(raw, "loads", tuple[Load, ...], "grid", errors, ()),
        _read(raw, "ders", tuple[Der, ...], "grid", errors, ()),
    )
    if model.transformer is not None:
        _check_csv_name("grid.transformer.id", model.transformer.transformer_id, errors)
    section = _fill(GridSection, raw.get("profile", {}), "grid.profile", errors, model=model)
    if len(errors) == start:
        errors.extend(f"grid: {problem}" for problem in model.problems())
    return section if len(errors) == start else None


def _read_topology(raw, errors: list[str]) -> IctTopology | None:
    start = len(errors)
    if _value(raw, dict, "ict", errors) is None:
        return None
    _check_keys(raw, ("nodes", "links", "span"), "ict", errors)
    nodes = _read(raw, "nodes", list[NetNode], "ict", errors, []) or []
    for i, node in enumerate(nodes):
        if node is None:
            continue
        _check_csv_name(f"ict.nodes[{i}].id", node.node_id, errors)
        if node.address is not None:
            _checked(f"ict.nodes[{i}].address", errors, ipaddress.ip_address, node.address)
    topology = IctTopology(
        nodes=[n for n in nodes if n is not None],
        links=[l for l in _read(raw, "links", list[NetLink], "ict", errors, []) or [] if l],
        span=_read(raw, "span", SpanConfig | None, "ict", errors, None),
    )
    if len(errors) == start:
        errors.extend(f"ict: {problem}" for problem in topology.problems())
    return topology


def _read_hosts(raw, errors: list[str]) -> dict[str, HostEntry | None]:
    # an entry that does not read stays None, so that its node id is still checked
    hosts = _value(raw, dict[str, dict], "hosts", errors) or {}
    for node_id, entry in hosts.items():
        path = f"hosts.{node_id}"
        if entry is not None and node_id is not None:
            services: dict[int, HostService] = {}
            listed = _read(entry, "services", list[HostService], path, errors, []) or []
            for i, svc in enumerate(listed):
                if svc is not None and services.setdefault(svc.port, svc) is not svc:
                    errors.append(f"{path}.services[{i}]: duplicate service on port {svc.port}")
            hosts[node_id] = _fill(HostEntry, entry, path, errors, ("services",),
                                   services=services)
    return hosts


def _host_as_read(raw) -> str | None:
    """The name under ``host`` of mapping ``raw`` as read, or None."""
    return _value(raw["host"], str, "", []) if isinstance(raw, dict) and "host" in raw else None


def _read_scada(raw, errors: list[str], apps: dict[str, str]) -> ScadaSection | None:
    if _value(raw, dict, "scada", errors) is None:
        return None
    _check_keys(raw, ("mtu", "rtus"), "scada", errors)
    # a host holds one SCADA app: a second one would take over its telemetry
    mtu_host = _host_as_read(raw.get("mtu"))
    if mtu_host is not None:
        apps[mtu_host] = "the MTU"
    rtus = []
    first_of: dict[str, int] = {}  # station -> index of the RTU that names it first
    for i, r in enumerate(_read(raw, "rtus", list, "scada", errors, []) or []):
        path = f"scada.rtus[{i}]"
        host = _host_as_read(r)
        if host in apps:
            errors.append(f"{path}.host: {host!r} already runs {apps[host]}")
        elif host is not None:
            apps[host] = f"RTU {r.get('station')!r}"
        # an RTU's mapping holds the fields of its binding and of its RtuConfig
        binding = _fill(RtuBinding, r, path, errors, ("host", "report_offset_ms"))
        # read whether or not the binding did, so that its host is checked; the binding's
        # read has refused a value that is no mapping and each key of neither
        rtu = _fill(RtuConfig, r, path, errors, r, binding=binding) if isinstance(r, dict) else None
        if binding is None:
            continue
        _check_csv_name(f"{path}.station", binding.station, errors)
        if first_of.setdefault(binding.station, i) != i:
            errors.append(f"{path}.station: {binding.station!r} already names "
                          f"scada.rtus[{first_of[binding.station]}]")
        for j, point in enumerate(binding.points):
            _check_csv_name(f"{path}.points[{j}].id", point.point_id, errors)
        if rtu is not None:
            rtu.report_offset_ms += RTU_STAGGER_MS * i
            if not 0 <= rtu.report_offset_ms < MS_PER_STEP:
                errors.append(f"{path}.report_offset_ms: reports {rtu.report_offset_ms} ms "
                              f"into the step, outside [0, {MS_PER_STEP})")
            rtus.append(rtu)
    mtu = _read(raw, "mtu", dict, "scada", errors)
    return None if mtu is None else _fill(ScadaSection, mtu, "scada.mtu", errors, rtus=rtus)


def _read_attacker(raw, errors: list[str], apps: dict[str, str]) -> AttackerSection | None:
    if _value(raw, dict, "attacker", errors) is None:
        return None
    host = _host_as_read(raw)
    if host in apps:  # the attacker takes its host's packets, and all it sends is attack
        errors.append(f"attacker.host: {host!r} already runs {apps[host]}")
    start = len(errors)  # after the host check: a host error stops no read below
    address_range = _read(raw, "address_range", str | list[str], "attacker", errors)
    port_set = _read(raw, "port_set", str | list[str], "attacker", errors)
    if len(errors) == start:
        address_range = _checked("attacker.address_range", errors, expand_address_range,
                                 address_range)
        port_set = _checked("attacker.port_set", errors, expand_port_set, port_set)
        if port_set == []:
            errors.append("attacker: empty port set")
    return _fill(AttackerSection, raw, "attacker", errors, ("address_range", "port_set"),
                 address_range=address_range, port_set=port_set)


def _check_references(errors: _Errors) -> None:
    """Name each reference to an unknown entity, by the ids as read, in every item read."""
    read = errors.read
    names = {"bus": {r["bus_id"] for c, _, r in read if c is Bus},
             "transformer": {r["transformer_id"] for c, _, r in read if c is Transformer},
             "node": {r["node_id"] for c, _, r in read if c is NetNode},
             "host": {r["node_id"] for c, _, r in read if c is NetNode and r["kind"] == "host"}}
    for cls, path, item in read:
        for f in _references(cls):
            namespace = f.metadata["ref"]
            if namespace == "grid_element":  # a V_pu point names a bus, any other the transformer
                if item["quantity"] is None:  # its own error names it
                    continue
                namespace = "bus" if item["quantity"] == "V_pu" else "transformer"
            key, value = _KEYS.get(f.name, f.name), item[f.name]
            errors.extend(f"{path}.{key}".lstrip(".") + f": unknown {namespace} {name!r}"
                          for name in ([value] if isinstance(value, str) else value or ())
                          if name is not None and name not in names[namespace])


def load_config_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a mapping"])
    errors = _Errors()
    grid = _read_grid(raw.get("grid", {}), errors)
    topology = _read_topology(raw.get("ict", {}), errors)
    hosts = _read_hosts(raw.get("hosts", {}), errors)
    apps: dict[str, str] = {}  # host -> what runs on it, by the names as read
    scada = _read_scada(raw.get("scada", {}), errors, apps)
    # the ops traffic may share a SCADA app's host, but not the attacker's
    ops_host = _host_as_read(raw.get("ops"))
    if ops_host is not None:
        apps.setdefault(ops_host, "the ops traffic")
    attacker = _read_attacker(raw.get("attacker", {}), errors, apps)
    config = _fill(ScenarioConfig, raw, "", errors, ("grid", "ict", "hosts", "scada", "attacker"),
                   grid=grid, topology=topology, hosts=hosts, scada=scada, attacker=attacker)
    if topology is not None and topology.span is None and raw.get("capture") is not None:
        errors.append("capture: requires ict.span to be configured")
    _check_references(errors)
    if errors:
        raise ConfigError(errors)
    return config


# keys that flatten_mapping itself rewrites: the '<<' merge and the '=' value key
_MERGE_TAGS = ("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")


class _StrictLoading:
    """What a scenario loader adds to a PyYAML safe loader: Python composition and
    refusal of a key written twice in one mapping. List it before the loader."""

    # libyaml's composer recurses in C and overflows the stack near 20,000 levels of
    # nesting; PyYAML's, over the same parser events, stops at the recursion limit
    get_single_node = Composer.get_single_node
    compose_document = Composer.compose_document
    compose_node = Composer.compose_node
    compose_scalar_node = Composer.compose_scalar_node
    compose_sequence_node = Composer.compose_sequence_node
    compose_mapping_node = Composer.compose_mapping_node

    def __init__(self, stream):
        super().__init__(stream)
        self.anchors = {}  # the Python composer's; libyaml's keeps its own in C
        self._keys_checked = set()  # mapping nodes

    def flatten_mapping(self, node):
        # a mapping merged with '<<' is flattened when the first mapping that merges it
        # is, which may come before its own construction: check each node once, as written
        if node not in self._keys_checked:
            self._keys_checked.add(node)
            seen = set()
            for key_node, _ in node.value:
                if isinstance(key_node, ScalarNode) and key_node.tag not in _MERGE_TAGS:
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise ConstructorError("while constructing a mapping", node.start_mark,
                                               f"found duplicate key {key!r}",
                                               key_node.start_mark)
                    seen.add(key)
        super().flatten_mapping(node)


class ScenarioLoader(_StrictLoading, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The one YAML loader of scenario files: libyaml's C parser where PyYAML was built
    with it, else PyYAML's pure-Python one. PyYAML's Python composer, safe constructor
    and resolver build the objects either way, so both give the same documents; the
    parsers do differ on some malformed input."""


def load_config(path: str) -> ScenarioConfig:
    """``parse_config`` of the scenario file at ``path``. A file that cannot be read
    raises ``ConfigError`` naming it; a missing file raises ``FileNotFoundError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh, path)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read the scenario file: {exc.strerror}"]) from None


def parse_config(stream, source: str) -> ScenarioConfig:
    """Parse and validate the scenario document in ``stream``, an open text file or a
    str. Text that does not parse, a key written twice in one mapping and nesting deeper
    than the parser's recursion limit raise ``ConfigError`` naming ``source``."""
    try:
        raw = yaml.load(stream, Loader=ScenarioLoader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{source}: not a readable YAML document: {exc}"]) from None
    except RecursionError:
        raise ConfigError([f"{source}: nested too deeply to parse"]) from None
    return load_config_dict(raw)
