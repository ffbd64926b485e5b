import copy
import math
import random
from typing import Callable

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from scadasim.config import ConfigError, load_config_dict
from scadasim.engine import Engine, derive_seed
from scadasim.network import (
    IctTopology,
    NetLink,
    NetNode,
    NetworkConfigError,
    NetworkFabric,
    Packet,
    PacketApp,
    SpanConfig,
)
from scadasim.scenario import fixture_text


class Sink:
    """Keeps each delivered packet and the sim time it arrived at."""

    def __init__(self):
        self.received = []
        self.arrived_at = []

    def on_packet(self, fabric, packet):
        self.received.append(packet)
        self.arrived_at.append(fabric.engine.now)


def line_topology(loss=0.0, latency=10, bandwidth=1_000_000, span=False):
    return IctTopology(
        nodes=[
            NetNode("h1", "host", "10.0.0.1"),
            NetNode("sw", "switch"),
            NetNode("h2", "host", "10.0.0.2"),
            NetNode("mon", "host", "10.0.0.9"),
        ],
        links=[
            NetLink("l1", "h1", "sw", latency_ms=latency, loss_probability=loss, bandwidth_bps=bandwidth),
            NetLink("l2", "sw", "h2", latency_ms=latency, loss_probability=loss, bandwidth_bps=bandwidth),
            NetLink("l3", "sw", "mon", latency_ms=1),
        ],
        span=SpanConfig("sw", "mon") if span else None,
    )


def build(topology, seed=1):
    engine = Engine()
    fabric = NetworkFabric(topology, engine, seed)
    sinks = {}
    for node in topology.nodes:
        if node.kind == "host":
            sinks[node.node_id] = Sink()
            fabric.register_app(node.node_id, sinks[node.node_id])
    return engine, fabric, sinks


class TestTopologyValidation:
    def test_duplicate_address_rejected(self):
        topo = IctTopology(
            nodes=[NetNode("a", "host", "10.0.0.1"), NetNode("b", "host", "10.0.0.1"),
                   NetNode("sw", "switch")],
            links=[NetLink("l1", "a", "sw"), NetLink("l2", "b", "sw")],
        )
        assert list(topo.problems()) == ["duplicate address '10.0.0.1'"]

    def test_host_with_two_links_rejected(self):
        topo = IctTopology(
            nodes=[NetNode("a", "host", "10.0.0.1"), NetNode("sw", "switch"),
                   NetNode("sw2", "switch")],
            links=[NetLink("l1", "a", "sw"), NetLink("l2", "a", "sw2")],
        )
        assert list(topo.problems()) == ["host a must attach by exactly one link, has 2"]

    def test_link_with_both_ends_on_one_node_rejected(self):
        # a flood out of one end of the link would come back in at the other
        topo = IctTopology(
            nodes=[NetNode("a", "host", "10.0.0.1"), NetNode("sw", "switch")],
            links=[NetLink("l1", "a", "sw"), NetLink("l2", "sw", "sw")],
        )
        assert list(topo.problems()) == ["link l2: both ends on 'sw'"]

    def test_span_must_name_a_switch(self):
        topo = IctTopology(
            nodes=[NetNode("a", "host", "10.0.0.1"), NetNode("sw", "switch")],
            links=[NetLink("l1", "a", "sw")],
            span=SpanConfig("a", "a"),
        )
        assert list(topo.problems()) == ["span switch 'a' is not a switch"]

    def test_loss_probability_range_checked(self):
        # the range is declared on NetLink's field, and the loader checks it
        raw = yaml.safe_load(fixture_text("reference"))
        raw["ict"]["links"][0]["loss_probability"] = 1.5
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == ["ict.links[0].loss_probability: must be in [0, 1], got 1.5"]

    def test_switch_loop_rejected_whatever_its_links_state(self):
        # the learning switches run no spanning tree: a flood would circle forever
        topo = IctTopology(
            nodes=[NetNode("a", "host", "10.0.0.1"), NetNode("sw", "switch"),
                   NetNode("sw2", "switch")],
            links=[NetLink("l1", "a", "sw"), NetLink("l2", "sw", "sw2"),
                   NetLink("l3", "sw2", "sw", up=False)],
        )
        assert list(topo.problems()) == ["link l3: closes a loop"]

    def test_every_problem_is_listed(self):
        topo = IctTopology(
            nodes=[NetNode("a", "host"), NetNode("a", "switch"), NetNode("sw", "switch")],
            links=[NetLink("l1", "a", "sw"), NetLink("l1", "sw", "ghost")],
            span=SpanConfig("sw", "nobody"),
        )
        assert list(topo.problems()) == [
            "duplicate node id 'a'", "duplicate link id 'l1'", "host a has no address"]

    def test_unknown_link_node_and_span_monitor_are_named_by_the_loader(self):
        raw = yaml.safe_load(fixture_text("reference"))
        raw["ict"]["links"].append({"id": "k-ghost", "a": "sw-core", "b": "ghost"})
        raw["ict"]["span"].update(switch="nowhere", monitor="nobody")
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == ["ict.links[6].b: unknown node 'ghost'",
                                    "ict.span.switch: unknown node 'nowhere'",
                                    "ict.span.monitor: unknown node 'nobody'"]


class TestDelivery:
    def test_delay_is_latency_plus_serialization(self):
        # 125 bytes at 1 Mbit/s = 1 ms serialization; +10 ms latency per hop
        engine, fabric, sinks = build(line_topology())
        engine.register("src", lambda e, kind, payload: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert len(sinks["h2"].received) == 1
        packet = sinks["h2"].received[0]
        # two hops, 11 ms each
        assert sinks["h2"].arrived_at[0] - packet.sent_at == 22

    def test_fifo_serialization_queues_back_to_back_sends(self):
        engine, fabric, sinks = build(line_topology())

        def burst(e, kind, payload):
            for _ in range(3):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"})

        engine.register("src", burst)
        engine.schedule(0, "src", "go")
        engine.run(1000)
        # first hop serializes 1 ms apart; second hop preserves spacing
        assert sinks["h2"].arrived_at == [22, 23, 24]

    def test_link_down_drops(self):
        engine, fabric, sinks = build(line_topology())
        fabric.set_link_state("l2", False)
        engine.register("src", lambda e, kind, payload: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert sinks["h2"].received == []

    def test_link_recovery_delivers_again(self):
        engine, fabric, sinks = build(line_topology())
        fabric.set_link_state("l2", False)
        fabric.set_link_state("l2", True)
        engine.register("src", lambda e, kind, payload: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert len(sinks["h2"].received) == 1

    def test_zero_loss_always_delivers(self):
        engine, fabric, sinks = build(line_topology(loss=0.0))

        def burst(e, kind, payload):
            for _ in range(200):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"})

        engine.register("src", burst)
        engine.schedule(0, "src", "go")
        engine.run(10_000)
        assert len(sinks["h2"].received) == 200

    def test_scheduled_link_toggle_appears_in_trace(self):
        engine = Engine(trace=True)
        topo = line_topology()
        fabric = NetworkFabric(topo, engine, 1)
        engine.schedule(2500, "net", "set_link_state", ("l2", False))
        engine.run(3000)
        assert any(line == "2,500,0,net,set_link_state" for line in engine.trace_lines)
        assert fabric.links["l2"].up is False

    def test_unknown_link_rejected(self):
        engine, fabric, _ = build(line_topology())
        with pytest.raises(NetworkConfigError, match="unknown link"):
            fabric.set_link_state("nope", True)


class TestLossStatistics:
    def test_empirical_loss_within_three_standard_errors(self):
        p = 0.05
        n = 10_000
        engine, fabric, sinks = build(line_topology(loss=0.0), seed=42)
        fabric.links["l1"].loss_probability = p  # lossy first hop only

        def burst(e, kind, payload):
            for _ in range(n):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"})

        engine.register("src", burst)
        engine.schedule(0, "src", "go")
        engine.run(100_000)
        observed = 1.0 - len(sinks["h2"].received) / n
        stderr = math.sqrt(p * (1 - p) / n)
        assert abs(observed - p) <= 3 * stderr

    def test_loss_decisions_are_seed_deterministic(self):
        outcomes = []
        for _ in range(2):
            engine, fabric, sinks = build(line_topology(loss=0.3), seed=7)

            def burst(e, kind, payload):
                for _ in range(100):
                    fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"})

            engine.register("src", burst)
            engine.schedule(0, "src", "go")
            engine.run(10_000)
            outcomes.append(len(sinks["h2"].received))
        assert outcomes[0] == outcomes[1]


class TestSwitchAndSpan:
    def test_mirror_copy_per_forwarded_packet(self):
        engine, fabric, sinks = build(line_topology(span=True))
        mirrored = []
        fabric.mirror_sink = mirrored.append
        engine.register("src", lambda e, kind, payload: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert len(mirrored) == 1
        assert mirrored[0].dst == "10.0.0.2"

    def test_span_disabled_mirrors_nothing(self):
        engine, fabric, sinks = build(line_topology(span=False))
        mirrored = []
        fabric.mirror_sink = mirrored.append
        engine.register("src", lambda e, kind, payload: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert mirrored == []

    def test_hundred_packets_mirror_in_order(self):
        engine, fabric, sinks = build(line_topology(span=True))
        mirrored = []
        fabric.mirror_sink = lambda p: mirrored.append(p.payload["n"])

        def burst(e, kind, payload):
            for i in range(100):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x", "n": i})

        engine.register("src", burst)
        engine.schedule(0, "src", "go")
        engine.run(10_000)
        assert mirrored == list(range(100))
        assert fabric.mirrored_count == 100

    def test_learning_switch_stops_flooding_after_reply(self):
        engine, fabric, sinks = build(line_topology())

        def exchange(e, kind, payload):
            fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "req"})

        def reply(e, kind, payload):
            fabric.send_app_message("h2", "10.0.0.1", "HTTP", 125, {"type": "rsp"})

        engine.register("src", exchange)
        engine.register("rsp", reply)
        engine.schedule(0, "src", "go")
        engine.schedule(500, "rsp", "go")
        # second request after the switch learned both sides
        engine.schedule(1000, "src", "go")
        engine.run(2000)
        # first request flooded to mon as well; second one must not
        mon_hits = len(sinks["mon"].received)
        assert mon_hits == 0  # mon never matches dst, flooded frames are dropped there
        assert len(sinks["h2"].received) == 2
        assert len(sinks["h1"].received) == 1

    def test_firewall_blocks_configured_prefix(self):
        topo = IctTopology(
            nodes=[
                NetNode("h1", "host", "10.0.0.1"),
                NetNode("fw", "router_firewall", blocked_prefixes=("192.168.",)),
                NetNode("h2", "host", "10.0.0.2"),
                NetNode("ext", "host", "192.168.0.5"),
            ],
            links=[NetLink("l1", "h1", "fw"), NetLink("l2", "fw", "h2"), NetLink("l3", "fw", "ext")],
        )
        engine, fabric, sinks = build(topo)

        def send(e, kind, payload):
            fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "ok"})
            fabric.send_app_message("ext", "10.0.0.2", "HTTP", 125, {"type": "blocked"})

        engine.register("src", send)
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert [p.payload["type"] for p in sinks["h2"].received] == ["ok"]
        assert fabric.blocked_count == 1


class TestSpecExamples:
    def test_single_hop_delay_is_latency_plus_serialization(self):
        # 125 bytes at 1 Mbit/s is 1 ms on the wire; 10 ms latency makes 11 ms
        topo = IctTopology(
            nodes=[NetNode("h1", "host", "10.0.0.1"), NetNode("h2", "host", "10.0.0.2")],
            links=[NetLink("l1", "h1", "h2", latency_ms=10, bandwidth_bps=1_000_000)],
        )
        engine, fabric, sinks = build(topo)
        engine.register("src", lambda e, kind, payload: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert sinks["h2"].arrived_at == [11]

    def test_traffic_on_non_mirrored_segment_is_not_captured(self):
        topo = IctTopology(
            nodes=[
                NetNode("h1", "host", "10.0.0.1"),
                NetNode("h2", "host", "10.0.0.2"),
                NetNode("sw-edge", "switch"),
                NetNode("sw-core", "switch"),
                NetNode("mon", "host", "10.0.0.9"),
            ],
            links=[
                NetLink("l1", "h1", "sw-edge"),
                NetLink("l2", "h2", "sw-edge"),
                NetLink("l3", "sw-edge", "sw-core"),
                NetLink("l4", "mon", "sw-core"),
            ],
            span=SpanConfig("sw-core", "mon"),
        )
        engine, fabric, sinks = build(topo)
        mirrored = []
        fabric.mirror_sink = mirrored.append

        def exchange(e, kind, payload):
            fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "req"})

        def reply(e, kind, payload):
            fabric.send_app_message("h2", "10.0.0.1", "HTTP", 125, {"type": "rsp"})

        engine.register("src", exchange)
        engine.register("rsp", reply)
        engine.schedule(0, "src", "go")
        engine.schedule(500, "rsp", "go")   # edge switch learned h1 already
        engine.schedule(1000, "src", "go")     # fully learned exchange
        engine.run(2000)
        assert len(sinks["h2"].received) == 2
        # first request flooded through the core (unknown dst); the learned
        # reply and second request stay on the edge segment
        assert len(mirrored) == 1


# ---------------------------------------------------------------------------
# frozen oracle: the fabric keyed by node and link ids in dicts that the node
# and port objects replaced, kept verbatim in what it schedules and when
# ---------------------------------------------------------------------------

class DictKeyedFabric:
    """NetworkFabric as it was before nodes and ports became objects."""

    def __init__(self, topology: IctTopology, engine: Engine, seed: int):
        assert not list(topology.problems())
        self.engine = engine
        self.links = {l.link_id: l for l in topology.links}
        self._links_of: dict[str, list[NetLink]] = {n.node_id: [] for n in topology.nodes}
        # per (link id, sending node): [far end, time the sender's FIFO is busy until]
        self._hops: dict[tuple[str, str], list] = {}
        for link in topology.links:
            self._links_of[link.endpoint_a].append(link)
            self._links_of[link.endpoint_b].append(link)
            self._hops[link.link_id, link.endpoint_a] = [link.endpoint_b, 0]
            self._hops[link.link_id, link.endpoint_b] = [link.endpoint_a, 0]
        self._loss_rng = {
            l.link_id: random.Random(derive_seed(seed, f"link:{l.link_id}")) for l in topology.links
        }
        self._host_address = {n.node_id: n.address for n in topology.nodes if n.kind == "host"}
        self._blocked = {n.node_id: n.blocked_prefixes for n in topology.nodes
                         if n.kind == "router_firewall"}
        self._span_switch = topology.span.switch_id if topology.span is not None else None
        self._mac_table: dict[str, dict[str, str]] = {
            n.node_id: {} for n in topology.nodes if n.kind != "host"
        }
        self._apps: dict[str, PacketApp] = {}
        self.mirror_sink: Callable[[Packet], None] | None = None
        self.forwarded_by_switch: dict[str, int] = {
            n.node_id: 0 for n in topology.nodes if n.kind != "host"
        }
        self.mirrored_count = 0
        self.blocked_count = 0
        engine.register("net", self.handle)

    # -- component wiring ---------------------------------------------------

    def register_app(self, node_id: str, app: PacketApp) -> None:
        if node_id not in self._host_address:
            raise NetworkConfigError(f"cannot register app on {node_id!r}")
        self._apps[node_id] = app

    # -- engine event handler -------------------------------------------------

    def handle(self, engine: Engine, kind: str, payload) -> None:
        if kind == "arrival":
            node_id, packet, ingress_link = payload
            address = self._host_address.get(node_id)
            if address is None:
                self._forward(node_id, packet, ingress_link)
            elif address == packet.dst:
                app = self._apps.get(node_id)
                if app is not None:
                    app.on_packet(self, packet)
            # a flooded packet at a host that does not own its address is dropped
        elif kind == "set_link_state":
            link_id, up = payload
            self.set_link_state(link_id, up)
        else:
            raise NetworkConfigError(f"unknown network event kind {kind!r}")

    # -- sending --------------------------------------------------------------

    def send_app_message(self, from_node_id: str, dst_address: str, protocol: str,
                         length_bytes: int, payload: dict) -> Packet:
        """Build a packet from the host's address at the current sim time and push
        it onto the host link."""
        packet = Packet(self.engine.now, self._host_address[from_node_id], dst_address, protocol,
                        length_bytes, payload)
        link = self._links_of[from_node_id][0]
        self.transmit(packet, link, from_node_id)
        return packet

    def transmit(self, packet: Packet, link: NetLink, from_node: str) -> None:
        """Queue one hop of one of this fabric's links: loss/down checks, then
        FIFO serialization plus latency.

        The link's state, loss, latency and bandwidth are read on every hop,
        so changes to them apply to the next packet.
        """
        if not link.up:
            return
        loss = link.loss_probability
        if loss > 0.0 and self._loss_rng[link.link_id].random() < loss:
            return
        now_ms = self.engine.now
        bandwidth = link.bandwidth_bps
        serialization_ms = (packet.length_bytes * 8000 + bandwidth - 1) // bandwidth
        hop = self._hops[link.link_id, from_node]
        start_ms = hop[1] if hop[1] > now_ms else now_ms
        hop[1] = start_ms + serialization_ms
        self.engine.schedule(hop[1] + link.latency_ms, "net", "arrival",
                             (hop[0], packet, link.link_id))

    def set_link_state(self, link_id: str, up: bool) -> None:
        if link_id not in self.links:
            raise NetworkConfigError(f"unknown link {link_id!r}")
        self.links[link_id].up = up

    # -- forwarding -------------------------------------------------------------

    def _forward(self, node_id: str, packet: Packet, ingress_link: str) -> None:
        """A switch or firewall: filter, learn the source port, mirror, then forward or flood."""
        for prefix in self._blocked.get(node_id, ()):
            if packet.src.startswith(prefix) or packet.dst.startswith(prefix):
                self.blocked_count += 1
                return

        table = self._mac_table[node_id]
        table[packet.src] = ingress_link
        if node_id == self._span_switch:
            self.mirrored_count += 1
            if self.mirror_sink is not None:
                self.mirror_sink(packet)
        self.forwarded_by_switch[node_id] += 1

        out_link_id = table.get(packet.dst)
        if out_link_id is not None and out_link_id != ingress_link:
            link = self.links[out_link_id]
            self.transmit(packet, link, node_id)
        elif out_link_id is None:
            for link in self._links_of[node_id]:
                if link.link_id != ingress_link:
                    self.transmit(packet, link, node_id)
        # known destination behind the ingress port: nothing to do


ADDRESSES = [f"10.0.0.{i}" for i in range(1, 7)]


@st.composite
def fabric_cases(draw):
    """A tree of 1-3 switches, optionally one firewall, 2-6 hosts; links in a
    drawn order with drawn loss, latency and bandwidth; an optional SPAN port;
    scheduled link flaps and sends, some to an address no host owns."""
    nodes, ends = [], []
    forwarders = [f"sw{i}" for i in range(draw(st.integers(1, 3)))]
    for i, switch in enumerate(forwarders):
        nodes.append(NetNode(switch, "switch"))
        if i:
            ends.append((draw(st.sampled_from(forwarders[:i])), switch))
    if draw(st.booleans()):
        prefixes = draw(st.lists(st.sampled_from(["10.0.0.1", "10.0.0.4", "10.9."]),
                                 max_size=2, unique=True))
        nodes.append(NetNode("fw", "router_firewall", blocked_prefixes=tuple(prefixes)))
        ends.append((draw(st.sampled_from(forwarders)), "fw"))
        forwarders.append("fw")
    hosts = [f"h{i}" for i in range(draw(st.integers(2, 6)))]
    for host, address in zip(hosts, ADDRESSES):
        nodes.append(NetNode(host, "host", address))
        ends.append((draw(st.sampled_from(forwarders)), host))
    links = []
    for k in draw(st.permutations(range(len(ends)))):
        a, b = ends[k] if draw(st.booleans()) else ends[k][::-1]
        links.append(NetLink(
            f"l{k}", a, b, latency_ms=draw(st.integers(0, 5)),
            loss_probability=draw(st.sampled_from([0.0, 0.0, 0.2, 0.5])),
            bandwidth_bps=draw(st.sampled_from([64_000, 1_000_000, 10_000_000]))))
    span = None
    if draw(st.booleans()):
        span = SpanConfig(draw(st.sampled_from(forwarders)), draw(st.sampled_from(hosts)))
    topology = IctTopology(nodes, links, span)
    flaps = draw(st.lists(st.tuples(st.integers(0, 200), st.sampled_from([l.link_id for l in links]),
                                    st.booleans()), max_size=4))
    destinations = ADDRESSES[:len(hosts)] + ["10.0.0.99", "10.9.0.1"]
    sends = draw(st.lists(st.tuples(st.integers(0, 200), st.sampled_from(hosts),
                                    st.sampled_from(destinations), st.integers(20, 1500)),
                          min_size=1, max_size=12))
    return topology, flaps, sends


def run_fabric(fabric_cls, topology, flaps, sends, seed):
    """Trace lines, per-host deliveries (time, packet), mirrored packets and counters."""
    engine = Engine(trace=True)
    fabric = fabric_cls(copy.deepcopy(topology), engine, seed)
    deliveries = {}
    for node in topology.nodes:
        if node.kind == "host":
            deliveries[node.node_id] = sink = Sink()
            fabric.register_app(node.node_id, sink)
    mirrored = []
    fabric.mirror_sink = mirrored.append
    engine.register("src", lambda e, kind, payload: fabric.send_app_message(*payload))
    for at, link_id, up in flaps:
        engine.schedule(at, "net", "set_link_state", (link_id, up))
    for n, (at, host, dst, length) in enumerate(sends):
        engine.schedule(at, "src", "send", (host, dst, "OTHER", length, {"n": n}))
    engine.run(10_000)
    return (engine.trace_lines,
            {h: list(zip(s.arrived_at, s.received)) for h, s in deliveries.items()},
            mirrored, fabric.mirrored_count, fabric.blocked_count, fabric.forwarded_by_switch)


class TestAgainstDictKeyedFabric:
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=fabric_cases(), seed=st.integers(0, 3))
    def test_same_events_deliveries_and_counts(self, case, seed):
        expected = run_fabric(DictKeyedFabric, *case, seed)
        assert run_fabric(NetworkFabric, *case, seed) == expected
