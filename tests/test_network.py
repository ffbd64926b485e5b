import math

import pytest

from scadasim.engine import Engine
from scadasim.network import (
    IctTopology,
    NetLink,
    NetNode,
    NetworkConfigError,
    NetworkFabric,
    Packet,
    SpanConfig,
)


class Sink:
    def __init__(self):
        self.received = []

    def on_packet(self, fabric, packet):
        self.received.append(packet)


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


def build(topology, seed=1, log=False):
    engine = Engine()
    fabric = NetworkFabric(topology, engine, seed, log_transmissions=log)
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
        with pytest.raises(NetworkConfigError, match="duplicate addresses"):
            topo.validate()

    def test_host_with_two_links_rejected(self):
        topo = IctTopology(
            nodes=[NetNode("a", "host", "10.0.0.1"), NetNode("sw", "switch"),
                   NetNode("sw2", "switch")],
            links=[NetLink("l1", "a", "sw"), NetLink("l2", "a", "sw2")],
        )
        with pytest.raises(NetworkConfigError, match="exactly one link"):
            topo.validate()

    def test_span_must_name_a_switch(self):
        topo = IctTopology(
            nodes=[NetNode("a", "host", "10.0.0.1"), NetNode("sw", "switch")],
            links=[NetLink("l1", "a", "sw")],
            span=SpanConfig("a", "a"),
        )
        with pytest.raises(NetworkConfigError, match="not a switch"):
            topo.validate()

    def test_loss_probability_range_checked(self):
        topo = line_topology()
        topo.links[0].loss_probability = 1.5
        with pytest.raises(NetworkConfigError, match="loss_probability"):
            topo.validate()

    def test_bad_packet_rejected(self):
        with pytest.raises(NetworkConfigError, match="protocol"):
            Packet(0, "a", "b", "BOGUS", 60, {}, "x")
        with pytest.raises(NetworkConfigError, match="length"):
            Packet(0, "a", "b", "HTTP", 10, {}, "x")


class TestDelivery:
    def test_delay_is_latency_plus_serialization(self):
        # 125 bytes at 1 Mbit/s = 1 ms serialization; +10 ms latency per hop
        engine, fabric, sinks = build(line_topology())
        engine.register("src", lambda e, ev: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1"))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert len(sinks["h2"].received) == 1
        packet = sinks["h2"].received[0]
        # two hops, 11 ms each
        assert packet.delivered_at - packet.sent_at == 22

    def test_fifo_serialization_queues_back_to_back_sends(self):
        engine, fabric, sinks = build(line_topology(), log=True)

        def burst(e, ev):
            for _ in range(3):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1")

        engine.register("src", burst)
        engine.schedule(0, "src", "go")
        engine.run(1000)
        arrivals = [p.delivered_at for p in sinks["h2"].received]
        # first hop serializes 1 ms apart; second hop preserves spacing
        assert arrivals == [22, 23, 24]
        for t in fabric.transmissions:
            assert t.dropped is None
            link = fabric.links[t.link_id]
            serialization = (t.length_bytes * 8 * 1000 + link.bandwidth_bps - 1) // link.bandwidth_bps
            assert t.arrive_ms == t.start_ms + serialization + link.latency_ms
            assert t.start_ms >= t.send_ms  # queueing only ever delays

    def test_link_down_drops(self):
        engine, fabric, sinks = build(line_topology())
        fabric.set_link_state("l2", False)
        engine.register("src", lambda e, ev: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1"))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert sinks["h2"].received == []

    def test_link_recovery_delivers_again(self):
        engine, fabric, sinks = build(line_topology())
        fabric.set_link_state("l2", False)
        fabric.set_link_state("l2", True)
        engine.register("src", lambda e, ev: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1"))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert len(sinks["h2"].received) == 1

    def test_zero_loss_always_delivers(self):
        engine, fabric, sinks = build(line_topology(loss=0.0))

        def burst(e, ev):
            for _ in range(200):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1")

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

        def burst(e, ev):
            for _ in range(n):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1")

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

            def burst(e, ev):
                for _ in range(100):
                    fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1")

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
        engine.register("src", lambda e, ev: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1"))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert len(mirrored) == 1
        assert mirrored[0].dst == "10.0.0.2"

    def test_span_disabled_mirrors_nothing(self):
        engine, fabric, sinks = build(line_topology(span=False))
        mirrored = []
        fabric.mirror_sink = mirrored.append
        engine.register("src", lambda e, ev: fabric.send_app_message(
            "h1", "10.0.0.2", "HTTP", 125, {"type": "x"}, "h1"))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert mirrored == []

    def test_hundred_packets_mirror_in_order(self):
        engine, fabric, sinks = build(line_topology(span=True))
        mirrored = []
        fabric.mirror_sink = lambda p: mirrored.append(p.payload["n"])

        def burst(e, ev):
            for i in range(100):
                fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "x", "n": i}, "h1")

        engine.register("src", burst)
        engine.schedule(0, "src", "go")
        engine.run(10_000)
        assert mirrored == list(range(100))
        assert fabric.mirrored_count == 100

    def test_learning_switch_stops_flooding_after_reply(self):
        engine, fabric, sinks = build(line_topology())

        def exchange(e, ev):
            fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "req"}, "h1")

        def reply(e, ev):
            fabric.send_app_message("h2", "10.0.0.1", "HTTP", 125, {"type": "rsp"}, "h2")

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

        def send(e, ev):
            fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "ok"}, "h1")
            fabric.send_app_message("ext", "10.0.0.2", "HTTP", 125, {"type": "blocked"}, "ext")

        engine.register("src", send)
        engine.schedule(0, "src", "go")
        engine.run(1000)
        assert [p.payload["type"] for p in sinks["h2"].received] == ["ok"]
        assert fabric.blocked_count == 1


class TestSpecExamples:
    def test_single_hop_delay_is_latency_plus_serialization(self):
        # 125 bytes at 1 Mbit/s is 1 ms on the wire; 10 ms latency makes 11 ms
        engine, fabric, sinks = build(line_topology(), log=True)
        engine.register("src", lambda e, ev: fabric.transmit(
            Packet(e.now, "10.0.0.1", "10.0.0.2", "HTTP", 125, {}, "h1"),
            fabric.links["l1"], "h1"))
        engine.schedule(0, "src", "go")
        engine.run(1000)
        hop = fabric.transmissions[0]
        assert hop.arrive_ms - hop.send_ms == 11

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

        def exchange(e, ev):
            fabric.send_app_message("h1", "10.0.0.2", "HTTP", 125, {"type": "req"}, "h1")

        def reply(e, ev):
            fabric.send_app_message("h2", "10.0.0.1", "HTTP", 125, {"type": "rsp"}, "h2")

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
