"""Emulated IT process network: hosts, learning switches, links, SPAN mirroring.

Links apply latency, serialization delay (per-direction FIFO, infinite queue)
and seeded probabilistic loss. Forwarding is flat learning-switch behavior over
opaque string addresses; a router_firewall node additionally drops traffic
matching configured address prefixes. The SPAN mirror is a lossless tap: every
packet the mirrored switch handles is passed to the monitor exactly once.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, Iterator, Literal, Protocol

from .engine import Engine, derive_seed

MIN_PACKET_BYTES = 20


class NetworkConfigError(ValueError):
    """A link state change names no link of the fabric."""


@dataclass(slots=True)
class Packet:
    sent_at: int  # ms
    src: str
    dst: str
    protocol: str
    length_bytes: int
    payload: dict


@dataclass
class NetNode:
    node_id: str
    kind: Literal["host", "switch", "router_firewall"]
    address: str | None = None
    blocked_prefixes: tuple[str, ...] = ()


@dataclass
class NetLink:
    link_id: str
    # node ids, as are the span's switch and monitor; the loader checks each one
    endpoint_a: str = field(metadata={"ref": "node"})
    endpoint_b: str = field(metadata={"ref": "node"})
    # the loader's inclusive bounds, as config._bounded states them
    latency_ms: int = field(default=1, metadata={"lo": 0})
    loss_probability: float = field(default=0.0, metadata={"lo": 0, "hi": 1})
    bandwidth_bps: int = field(default=10_000_000, metadata={"lo": 1})
    up: bool = True


@dataclass(frozen=True)
class SpanConfig:
    switch_id: str = field(metadata={"ref": "node"})
    monitor_node_id: str = field(metadata={"ref": "node"})


@dataclass
class IctTopology:
    nodes: list[NetNode]
    links: list[NetLink]
    span: SpanConfig | None = None

    def problems(self) -> Iterator[str]:
        """Every way in which the topology is not a loop-free network of
        uniquely named nodes, but for a name of no node, which the loader
        reports; the checks of how links attach run only when every link names
        known nodes."""
        for what, ids in (("node id", [n.node_id for n in self.nodes]),
                          ("address", [n.address for n in self.nodes if n.address is not None]),
                          ("link id", [l.link_id for l in self.links])):
            for i, count in Counter(ids).items():
                if count > 1:
                    yield f"duplicate {what} {i!r}"
        by_id = {n.node_id: n for n in self.nodes}
        for n in self.nodes:
            if n.kind == "host" and n.address is None:
                yield f"host {n.node_id} has no address"
        for l in self.links:
            if l.endpoint_a == l.endpoint_b:
                # a flood out of one end would come back in at the other, forever
                yield f"link {l.link_id}: both ends on {l.endpoint_a!r}"
        if self.span is not None:
            sw = by_id.get(self.span.switch_id)
            if sw is not None and sw.kind == "host":
                yield f"span switch {self.span.switch_id!r} is not a switch"
        if not all(end in by_id for l in self.links for end in (l.endpoint_a, l.endpoint_b)):
            return
        attach_count = Counter(end for l in self.links for end in (l.endpoint_a, l.endpoint_b))
        for n in self.nodes:
            if n.kind == "host" and attach_count[n.node_id] != 1:
                yield (f"host {n.node_id} must attach by exactly one link, "
                       f"has {attach_count[n.node_id]}")
        # a loop, whether its links start up or down, would carry a flood around
        # it forever: the learning switches run no spanning tree
        root_of = {node_id: node_id for node_id in by_id}

        def root(node_id: str) -> str:
            while root_of[node_id] != node_id:
                node_id = root_of[node_id]
            return node_id

        for l in self.links:
            a, b = root(l.endpoint_a), root(l.endpoint_b)
            if a == b and l.endpoint_a != l.endpoint_b:  # a link on one node is named above
                yield f"link {l.link_id}: closes a loop"
            root_of[a] = b


class PacketApp(Protocol):
    def on_packet(self, fabric: "NetworkFabric", packet: Packet) -> None: ...


class _Port:
    """One end of a link, as seen from the node that sends through it.

    ``busy_until`` is the time this end's FIFO is busy until; ``back`` is the
    far end's port on the same link, the ingress port of what this port sends.
    Both ends share the link's loss RNG.
    """

    __slots__ = ("link", "far", "back", "busy_until", "rng")

    def __init__(self, link: NetLink, far: "_Node", rng: random.Random):
        self.link = link
        self.far = far
        self.back: _Port | None = None
        self.busy_until = 0
        self.rng = rng


class _Node:
    """A node's forwarding state. ``address`` is set on hosts only, so a node
    without one is a switch or firewall; a MAC table entry is a port."""

    __slots__ = ("node_id", "address", "app", "ports", "mac_table", "blocked", "is_span",
                 "forwarded")

    def __init__(self, node: NetNode, is_span: bool):
        self.node_id = node.node_id
        self.address = node.address if node.kind == "host" else None
        self.app: PacketApp | None = None
        self.ports: list[_Port] = []  # in link order, the order a flood takes
        self.mac_table: dict[str, _Port] = {}
        self.blocked = node.blocked_prefixes if node.kind == "router_firewall" else ()
        self.is_span = is_span
        self.forwarded = 0


class NetworkFabric:
    """Engine component owning all packet transport over a topology the loader
    accepts. Target name: ``net``."""

    def __init__(self, topology: IctTopology, engine: Engine, seed: int):
        self.engine = engine
        self.links = {l.link_id: l for l in topology.links}
        span_switch = topology.span.switch_id if topology.span is not None else None
        self._nodes = {n.node_id: _Node(n, n.node_id == span_switch) for n in topology.nodes}
        for link in topology.links:
            rng = random.Random(derive_seed(seed, f"link:{link.link_id}"))
            a, b = self._nodes[link.endpoint_a], self._nodes[link.endpoint_b]
            a_port, b_port = _Port(link, b, rng), _Port(link, a, rng)
            a_port.back, b_port.back = b_port, a_port
            a.ports.append(a_port)
            b.ports.append(b_port)
        self.mirror_sink: Callable[[Packet], None] | None = None
        self.mirrored_count = 0
        self.blocked_count = 0
        engine.register("net", self.handle)

    @property
    def forwarded_by_switch(self) -> dict[str, int]:
        """Packets each switch or firewall forwarded, in topology order."""
        return {n.node_id: n.forwarded for n in self._nodes.values() if n.address is None}

    # -- component wiring ---------------------------------------------------

    def register_app(self, node_id: str, app: PacketApp) -> None:
        self._nodes[node_id].app = app

    # -- engine event handler -------------------------------------------------

    def handle(self, engine: Engine, kind: str, payload) -> None:
        if kind != "arrival":  # "set_link_state"
            link_id, up = payload
            self.set_link_state(link_id, up)
            return
        node, packet, ingress = payload
        address = node.address
        if address is not None:
            # a host; a flooded packet at one that does not own its address is dropped
            if address == packet.dst and node.app is not None:
                node.app.on_packet(self, packet)
            return

        # a switch or firewall: filter, learn the source port, mirror, then forward or flood
        for prefix in node.blocked:
            if packet.src.startswith(prefix) or packet.dst.startswith(prefix):
                self.blocked_count += 1
                return
        table = node.mac_table
        table[packet.src] = ingress
        if node.is_span:
            self.mirrored_count += 1
            if self.mirror_sink is not None:
                self.mirror_sink(packet)
        node.forwarded += 1

        out = table.get(packet.dst)
        if out is None:
            for port in node.ports:
                if port is not ingress:
                    self.transmit(packet, port)
        elif out is not ingress:
            self.transmit(packet, out)
        # known destination behind the ingress port: nothing to do

    # -- sending --------------------------------------------------------------

    def send_app_message(self, from_node_id: str, dst_address: str, protocol: str,
                         length_bytes: int, payload: dict) -> Packet:
        """Build a packet from the host's address at the current sim time and push
        it onto the host link."""
        node = self._nodes[from_node_id]
        packet = Packet(self.engine.now, node.address, dst_address, protocol, length_bytes,
                        payload)
        self.transmit(packet, node.ports[0])
        return packet

    def transmit(self, packet: Packet, port: _Port) -> None:
        """Queue one hop out of ``port``: loss/down checks, then FIFO
        serialization plus latency. The arrival goes straight onto the
        engine's heap: it is never due before now, and this runs once per hop.

        The link's state, loss, latency and bandwidth are read on every hop,
        so changes to them apply to the next packet.
        """
        link = port.link
        if not link.up:
            return
        loss = link.loss_probability
        if loss > 0.0 and port.rng.random() < loss:
            return
        engine = self.engine
        now_ms = engine.now
        bandwidth = link.bandwidth_bps
        serialization_ms = (packet.length_bytes * 8000 + bandwidth - 1) // bandwidth
        start_ms = port.busy_until
        if start_ms < now_ms:
            start_ms = now_ms
        port.busy_until = done_ms = start_ms + serialization_ms
        heappush(engine.heap, (done_ms + link.latency_ms, next(engine.seq), "net", "arrival",
                               (port.far, packet, port.back)))

    def set_link_state(self, link_id: str, up: bool) -> None:
        if link_id not in self.links:
            raise NetworkConfigError(f"unknown link {link_id!r}")
        self.links[link_id].up = up
