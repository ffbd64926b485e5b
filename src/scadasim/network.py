"""Emulated IT process network: hosts, learning switches, links, SPAN mirroring.

Links apply latency, serialization delay (per-direction FIFO, infinite queue)
and seeded probabilistic loss. Forwarding is flat learning-switch behavior over
opaque string addresses; a router_firewall node additionally drops traffic
matching configured address prefixes. The SPAN mirror is a lossless tap: every
packet the mirrored switch handles is passed to the monitor exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Protocol

from .engine import Engine, derive_seed

PROTOCOLS = ("SCADA", "HTTP", "SSH", "TELNET", "SCAN_PROBE", "OTHER")
NODE_KINDS = ("host", "switch", "router_firewall")
MIN_PACKET_BYTES = 20


class NetworkConfigError(ValueError):
    """Topology description is inconsistent."""


@dataclass
class Packet:
    sent_at: int  # ms
    src: str
    dst: str
    protocol: str
    length_bytes: int
    payload: dict

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise NetworkConfigError(f"unknown protocol tag {self.protocol!r}")
        if self.length_bytes < MIN_PACKET_BYTES:
            raise NetworkConfigError(f"packet length {self.length_bytes} below {MIN_PACKET_BYTES} bytes")


@dataclass
class NetNode:
    node_id: str
    kind: str
    address: str | None = None
    blocked_prefixes: tuple[str, ...] = ()


@dataclass
class NetLink:
    link_id: str
    endpoint_a: str
    endpoint_b: str
    latency_ms: int = 1
    loss_probability: float = 0.0
    bandwidth_bps: int = 10_000_000
    up: bool = True


@dataclass(frozen=True)
class SpanConfig:
    switch_id: str
    monitor_node_id: str


@dataclass
class IctTopology:
    nodes: list[NetNode]
    links: list[NetLink]
    span: SpanConfig | None = None

    def validate(self) -> None:
        node_ids = [n.node_id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise NetworkConfigError("duplicate node ids")
        by_id = {n.node_id: n for n in self.nodes}
        addresses = [n.address for n in self.nodes if n.address is not None]
        if len(set(addresses)) != len(addresses):
            raise NetworkConfigError("duplicate addresses")
        for n in self.nodes:
            if n.kind not in NODE_KINDS:
                raise NetworkConfigError(f"node {n.node_id}: unknown kind {n.kind!r}")
            if n.kind == "host" and n.address is None:
                raise NetworkConfigError(f"host {n.node_id} has no address")
        link_ids = [l.link_id for l in self.links]
        if len(set(link_ids)) != len(link_ids):
            raise NetworkConfigError("duplicate link ids")
        attach_count: dict[str, int] = {}
        for l in self.links:
            for end in (l.endpoint_a, l.endpoint_b):
                if end not in by_id:
                    raise NetworkConfigError(f"link {l.link_id}: unknown node {end!r}")
                attach_count[end] = attach_count.get(end, 0) + 1
            if not 0.0 <= l.loss_probability <= 1.0:
                raise NetworkConfigError(f"link {l.link_id}: loss_probability out of [0,1]")
            if l.latency_ms < 0 or l.bandwidth_bps <= 0:
                raise NetworkConfigError(f"link {l.link_id}: bad latency/bandwidth")
        for n in self.nodes:
            if n.kind == "host" and attach_count.get(n.node_id, 0) != 1:
                raise NetworkConfigError(
                    f"host {n.node_id} must attach by exactly one link, has {attach_count.get(n.node_id, 0)}"
                )
        if self.span is not None:
            sw = by_id.get(self.span.switch_id)
            if sw is None or sw.kind not in ("switch", "router_firewall"):
                raise NetworkConfigError(f"span switch {self.span.switch_id!r} is not a switch")
            if self.span.monitor_node_id not in by_id:
                raise NetworkConfigError(f"span monitor {self.span.monitor_node_id!r} unknown")


class PacketApp(Protocol):
    def on_packet(self, fabric: "NetworkFabric", packet: Packet) -> None: ...


class NetworkFabric:
    """Engine component owning all packet transport. Target name: ``net``."""

    def __init__(self, topology: IctTopology, engine: Engine, seed: int):
        topology.validate()
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
