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

from .engine import Engine, Event, derive_seed

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
    origin_actor: str
    delivered_at: int | None = None

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


@dataclass
class Transmission:
    """One per-hop link traversal, kept when logging is enabled."""

    link_id: str
    from_node: str
    send_ms: int
    start_ms: int
    arrive_ms: int | None
    length_bytes: int
    dropped: str | None


class NetworkFabric:
    """Engine component owning all packet transport. Target name: ``net``."""

    def __init__(self, topology: IctTopology, engine: Engine, seed: int, log_transmissions: bool = False):
        topology.validate()
        self.topology = topology
        self.engine = engine
        self.nodes = {n.node_id: n for n in topology.nodes}
        self.links = {l.link_id: l for l in topology.links}
        self._links_of: dict[str, list[NetLink]] = {n.node_id: [] for n in topology.nodes}
        for link in topology.links:
            self._links_of[link.endpoint_a].append(link)
            self._links_of[link.endpoint_b].append(link)
        self._loss_rng = {
            l.link_id: random.Random(derive_seed(seed, f"link:{l.link_id}")) for l in topology.links
        }
        self._busy_until: dict[tuple[str, str], int] = {}
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
        self.transmissions: list[Transmission] | None = [] if log_transmissions else None
        engine.register("net", self.handle)

    # -- component wiring ---------------------------------------------------

    def register_app(self, node_id: str, app: PacketApp) -> None:
        node = self.nodes.get(node_id)
        if node is None or node.kind != "host":
            raise NetworkConfigError(f"cannot register app on {node_id!r}")
        self._apps[node_id] = app

    # -- engine event handler -------------------------------------------------

    def handle(self, engine: Engine, event: Event) -> None:
        if event.kind == "arrival":
            node_id, packet, ingress_link = event.payload
            self._on_arrival(node_id, packet, ingress_link)
        elif event.kind == "set_link_state":
            link_id, up = event.payload
            self.set_link_state(link_id, up)
        else:
            raise NetworkConfigError(f"unknown network event kind {event.kind!r}")

    # -- sending --------------------------------------------------------------

    def send_app_message(
        self,
        from_node_id: str,
        dst_address: str,
        protocol: str,
        length_bytes: int,
        payload: dict,
        origin_actor: str,
    ) -> Packet:
        """Build a packet at the current sim time and push it onto the host link."""
        node = self.nodes[from_node_id]
        packet = Packet(
            sent_at=self.engine.now,
            src=node.address or from_node_id,
            dst=dst_address,
            protocol=protocol,
            length_bytes=length_bytes,
            payload=payload,
            origin_actor=origin_actor,
        )
        link = self._links_of[from_node_id][0]
        self.transmit(packet, link, from_node_id)
        return packet

    def transmit(self, packet: Packet, link: NetLink, from_node: str) -> None:
        """Queue one hop: loss/down checks, then FIFO serialization plus latency."""
        if link.link_id not in self.links:
            raise NetworkConfigError(f"unknown link {link.link_id!r}")
        now_ms = self.engine.now
        if not link.up:
            self._log_hop(link, from_node, now_ms, now_ms, None, packet, "link_down")
            return
        if link.loss_probability > 0.0 and self._loss_rng[link.link_id].random() < link.loss_probability:
            self._log_hop(link, from_node, now_ms, now_ms, None, packet, "loss")
            return
        serialization_ms = (packet.length_bytes * 8 * 1000 + link.bandwidth_bps - 1) // link.bandwidth_bps
        key = (link.link_id, from_node)
        start_ms = max(now_ms, self._busy_until.get(key, 0))
        self._busy_until[key] = start_ms + serialization_ms
        arrive_ms = start_ms + serialization_ms + link.latency_ms
        to_node = link.endpoint_b if from_node == link.endpoint_a else link.endpoint_a
        self._log_hop(link, from_node, now_ms, start_ms, arrive_ms, packet, None)
        self.engine.schedule(arrive_ms, "net", "arrival", (to_node, packet, link.link_id))

    def set_link_state(self, link_id: str, up: bool) -> None:
        if link_id not in self.links:
            raise NetworkConfigError(f"unknown link {link_id!r}")
        self.links[link_id].up = up

    # -- forwarding -------------------------------------------------------------

    def _on_arrival(self, node_id: str, packet: Packet, ingress_link: str) -> None:
        node = self.nodes[node_id]
        if node.kind == "host":
            if node.address == packet.dst:
                packet.delivered_at = self.engine.now
                app = self._apps.get(node_id)
                if app is not None:
                    app.on_packet(self, packet)
            return

        if node.kind == "router_firewall":
            for prefix in node.blocked_prefixes:
                if packet.src.startswith(prefix) or packet.dst.startswith(prefix):
                    self.blocked_count += 1
                    return

        table = self._mac_table[node_id]
        table[packet.src] = ingress_link
        if self.topology.span is not None and node_id == self.topology.span.switch_id:
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

    def _log_hop(self, link, from_node, send_ms, start_ms, arrive_ms, packet, dropped) -> None:
        if self.transmissions is not None:
            self.transmissions.append(
                Transmission(
                    link_id=link.link_id,
                    from_node=from_node,
                    send_ms=send_ms,
                    start_ms=start_ms,
                    arrive_ms=arrive_ms,
                    length_bytes=packet.length_bytes,
                    dropped=dropped,
                )
            )
