"""Which scadasim entry points the traced run wraps, and the per-layer
metrics derived from one traced pass.

Timings are self times: a span's duration minus that of the wrapped calls it
made. A metric ending in ``_us`` is microseconds per unit of the layer's work
(event, hop, record, report, frame, packet, prediction), one ending in ``_s``
is seconds per call. A layer the workload never reaches reports 0.
"""

from __future__ import annotations

from scadasim import attacker, capture, engine, ids, network, scada, scenario, vulnhost
from scadasim.ids import evaluation as ids_evaluation
from scadasim.ids import models as ids_models

DETECTORS = {
    "rf": ids.RandomForestDetector,
    "knn": ids.KnnDetector,
    "lof": ids.LofDetector,
    "iforest": ids.IsolationForestDetector,
}


def install(tracer) -> None:
    """Wrap the entry points. Call before build_simulation binds the handlers."""
    tracer.patch_method(engine.Engine, "run")
    tracer.patch_method(engine.Engine, "schedule")
    tracer.patch_method(network.NetworkFabric, "handle")
    tracer.patch_method(network.NetworkFabric, "transmit")
    for cls in (scenario.GridComponent, scenario.OpsComponent, scada.RtuApp, scada.MtuApp,
                attacker.AttackerComponent):
        tracer.patch_method(cls, "handle")
    for cls in (scenario.OpsComponent, vulnhost.SimHost, attacker.AttackerComponent):
        tracer.patch_method(cls, "on_packet")
    for cls in (scada.RtuApp, scada.MtuApp):
        tracer.patch_method(cls, "on_telemetry")
    tracer.patch_method(capture.TrafficCollector, "record")
    tracer.patch_method(capture.LabeledDataset, "from_records", size=lambda a, r: len(a[1]))
    tracer.patch_function(capture, "label_records", size=lambda a, r: len(a[0]))
    tracer.patch_function(capture, "export_csv", size=lambda a, r: len(a[0].records))
    tracer.patch_function(capture, "import_csv", size=lambda a, r: len(r.records))
    tracer.patch_function(scenario, "load_fixture")
    tracer.patch_function(scenario, "build_simulation")
    tracer.patch_method(ids_models.FeatureDictionary, "encode", size=lambda a, r: len(a[1]))
    tracer.patch_function(ids_models, "train_model", name=lambda a: f"train_model.{a[0]}")
    for algorithm, cls in DETECTORS.items():
        tracer.patch_method(cls, "predict", size=lambda a, r: len(a[1]),
                            name=f"predict.{algorithm}")
    tracer.patch_function(ids_evaluation, "evaluate", size=lambda a, r: len(a[0]))


def _per(seconds: float, n: int, scale: float = 1e6) -> float:
    return seconds / n * scale if n else 0.0


def layer_metrics(t, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``t`` holds the pass's span totals; ``counts`` the counts the pass read
    from the program's own objects.
    """
    events = t.count_under("Engine.run", lambda name: name.endswith(".handle"))
    schedules = t.count("Engine.schedule")
    hops = t.count("NetworkFabric.transmit")
    deliveries = t.count_under("NetworkFabric.handle", lambda name: name.endswith(".on_packet"))
    records = t.count("TrafficCollector.record")
    solves = t.count("GridComponent.handle")
    rtu_reports = counts.get("scada.rtu_reports", 0)
    mtu_frames = t.count("MtuApp.on_telemetry")
    host_packets = t.count("SimHost.on_packet")
    attacker_calls = t.count("AttackerComponent.handle", "AttackerComponent.on_packet")

    m = {
        "engine.events": events,
        "engine.dispatch_self_us": _per(t.self_seconds("Engine.run"), events),
        "engine.schedule_calls": schedules,
        "engine.schedule_us": _per(t.self_seconds("Engine.schedule"), schedules),
        "network.hops": hops,
        "network.arrivals": t.count("NetworkFabric.handle"),
        "network.hop_self_us": _per(
            t.self_seconds("NetworkFabric.handle", "NetworkFabric.transmit"), hops),
        "network.deliveries": deliveries,
        "network.delivery_ratio": deliveries / hops if hops else 0.0,
        "network.hops_per_record": hops / records if records else 0.0,
        "network.mirrored": counts.get("network.mirrored", 0),
        "powergrid.solves": solves,
        "powergrid.step_us": _per(t.self_seconds("GridComponent.handle"), solves),
        "scada.rtu_reports": rtu_reports,
        "scada.rtu_us": _per(t.self_seconds("RtuApp.handle", "RtuApp.on_telemetry"), rtu_reports),
        "scada.mtu_frames": mtu_frames,
        "scada.mtu_us": _per(t.self_seconds("MtuApp.handle", "MtuApp.on_telemetry"), mtu_frames),
        "vulnhost.packets": host_packets,
        "vulnhost.us": _per(t.self_seconds("SimHost.on_packet"), host_packets),
        "attacker.events": t.count("AttackerComponent.handle"),
        "attacker.us": _per(
            t.self_seconds("AttackerComponent.handle", "AttackerComponent.on_packet"),
            attacker_calls),
        "attacker.actions": counts.get("attacker.actions", 0),
        "capture.records": records,
        "capture.record_us": _per(t.self_seconds("TrafficCollector.record"), records),
    }
    for metric, span in (("capture.label_us", "label_records"),
                         ("capture.dataset_us", "LabeledDataset.from_records"),
                         ("capture.export_us", "export_csv"),
                         ("capture.import_us", "import_csv"),
                         ("ids.encode_us", "FeatureDictionary.encode")):
        m[metric] = _per(t.self_seconds(span), t.units(span))
    for algorithm in DETECTORS:
        fit = f"train_model.{algorithm}"
        predict = f"predict.{algorithm}"
        m[f"ids.{algorithm}.fit_s"] = _per(t.self_seconds(fit), t.count(fit), scale=1.0)
        m[f"ids.{algorithm}.predict_us"] = _per(t.self_seconds(predict), t.units(predict))
    m["ids.evaluate_us"] = _per(t.self_seconds("evaluate"), t.units("evaluate"))
    m["config.load_s"] = _per(t.self_seconds("load_fixture"), t.count("load_fixture"), scale=1.0)
    m["scenario.build_s"] = _per(
        t.self_seconds("build_simulation"), t.count("build_simulation"), scale=1.0)
    return m


def consistency_problems(t, m: dict[str, float], counts: dict[str, int]) -> list[str]:
    """Traced counts must equal what the program itself reports."""
    problems = []
    pairs = [("engine.events", "engine.events"), ("capture.records", "capture.records"),
             ("capture.records", "network.mirrored"), ("powergrid.solves", "powergrid.solves")]
    for traced, own in pairs:
        if own in counts and m[traced] != counts[own]:
            problems.append(f"traced {traced} = {m[traced]} but the program reports {own} = {counts[own]}")
    if "ids.predictions" in counts:
        predicted = t.units(*(f"predict.{a}" for a in DETECTORS))
        if predicted != counts["ids.predictions"]:
            problems.append(f"traced predictions {predicted} != {counts['ids.predictions']}")
    return problems
