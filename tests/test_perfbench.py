"""The benchmark tracer still finds every entry point it wraps, and puts each back."""

from pathlib import Path

from scadasim import scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_entry_point_and_uninstall_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    build = scenario.build_simulation
    predicts = {cls: cls.__dict__["predict"] for cls in layers.DETECTORS.values()}
    t = tracer.Tracer()
    try:
        # an entry point that was renamed or moved raises AttributeError here
        layers.install(t)
        assert scenario.build_simulation is not build
        assert all(cls.__dict__["predict"] is not f for cls, f in predicts.items())
    finally:
        t.uninstall()
    assert scenario.build_simulation is build
    assert all(cls.__dict__["predict"] is f for cls, f in predicts.items())
