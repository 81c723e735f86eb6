from layers import LayerProfiler, layer_of_module


def _owner(module):
    cls = type("Component", (), {"tick": lambda self, x: x})
    cls.__module__ = module
    return cls()


def test_module_to_layer():
    assert layer_of_module("repro.memory.l2") == "memory"
    assert layer_of_module("repro.campaign.server") == "campaign"
    assert layer_of_module("repro.obs.tracer") is None
    assert layer_of_module("repro.atomicio") is None
    assert layer_of_module("collections") is None
    assert layer_of_module(None) is None


def test_dispatch_attributes_events_to_owner_layers():
    profiler = LayerProfiler()
    l2, link = _owner("repro.memory.l2"), _owner("repro.network.link")
    for _ in range(3):
        profiler.dispatch(l2.tick, (1,))
    profiler.dispatch(link.tick, (2,))
    assert profiler.layer_events("memory") == 3
    assert profiler.layer_events("network") == 1
    assert profiler.events == 4
    assert profiler.layer_seconds("memory") >= 0.0
    assert not profiler.unmapped


def test_callbacks_outside_named_layers_are_reported():
    profiler = LayerProfiler()
    profiler.dispatch(_owner("repro.faults.layer").tick, (0,))
    assert profiler.unmapped == {"repro.faults.layer"}
    assert profiler.events == 1


def test_callbacks_of_unreported_layers_are_unmapped():
    # repro.stats is a named package but not a reported layer: its events
    # must fail both the unmapped check and the conservation check
    profiler = LayerProfiler()
    profiler.dispatch(_owner("repro.memory.l2").tick, (0,))
    profiler.dispatch(_owner("repro.stats.collectors").tick, (0,))
    assert profiler.unmapped == {"repro.stats.collectors"}
    assert profiler.events == 2
    assert profiler.reported_events == 1
