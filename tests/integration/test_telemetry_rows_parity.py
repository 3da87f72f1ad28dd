"""Whole runs recorded by the row store and by the object-per-span store.

The property suite (``tests/property/test_telemetry_rows_differential.py``)
holds the hub's calls one by one; this holds what the dataplane actually
emits.  A small flash crowd on the elastic ``nat>vpn`` chain (rescales,
handover, the sampler on every window) and the ``fig13_we_faults``
episode (a hung monitor, AT timeouts whose degraded merges carry
``args``) each run twice from the same seed: once under
:class:`~repro.telemetry.hooks.TelemetryHub` with a row-store
:class:`~repro.telemetry.tracer.Tracer`, once under the reference pair in
``tests/support/telemetry_reference.py``.  The full event lists must be
equal in order, not only as the sorted set ``baseline.json`` digests, and
so must the counters, gauges, histograms and every sampler window.
"""

import dataclasses

from repro.bench import spec
from repro.eval import measure_nfp
from repro.eval.experiments import WEST_EAST_CHAIN
from repro.sim.params import DEFAULT_PARAMS
from repro.telemetry import Sampler, SpanKind, TelemetryHub, Tracer, Watcher
from repro.traffic.generator import DATACENTER_MIX
from tests.support import telemetry_reference as ref

STORES = {"rows": (TelemetryHub, Tracer), "reference": (ref.TelemetryHub,
                                                         ref.Tracer)}


def _windows(sampler):
    return [(w.index, w.start_us, w.end_us, w.counters, w.gauges,
             {name: h.snapshot() for name, h in w.histograms.items()})
            for w in sampler.series.windows]


def _flash_crowd(monkeypatch, store):
    hub_cls, tracer_cls = STORES[store]
    monkeypatch.setattr(spec, "TelemetryHub", hub_cls)
    monkeypatch.setattr(spec, "Tracer", tracer_cls)
    result, hub, _ = spec._flash_crowd(
        600, 7, peak_mpps=2.6, phases=(0.15, 0.30, 0.25, 0.10),
        up_rule="ring.occupancy > 0.025 for 1 windows",
        down_rule="ring.occupancy < 0.0125 for 6 windows",
        params=dataclasses.replace(DEFAULT_PARAMS, ring_capacity=4096))
    assert isinstance(hub, hub_cls)
    return hub, result.sampler, result.scaler.scale_ups


def _we_faults(store):
    hub_cls, tracer_cls = STORES[store]
    hub = hub_cls(tracer=tracer_cls())
    sampler = Sampler(hub, window_us=1000.0)
    Watcher(["merger.at_timeout > 0", "ring.occupancy > 0.8 for 3 windows"],
            hub=hub).attach(sampler)
    measure_nfp(list(WEST_EAST_CHAIN), packets=400, seed=7, telemetry=hub,
                sizes=DATACENTER_MIX, faults="hang:monitor:pkt=200",
                sampler=sampler)
    return hub, sampler


def _assert_same_run(new, old, new_sampler, old_sampler):
    assert new.tracer.events == old.tracer.events
    assert len(new.tracer) == len(old.tracer) > 0
    assert new.registry.snapshot() == old.registry.snapshot()
    assert _windows(new_sampler) == _windows(old_sampler)


def test_flash_crowd_records_the_same_run(monkeypatch):
    new, new_sampler, scale_ups = _flash_crowd(monkeypatch, "rows")
    old, old_sampler, _ = _flash_crowd(monkeypatch, "reference")
    assert scale_ups > 0, "no rescale: the crowd did not exercise handover"
    _assert_same_run(new, old, new_sampler, old_sampler)


def test_at_timeout_episode_records_the_same_run():
    new, new_sampler = _we_faults("rows")
    old, old_sampler = _we_faults("reference")
    degraded = [e for e in new.tracer.events
                if e.kind is SpanKind.MERGE_APPLY and (e.args or {}).get("degraded")]
    assert degraded, "no AT-timeout merge: the episode did not happen"
    _assert_same_run(new, old, new_sampler, old_sampler)

