"""Placement runtime: DES SLO validation and crash failover.

* the DES-measured p99 of a planned placement meets the chain's
  max-delay SLO at the committed rate;
* crashing any server on the active path (``measure_placed(faults=)``)
  fails traffic over onto the pre-planned disjoint backup on the same
  model clock, with zero ledger violations (injected == delivered +
  drops by reason) and a measured recovery time.
"""

import dataclasses
import math

import pytest

from repro.core import Orchestrator, Policy
from repro.eval.experiments import NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN
from repro.eval.harness import measure_placed
from repro.placement import Slo, Topology
from repro.telemetry import TelemetryHub, multiserver_summary_table


def place_fig13(topology_spec="mesh:4x8", delay=150.0, mpps=0.8,
                solver="heuristic", backups=True):
    orch = Orchestrator()
    topology = Topology.from_spec(topology_spec)
    requests = [
        orch.request("north-south",
                     Policy.from_chain(list(NORTH_SOUTH_CHAIN)),
                     Slo(max_delay_us=delay, max_mpps=mpps)),
        orch.request("west-east",
                     Policy.from_chain(list(WEST_EAST_CHAIN)),
                     Slo(max_delay_us=delay, max_mpps=mpps)),
    ]
    plan = orch.place(topology, requests, solver=solver, backups=backups)
    return topology, plan


class TestDesMeetsSlo:
    def test_single_server_placement(self):
        topology, plan = place_fig13()
        assert plan.feasible, plan.describe()
        for name in ("north-south", "west-east"):
            placement = plan.placement_for(name)
            result = measure_placed(placement, packets=1500, seed=7)
            assert result.lost == 0
            assert result.latency_p99_us <= placement.request.slo.max_delay_us

    def test_multi_server_placement(self):
        # 5-core servers force the north-south chain across a link; the
        # measured p99 must still meet the SLO, link serialisation and
        # propagation included.
        topology, plan = place_fig13("line:4x5", delay=150.0, backups=False)
        assert plan.feasible, plan.describe()
        placement = plan.placement_for("north-south")
        assert placement.num_servers >= 2
        result = measure_placed(placement, packets=1500, seed=7)
        assert result.lost == 0
        assert result.latency_p99_us <= placement.request.slo.max_delay_us
        # The zero-load prediction is a floor for the loaded p99.
        assert result.latency_p99_us >= placement.delay_us * 0.5


#: ``measure_placed(packets=400, seed=7)`` of the north-south chain on
#: ``mesh:6x5``, the link serialising one frame at a time: a fault-free
#: run must be the plain timed pipeline, field for field.
FAULT_FREE_NS_6X5 = {
    "system": "NFP-placed", "label": "north-south@s0->s1",
    "latency_mean_us": 98.60671742971168,
    "latency_p50_us": 94.29979886513618,
    "latency_p99_us": 111.42803757140464,
    "throughput_mpps": 1.4705882352941175, "bottleneck": "server0:vpn",
    "offered_mpps": 0.275, "delivered": 400, "lost": 0, "nil_dropped": 0,
    "resource_overhead": 0.0, "cores_used": 8, "events_processed": 8481,
}


def ledger(hub, chain):
    """The ``placement.<chain>.*`` counters and gauges, prefix stripped."""
    prefix = f"placement.{chain}."
    values = {}
    for metrics in (hub.registry.counters, hub.registry.gauges):
        for name, metric in metrics.items():
            if name.startswith(prefix):
                values[name[len(prefix):]] = metric.value
    return values


def drops(values):
    return sum(v for k, v in values.items() if k.startswith("drop."))


def run_crash(placement, faults, packets=300):
    hub = TelemetryHub()
    result = measure_placed(placement, packets=packets, seed=7,
                            telemetry=hub, faults=faults)
    values = ledger(hub, placement.request.name)
    # Zero conservation violations over both paths.
    assert values["imbalance"] == 0, values
    assert values["injected"] == packets
    assert values["delivered"] + drops(values) == packets
    # The result covers both paths' deliveries.
    assert result.delivered == values["delivered"]
    return values


def assert_failed_over(values, victim, placement):
    assert values["drop.server_crash"] >= 1
    assert values["failover"] == 1
    assert values["recovery_us"] > 0.0
    assert victim not in placement.backup.path
    # Every packet offered after the crash fired rode the backup, and
    # the backup delivered each one (it holds no casualty).
    assert values["backup.injected"] > 0
    assert values["backup.delivered"] == values["backup.injected"]
    # What the active path took before the crash is delivered or an
    # attributed drop.
    active_offered = values["injected"] - values["backup.injected"]
    active_delivered = values["delivered"] - values["backup.delivered"]
    assert active_offered == active_delivered + drops(values)


class TestCrashFailover:
    def test_every_active_server_crash_fails_over(self):
        topology, plan = place_fig13()
        assert plan.feasible and not plan.unprotected, plan.describe()
        placement = plan.placement_for("north-south")
        for victim in placement.path:
            values = run_crash(placement, f"crash:{victim}:pkt=5")
            assert_failed_over(values, victim, placement)

    def test_multi_server_active_path_each_hop(self):
        topology, plan = place_fig13("mesh:6x5", delay=200.0, mpps=0.5)
        assert plan.feasible, plan.describe()
        placement = plan.placement_for("north-south")
        assert placement.num_servers >= 2
        assert placement.backup is not None
        for victim in placement.path:
            values = run_crash(placement, f"crash:{victim}:pkt=3")
            assert_failed_over(values, victim, placement)

    def test_time_triggered_crash_delivers_before_and_after(self):
        topology, plan = place_fig13()
        placement = plan.placement_for("north-south")
        victim = placement.path[0]
        values = run_crash(placement, f"crash:{victim}:t=200")
        assert_failed_over(values, victim, placement)
        # Packets that finished before t=200 left by the active path.
        assert values["delivered"] > values["backup.delivered"]

    def test_double_fault_still_conserves(self):
        # Kill the active path, then the backup too: everything after
        # the second crash is an attributed drop, never a silent loss.
        topology, plan = place_fig13()
        placement = plan.placement_for("west-east")
        faults = (f"crash:{placement.path[0]}:pkt=3,"
                  f"crash:{placement.backup.path[0]}:t=100")
        values = run_crash(placement, faults)
        assert values["failover"] == 1
        assert values["recovery_us"] > 0.0
        assert values["drop.server_crash"] >= 2
        assert values["drop.no_placement"] >= 1
        # The backup ran from the first crash until t=100.
        assert 0 < values["backup.delivered"] < values["backup.injected"]

    def test_nothing_delivered_still_balances(self):
        # Both heads die on their first frame: no packet is delivered,
        # every one is attributed, and the latencies read NaN.
        topology, plan = place_fig13()
        placement = plan.placement_for("west-east")
        hub = TelemetryHub()
        result = measure_placed(
            placement, packets=100, seed=7, telemetry=hub,
            faults=f"crash:{placement.path[0]}:pkt=1,"
                   f"crash:{placement.backup.path[0]}:pkt=1")
        values = ledger(hub, "west-east")
        assert values["imbalance"] == 0, values
        assert result.delivered == 0 and result.lost == 100
        assert values["drop.server_crash"] == 2
        assert values["drop.no_placement"] == 98
        assert "recovery_us" not in values
        assert math.isnan(result.latency_p99_us)

    def test_no_faults_no_drops(self):
        # faults=None is the fault-free timed run, field for field.
        topology, plan = place_fig13("mesh:6x5", delay=200.0, mpps=0.5)
        placement = plan.placement_for("north-south")
        hub = TelemetryHub()
        result = measure_placed(placement, packets=400, seed=7,
                                telemetry=hub)
        assert dataclasses.asdict(result) == FAULT_FREE_NS_6X5
        assert ledger(hub, "north-south") == {}

    def test_backup_required(self):
        topology, plan = place_fig13(backups=False)
        placement = plan.placement_for("west-east")
        with pytest.raises(ValueError, match="plan_backups"):
            measure_placed(placement, packets=10,
                           faults=f"crash:{placement.path[0]}:pkt=1")

    def test_only_crash_faults(self):
        topology, plan = place_fig13()
        placement = plan.placement_for("west-east")
        with pytest.raises(ValueError, match="crash faults only"):
            measure_placed(placement, packets=10,
                           faults=f"slow:{placement.path[0]}")


class TestTelemetryGauges:
    def test_des_run_publishes_gauges(self):
        # measure_placed is the one feeder of the multiserver.* gauges
        # and of the exporter's server/link table (``place --measure``).
        topology, plan = place_fig13("line:4x5", delay=150.0, backups=False)
        placement = plan.placement_for("north-south")
        hub = TelemetryHub()
        measure_placed(placement, packets=400, seed=3, telemetry=hub,
                       topology=topology)
        gauges = {name: gauge.value
                  for name, gauge in hub.registry.gauges.items()}
        for name in placement.path:
            assert 0.0 < gauges[f"multiserver.server.{name}.core_util"] <= 1.0
        pair = "{0.a}-{0.b}".format(placement.links[0])
        assert gauges[f"multiserver.link.{pair}.busy_us"] > 0.0
        assert 0.0 < gauges[f"multiserver.link.{pair}.occupancy"] < 1.0
        assert hub.registry.counter_value(
            f"multiserver.link.{pair}.frames") == 400
        # And the gauges are visible in the ASCII exporter table.
        table = multiserver_summary_table(hub.registry)
        for name in placement.path:
            assert name in table
        assert f"\n{pair} " in table
        assert "core util" in table and "occupancy" in table

    def test_failover_run_publishes_the_backup_rows(self):
        # ``place --topology mesh:6x5 --chains ns=vpn,monitor,firewall,
        # loadbalancer --max-delay-us 200 --max-mpps 0.5 --measure
        # --faults crash:s0:pkt=5 --packets 300``: the backup carries
        # every packet after the crash, so its servers and its link get
        # rows beside the active path's.
        orch = Orchestrator()
        topology = Topology.from_spec("mesh:6x5")
        request = orch.request(
            "ns", Policy.from_chain(list(NORTH_SOUTH_CHAIN)),
            Slo(max_delay_us=200.0, max_mpps=0.5))
        placement = orch.place(topology, [request]).placement_for("ns")
        backup = placement.backup
        assert placement.path[0] == "s0" and len(backup.links) == 1
        hub = TelemetryHub()
        measure_placed(placement, packets=300, telemetry=hub,
                       topology=topology, faults="crash:s0:pkt=5")
        values = ledger(hub, "ns")
        assert values["backup.delivered"] == 295
        gauges = hub.registry.gauges
        for name in placement.path + backup.path:
            assert f"multiserver.server.{name}.core_util" in gauges
        pair = "{0.a}-{0.b}".format(backup.links[0])
        assert hub.registry.counter_value(
            f"multiserver.link.{pair}.frames") == 295
        table = multiserver_summary_table(hub.registry)
        assert f"\n{pair} " in table
        for name in placement.path + backup.path:
            assert f"\n{name} " in table

    def test_two_chains_on_disjoint_pairs_keep_their_rows(self):
        # ``place --measure`` measures every chain into one hub: each
        # link row is the server pair its chain crossed, holding that
        # chain's frames and wire time alone.
        orch = Orchestrator()
        topology = Topology.from_spec("line:4x5")
        requests = [orch.request(name, Policy.from_chain(
            list(NORTH_SOUTH_CHAIN)), Slo(max_delay_us=100.0, max_mpps=1.0))
            for name in "ab"]
        plan = orch.place(topology, requests, backups=False)
        assert [p.path for p in plan.placements] == [("s0", "s1"),
                                                     ("s2", "s3")]
        hub = TelemetryHub()
        alone = {}
        for placement in plan.placements:
            measure_placed(placement, packets=200, telemetry=hub,
                           topology=topology)
            own = TelemetryHub()
            measure_placed(placement, packets=200, telemetry=own,
                           topology=topology)
            alone.update({name: gauge.value
                          for name, gauge in own.registry.gauges.items()})
        gauges = {name: gauge.value
                  for name, gauge in hub.registry.gauges.items()}
        for pair in ("s0-s1", "s2-s3"):
            prefix = f"multiserver.link.{pair}."
            assert hub.registry.counter_value(prefix + "frames") == 200
            assert gauges[prefix + "busy_us"] == alone[prefix + "busy_us"]
            assert gauges[prefix + "occupancy"] == alone[prefix + "occupancy"]
        table = multiserver_summary_table(hub.registry)
        rows = [line.split("|") for line in table.splitlines()
                if line.startswith(("s0-s1 ", "s2-s3 "))]
        assert [int(row[1]) for row in rows] == [200, 200]

    def test_chains_on_one_pair_sum(self):
        # Two chains over one server pair (here one placement measured
        # twice) sum their frames, bytes, wire time and core use.
        topology, plan = place_fig13("line:4x5", delay=150.0, backups=False)
        placement = plan.placement_for("north-south")
        once, twice = TelemetryHub(), TelemetryHub()
        measure_placed(placement, packets=200, telemetry=once,
                       topology=topology)
        for _ in range(2):
            measure_placed(placement, packets=200, telemetry=twice,
                           topology=topology)
        for name, counter in once.registry.counters.items():
            if name.startswith("multiserver."):
                assert twice.registry.counter_value(name) == 2 * counter.value
        for name, gauge in once.registry.gauges.items():
            if name.startswith("multiserver."):
                assert twice.registry.gauges[name].value == pytest.approx(
                    2 * gauge.value)
