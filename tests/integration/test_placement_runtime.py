"""Placement runtime: DES SLO validation and crash failover.

Acceptance criteria of the placement PR:

* the DES-measured p99 of a planned placement meets the chain's
  max-delay SLO at the committed rate;
* crashing any server on the active path (via ``repro.faults``) fails
  traffic over onto the pre-planned disjoint backup with zero
  conservation-ledger violations (injected == emitted + attributed
  drops).
"""

import pytest

from repro.core import Orchestrator, Policy
from repro.eval.experiments import NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN
from repro.eval.harness import measure_placed
from repro.net.packet import build_packet
from repro.placement import PlacedDataplane, Slo, Topology
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


class TestCrashFailover:
    def test_every_active_server_crash_fails_over(self):
        topology, plan = place_fig13()
        assert plan.feasible and not plan.unprotected, plan.describe()
        placement = plan.placement_for("north-south")
        for victim in placement.path:
            hub = TelemetryHub()
            plane = PlacedDataplane(
                placement, faults=f"crash:{victim}:pkt=5", telemetry=hub)
            emitted = 0
            for index in range(40):
                out = plane.process(build_packet(size=64,
                                                 src_port=10000 + index))
                if out is not None:
                    emitted += 1
            report = plane.conservation_report()
            # Zero conservation violations: every packet accounted.
            assert report["violation"] == 0, report
            assert report["injected"] == 40
            assert report["emitted"] == emitted
            # Exactly the crash-witnessing packet was dropped.
            assert report["drop.server_crash"] == 1
            assert emitted == 39
            # Failover happened onto the pre-planned disjoint backup.
            assert plane.failovers == 1
            assert plane.current_path == placement.backup.path
            assert victim not in plane.current_path
            assert hub.registry.counter_value("placement.failover") == 1

    def test_multi_server_active_path_each_hop(self):
        topology, plan = place_fig13("mesh:6x5", delay=200.0, mpps=0.5)
        assert plan.feasible, plan.describe()
        placement = plan.placement_for("north-south")
        assert placement.num_servers >= 2
        assert placement.backup is not None
        for victim in placement.path:
            plane = PlacedDataplane(placement,
                                    faults=f"crash:{victim}:pkt=3")
            for index in range(30):
                plane.process(build_packet(size=64, src_port=20000 + index))
            report = plane.conservation_report()
            assert report["violation"] == 0, report
            assert report["drop.server_crash"] == 1
            assert plane.current_path == placement.backup.path

    def test_double_fault_still_conserves(self):
        # Kill the active path, then the backup too: everything after
        # the second crash is an attributed drop, never a silent loss.
        topology, plan = place_fig13()
        placement = plan.placement_for("west-east")
        faults = (f"crash:{placement.path[0]}:pkt=3,"
                  f"crash:{placement.backup.path[0]}:pkt=6")
        plane = PlacedDataplane(placement, faults=faults)
        for index in range(20):
            plane.process(build_packet(size=64, src_port=30000 + index))
        report = plane.conservation_report()
        assert report["violation"] == 0, report
        assert report["drop.server_crash"] == 2
        assert report["drop.no_placement"] == 20 - report["emitted"] - 2

    def test_no_faults_no_drops(self):
        topology, plan = place_fig13()
        placement = plan.placement_for("west-east")
        plane = PlacedDataplane(placement)
        for index in range(25):
            assert plane.process(
                build_packet(size=64, src_port=40000 + index)) is not None
        report = plane.conservation_report()
        assert report["violation"] == 0
        assert report["dropped"] == 0
        assert plane.failovers == 0
        assert plane.current_path == placement.path

    def test_backup_required(self):
        topology, plan = place_fig13(backups=False)
        placement = plan.placement_for("west-east")
        with pytest.raises(ValueError):
            PlacedDataplane(placement)


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
        assert gauges["multiserver.link0.busy_us"] > 0.0
        assert 0.0 < gauges["multiserver.link0.occupancy"] < 1.0
        assert hub.registry.counter_value("multiserver.link0.frames") == 400
        # And the gauges are visible in the ASCII exporter table.
        table = multiserver_summary_table(hub.registry)
        for name in placement.path:
            assert name in table
        assert "link0" in table
        assert "core util" in table and "occupancy" in table
