"""The bench subsystem end to end: the pinned report's shape, the CLI.

The shape checks read the pinned report (``baseline.json``, which the
model-clock gate holds equal to a fresh run of every scenario): the
copy ablation's cost ratio, scale-out linearity, the flow cache cutting
classify time.  The CLI checks run a small scenario into a file and
diff it, and ``measure --json`` emits the same serialisation scripts
consume.
"""

import json
import os

import pytest

from repro.bench import REGISTRY, BenchReport, validate_bench
from repro.cli import main

BASELINE = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                        "results", "baseline.json")


@pytest.fixture(scope="module")
def pinned():
    return BenchReport.load(BASELINE)


def _measured(pinned):
    """The scenarios that pin latency metrics (not a paper table)."""
    return [scenario for scenario in pinned.scenarios if not scenario.table]


def test_every_scenario_reports_metrics_and_attribution(pinned):
    for scenario in _measured(pinned):
        metrics = scenario.metrics
        assert metrics["latency_p50_us"] > 0, scenario.name
        assert metrics["latency_p99_us"] >= metrics["latency_p50_us"], \
            scenario.name
        assert metrics["delivered"] > 0, scenario.name
        # Traced scenarios attribute their time to pipeline stages.
        if sum(scenario.stage_events.values()):
            assert sum(scenario.stage_us.values()) > 0, scenario.name
    traced = [s for s in pinned.scenarios if sum(s.stage_us.values()) > 0]
    assert len(traced) >= 30


def test_every_des_scenario_pins_its_event_count(pinned):
    for scenario in _measured(pinned):
        if scenario.name != "fuzz_corpus_replay":
            assert scenario.metrics["events_per_pkt"] > 0, scenario.name


def test_copy_ablations_separate_op1_from_op2(pinned):
    full = pinned.scenario("ablation_op1_full_copy")
    header = pinned.scenario("ablation_op2_header_copy")
    # 512B frames: a full copy costs 8x the bytes of a 64B header copy.
    assert full.metrics["resource_overhead"] > \
        header.metrics["resource_overhead"] * 4
    assert full.metrics["copies_full"] > 0
    assert header.metrics["copies_header"] > 0


def test_corpus_replay_scenario_is_green(pinned):
    replay = pinned.scenario("fuzz_corpus_replay")
    assert replay.metrics["cases"] >= 10
    assert replay.metrics["cases_failed"] == 0
    assert replay.metrics["delivered"] > 0


def test_scale_sweep_throughput_tracks_instance_count(pinned):
    x1 = pinned.scenario("scale_ids_x1").metrics
    for count in (2, 3, 4):
        metrics = pinned.scenario(f"scale_ids_x{count}").metrics
        assert metrics["throughput_mpps"] == pytest.approx(
            count * x1["throughput_mpps"], rel=0.01)
        assert metrics["lost"] == 0
    assert x1["lost"] == 0


def test_the_autoscaler_keeps_its_ledger(pinned):
    for name in ("flash_crowd_autoscale", "flash_crowd_nat_vpn"):
        metrics = pinned.scenario(name).metrics
        assert metrics["unaccounted"] == 0, name
        assert metrics["scale_ups"] > 0 and metrics["scale_downs"] > 0, name
        assert metrics["core_savings_fraction"] > 0, name


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "new.json"
    assert main(["bench", "--only", "bess_west_east,overhead_copy_merge",
                 "--out", str(path)]) == 0
    return path


def test_bench_out_writes_a_row_equal_to_the_pin(pinned, written):
    assert validate_bench(json.loads(written.read_text())) == []
    report = BenchReport.load(str(written))
    assert report.names() == ["bess_west_east", "overhead_copy_merge"]
    for row in report.scenarios:
        assert row.to_dict() == pinned.scenario(row.name).to_dict()


def test_compare_cli_zero_on_identical_one_on_regression(
        written, tmp_path, capsys):
    assert main(["bench", "--compare", str(written), str(written)]) == 0

    document = json.loads(written.read_text())
    document["scenarios"][0]["metrics"]["latency_p99_us"] *= 1.01
    regressed = tmp_path / "regressed.json"
    regressed.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["bench", "--compare", str(written), str(regressed)]) == 1
    assert "1 difference(s)" in capsys.readouterr().out
    # Against the full pinned file, every scenario not run is one-sided.
    assert main(["bench", "--compare", BASELINE, str(written)]) == 1
    assert f"{len(REGISTRY) - 2} difference(s)" in capsys.readouterr().out


def test_compare_names_a_moved_cell_by_row_and_column(
        written, tmp_path, capsys):
    document = json.loads(written.read_text())
    table = document["scenarios"][1]["table"]
    column = table["headers"].index("penalty_us")
    table["rows"][0][column] += 0.5
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["bench", "--compare", str(written), str(moved)]) == 1
    cells = [[cell.strip() for cell in line.split("|")][:2]
             for line in capsys.readouterr().out.splitlines()]
    assert ["overhead_copy_merge", "table[0].penalty_us"] in cells


def test_measure_json_emits_machine_readable_results(capsys):
    code = main(["measure", "--chain", "firewall,monitor",
                 "--systems", "nfp,onvm", "--packets", "200", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["chain"] == ["firewall", "monitor"]
    systems = [record["system"] for record in document["results"]]
    assert systems == ["NFP", "OpenNetVM"]
    for record in document["results"]:
        for key in ("latency_p50_us", "latency_p99_us", "throughput_mpps",
                    "resource_overhead", "delivered", "lost"):
            assert key in record


def test_bench_list_and_unknown_scenario(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in REGISTRY)
    with pytest.raises(SystemExit):
        main(["bench", "--only", "no_such_scenario"])
    # One budget and seed per scenario: no mode, budget or seed override.
    for retired in (["--quick"], ["--full"], ["--packets", "100"],
                    ["--seed", "2"], ["-v"]):
        with pytest.raises(SystemExit):
            main(["bench", *retired])
