"""Unit tests for the CLI and the terminal plot renderer."""

import pytest

from repro.cli import main
from repro.eval.plots import HEIGHT, WIDTH, ascii_plot


# ------------------------------------------------------------------ plots
def test_ascii_plot_renders_series_and_legend():
    chart = ascii_plot(
        {"up": [(0, 0), (10, 10)], "down": [(0, 10), (10, 0)]},
        title="t", x_label="x", y_label="y",
    )
    assert "t" in chart
    assert "*=up" in chart and "o=down" in chart
    assert "10.0" in chart and "0.0" in chart
    # Every canvas row is prefixed and the axis line is present.
    assert chart.count("|") >= HEIGHT
    assert "+" + "-" * WIDTH in chart


def test_ascii_plot_flat_series():
    chart = ascii_plot({"flat": [(0, 5), (10, 5)]})
    assert "*" in chart


def test_ascii_plot_validation():
    with pytest.raises(ValueError):
        ascii_plot({})
    with pytest.raises(ValueError):
        ascii_plot({"x": []})


# -------------------------------------------------------------------- CLI
def test_cli_compile_chain(capsys):
    assert main(["compile", "--chain", "vpn,monitor,firewall,loadbalancer"]) == 0
    out = capsys.readouterr().out
    assert "vpn -> (firewall | monitor) -> loadbalancer" in out
    assert "equivalent length: 3" in out


def test_cli_compile_verbose_prints_tables(capsys):
    assert main(["compile", "--chain", "ids,monitor,loadbalancer", "-v"]) == 0
    out = capsys.readouterr().out
    assert "pairwise verdicts" in out
    assert "CT:" in out and "FT[" in out


def test_cli_compile_policy_file(tmp_path, capsys):
    policy = tmp_path / "p.nfp"
    policy.write_text("Order(firewall, before, monitor)\n")
    assert main(["compile", "--policy", str(policy)]) == 0
    assert "(firewall | monitor)" in capsys.readouterr().out


def test_cli_compile_requires_input():
    with pytest.raises(SystemExit):
        main(["compile"])


def test_cli_measure(capsys):
    assert main(["measure", "--chain", "firewall", "--packets", "300",
                 "--systems", "nfp,bess"]) == 0
    out = capsys.readouterr().out
    assert "NFP" in out and "BESS" in out and "Mpps" in out


def test_cli_measure_unknown_system():
    with pytest.raises(SystemExit):
        main(["measure", "--chain", "firewall", "--systems", "warpdrive"])


def test_cli_pairs(capsys):
    assert main(["pairs"]) == 0
    out = capsys.readouterr().out
    assert "not parallelizable" in out
    assert "53.80" in out  # paper reference column


def test_cli_sweep_degree(capsys):
    assert main(["sweep", "degree", "--packets", "300"]) == 0
    out = capsys.readouterr().out
    assert "parallelism degree" in out
    assert "*=sequential" in out


def test_cli_replay_pcap(tmp_path, capsys):
    from repro.net import read_pcap, write_pcap
    from repro.traffic import FlowGenerator

    packets = FlowGenerator(num_flows=4, seed=5).packets(12)
    for index, pkt in enumerate(packets):
        pkt.ingress_us = index * 5.0
    src = tmp_path / "in.pcap"
    dst = tmp_path / "out.pcap"
    write_pcap(src, packets)

    assert main(["replay", "--chain", "firewall,monitor",
                 "--input", str(src), "--output", str(dst)]) == 0
    out = capsys.readouterr().out
    assert "emitted : 12" in out
    restored = read_pcap(dst)
    assert len(restored) == 12
    # Timestamps survive the round trip.
    assert restored[3][0] == 15.0


def test_cli_breakdown(capsys):
    assert main(["breakdown", "--chain", "firewall,monitor",
                 "--packets", "300"]) == 0
    out = capsys.readouterr().out
    assert "segment" in out and "share %" in out
    assert "stage 0" in out
