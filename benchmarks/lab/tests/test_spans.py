"""Span-tree arithmetic: self time, shares, nesting, packet inheritance."""

import os
import sys

import pytest

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "../../..")))

from benchmarks.lab.spans import LAYERS, SpanRecorder, count_calls, layer_of  # noqa: E402


def test_self_time_is_duration_minus_direct_children():
    rec = SpanRecorder()
    root = rec.add("dataplane.walk", 0.0, 10.0)
    rec.add("nfs.ids", 1.0, 4.0, parent=root)
    merge = rec.add("dataplane.merge", 5.0, 9.0, parent=root)
    rec.add("net.fields.five_tuple", 6.0, 8.0, parent=merge)
    assert rec.self_times() == [3.0, 3.0, 2.0, 2.0]
    assert rec.root_time() == 10.0
    table = rec.by_name()
    assert table["dataplane.merge"] == (1, 4.0, 2.0)
    shares = rec.layer_shares()
    assert shares["dataplane"] == pytest.approx(0.5)
    assert shares["nfs"] == pytest.approx(0.3)
    assert shares["net.fields"] == pytest.approx(0.2)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert set(shares) == set(LAYERS)


def test_shares_sum_to_one_over_several_roots():
    rec = SpanRecorder()
    for start in (0.0, 10.0):
        run = rec.add("sim.run", start, start + 4.0)
        rec.add("traffic.next_packet", start + 1.0, start + 2.0, parent=run)
    shares = rec.layer_shares()
    assert shares["sim"] == pytest.approx(0.75)
    assert shares["traffic"] == pytest.approx(0.25)


def test_layer_of_longest_prefix():
    assert layer_of("net.copy.header") == "net.copy"
    assert layer_of("nfs.firewall") == "nfs"
    assert layer_of("sim.run") == "sim"
    with pytest.raises(ValueError):
        layer_of("elsewhere.thing")


def test_wrap_records_nesting_and_inherits_packet_id():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    class Thing:
        uid = 42

    inner = rec.wrap("net.fields.five_tuple", lambda: "tuple")
    outer = rec.wrap(lambda thing: "nfs.demo", lambda thing: inner(),
                     packet_of=lambda thing: thing.uid)
    assert outer(Thing()) == "tuple"
    (o_name, o_start, o_end, o_parent, o_pkt), (i_name, i_start, i_end, i_parent, i_pkt) = rec.spans
    assert rec.names[o_name] == "nfs.demo" and rec.names[i_name] == "net.fields.five_tuple"
    assert (o_parent, i_parent) == (-1, 0)
    assert o_start < i_start < i_end < o_end
    assert (o_pkt, i_pkt) == (42, 42)


def test_wrap_closes_the_span_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("nfs.boom", boom)()
    assert rec.spans[0][2] >= rec.spans[0][1]
    rec.wrap("nfs.after", lambda: None)()
    assert rec.spans[1][3] == -1  # the stack was unwound


def test_patch_and_uninstall_restore_the_original():
    class Target:
        def method(self):
            return 1

    original = Target.__dict__["method"]
    rec = SpanRecorder()
    rec.patch_method(Target, "method", "sim.method")
    assert Target().method() == 1 and len(rec.spans) == 1
    rec.uninstall()
    assert Target.__dict__["method"] is original


def test_count_calls_is_exact():
    def leaf():
        return len("abc")  # one C call

    def work():
        leaf()
        leaf()

    # work + 2 x (leaf + len) = 5, and the lambda that calls work = 6.
    assert count_calls(lambda: work()) == 6
    assert count_calls(lambda: work()) == 6
