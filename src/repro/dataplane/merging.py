"""Pure packet-merge semantics: apply merging operations to versions.

Separated from the simulated merger so both the functional executor and
the DES dataplane share one implementation of §5.3's merge process:

* ``modify(v1.A, vk.A)`` -- overwrite field A of version 1 with the
  value carried by version k;
* ``add(vk.B, after, v1.IP)`` -- splice the header unit B (AH, a VLAN
  tag, or a VXLAN outer stack) from version k into version 1;
* ``remove(v1.C)`` -- delete the header unit C from version 1.

Fields of v1 not referenced by any operation pass through unmodified;
fields of other versions not referenced are discarded -- exactly the
Fig. 6 semantics.  If any collected version is nil, the packet was
dropped by some NF and the merge yields ``None``.

Strip semantics differ per unit: the AH strip is strict (the VPN
decryptor drops non-AH packets *before* its remove, so a missing AH at
merge time is a real inconsistency) while VLAN/VXLAN strips tolerate an
absent unit -- pop/decap NFs pass untagged/non-tunnel traffic through,
and unit presence on the base at merge time matches what the popping
NF's copy saw at stage entry, so a no-op strip reproduces sequential
behaviour exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..net import fields as _f
from ..net.encap import VXLAN_OUTER_LEN, is_vxlan
from ..net.headers import (
    ETH_HEADER_LEN,
    PROTO_AH,
    UdpView,
    VLAN_TAG_LEN,
    AhView,
    Ipv4View,
)
from ..net.packet import Packet
from ..core.graph import MergeOp, MergeOpKind, ORIGINAL_VERSION

__all__ = ["apply_merge_ops", "MergeError"]


class MergeError(RuntimeError):
    """A merge operation could not be applied to the collected versions."""


#: Modifying any of these fields invalidates the IPv4 header checksum.
_IP_FIELDS = {_f.Field.SIP, _f.Field.DIP, _f.Field.TTL, _f.Field.DSCP}


def apply_merge_ops(
    versions: Dict[int, Packet], ops: Iterable[MergeOp], telemetry=None
) -> Optional[Packet]:
    """Merge packet ``versions`` into the final output packet.

    ``versions`` maps version number -> the processed packet copy; it
    must contain version 1.  Returns the merged packet (version 1's
    buffer, modified in place), or ``None`` when any version is nil.

    ``telemetry`` is an optional :class:`repro.telemetry.TelemetryHub`;
    when enabled, applied operations are counted per kind under
    ``merge.ops.*``.
    """
    if ORIGINAL_VERSION not in versions:
        raise MergeError("version 1 missing from merge set")
    if any(pkt.nil for pkt in versions.values()):
        return None

    count_ops = telemetry is not None and telemetry.enabled
    base = versions[ORIGINAL_VERSION]
    checksum_dirty = False
    for op in ops:
        if count_ops:
            telemetry.inc(f"merge.ops.{op.kind.value}")
        if op.kind is MergeOpKind.MODIFY:
            source = _require(versions, op.src_version)
            # A field the writer's copy cannot even parse (e.g. ports on
            # an ICMP packet reaching a NAT that passes non-TCP/UDP
            # through) cannot have been written; skip, mirroring the
            # sequential no-op.  A base that cannot take it is an error.
            try:
                span = _f.field_span(source, op.field)
                if span is None:
                    value = _f.read_field(source, op.field)
            except ValueError:
                continue
            if span is None:
                _f.write_field(base, op.field, value)
            else:
                base.buf[_f.field_span(base, op.field)] = source.buf[span]
            if op.field in _IP_FIELDS:
                checksum_dirty = True
        elif op.kind is MergeOpKind.ADD:
            source = _require(versions, op.src_version)
            _splice_header(base, source, op.field)
        elif op.kind is MergeOpKind.REMOVE:
            _strip_header(base, op.field)
        else:  # pragma: no cover - enum is closed
            raise MergeError(f"unknown merge op kind: {op.kind}")
    if checksum_dirty:
        base.ipv4.update_checksum()
    return base


def _require(versions: Dict[int, Packet], version: Optional[int]) -> Packet:
    try:
        return versions[version]
    except KeyError:
        raise MergeError(f"merge needs version {version}, not collected") from None


def _splice_header(base: Packet, source: Packet, field) -> None:
    """Copy a header unit from ``source`` into ``base``."""
    if field is _f.Field.AH_HEADER:
        _splice_ah(base, source)
    elif field is _f.Field.VLAN_HEADER:
        _splice_vlan(base, source)
    elif field is _f.Field.VXLAN_HEADER:
        _splice_vxlan(base, source)
    else:
        raise MergeError(f"cannot splice header unit {field}")


def _strip_header(base: Packet, field) -> None:
    """Remove a header unit from ``base``."""
    if field is _f.Field.AH_HEADER:
        _strip_ah(base)
    elif field is _f.Field.VLAN_HEADER:
        _strip_vlan(base)
    elif field is _f.Field.VXLAN_HEADER:
        _strip_vxlan(base)
    else:
        raise MergeError(f"cannot strip header unit {field}")


# ----------------------------------------------------------------- AH unit
def _splice_ah(base: Packet, source: Packet) -> None:
    """Copy the AH unit from ``source`` into ``base`` after the IP header.

    When the base already carries an AH (e.g. a second VPN hop refreshed
    the existing header on its copy instead of stacking another), the
    unit is replaced in place rather than inserted.
    """
    if not source.has_ah:
        raise MergeError("source version carries no AH to splice")
    src_ip = source.ipv4
    src_off = source.l3_offset + src_ip.header_len
    ah_bytes = bytes(source.buf[src_off : src_off + AhView.HEADER_LEN])

    ip = base.ipv4
    ip_end = base.l3_offset + ip.header_len
    if base.has_ah:
        base.buf[ip_end : ip_end + AhView.HEADER_LEN] = ah_bytes
        return
    base.buf[ip_end:ip_end] = ah_bytes
    ip = base.ipv4
    ip.protocol = PROTO_AH
    ip.total_length = ip.total_length + AhView.HEADER_LEN
    ip.update_checksum()
    base.wire_len += AhView.HEADER_LEN


def _strip_ah(base: Packet) -> None:
    if not base.has_ah:
        raise MergeError("base carries no AH to remove")
    ip = base.ipv4
    ip_end = base.l3_offset + ip.header_len
    ah = AhView(base.buf, ip_end)
    next_header = ah.next_header
    del base.buf[ip_end : ip_end + AhView.HEADER_LEN]
    ip = base.ipv4
    ip.protocol = next_header
    ip.total_length = ip.total_length - AhView.HEADER_LEN
    ip.update_checksum()
    base.wire_len -= AhView.HEADER_LEN


# --------------------------------------------------------------- VLAN unit
def _splice_vlan(base: Packet, source: Packet) -> None:
    """Copy the 802.1Q tag from ``source`` into ``base`` (replace or insert)."""
    if not source.has_vlan:
        raise MergeError("source version carries no VLAN tag to splice")
    tag = bytes(source.buf[12 : 12 + VLAN_TAG_LEN])
    if base.has_vlan:
        base.buf[12 : 12 + VLAN_TAG_LEN] = tag
        return
    base.buf[12:12] = tag
    base.wire_len += VLAN_TAG_LEN


def _strip_vlan(base: Packet) -> None:
    """Pop the tag; tolerant no-op when the base is untagged (see module doc)."""
    if not base.has_vlan:
        return
    del base.buf[12 : 12 + VLAN_TAG_LEN]
    base.wire_len -= VLAN_TAG_LEN


# -------------------------------------------------------------- VXLAN unit
def _splice_vxlan(base: Packet, source: Packet) -> None:
    """Prepend the outer stack from ``source`` around ``base``.

    The outer IPv4/UDP lengths are *recomputed* from the base's inner
    frame length (the source version may be a truncated header-only
    copy whose lengths don't describe the base's payload).
    """
    if not is_vxlan(source):
        raise MergeError("source version carries no VXLAN outer stack to splice")
    if is_vxlan(base):
        # Refresh the existing outer stack in place (mirrors the AH
        # replace branch: the encap NF rewrote its copy's outer).
        inner_len = len(base.buf) - VXLAN_OUTER_LEN
        base.buf[0:VXLAN_OUTER_LEN] = source.buf[0:VXLAN_OUTER_LEN]
    else:
        inner_len = len(base.buf)
        base.buf[0:0] = source.buf[0:VXLAN_OUTER_LEN]
        base.wire_len += VXLAN_OUTER_LEN
    ip = Ipv4View(base.buf, ETH_HEADER_LEN)
    ip.total_length = VXLAN_OUTER_LEN - ETH_HEADER_LEN + inner_len
    udp = UdpView(base.buf, ETH_HEADER_LEN + Ipv4View.HEADER_LEN)
    udp.length = VXLAN_OUTER_LEN - ETH_HEADER_LEN - Ipv4View.HEADER_LEN + inner_len
    ip.update_checksum()


def _strip_vxlan(base: Packet) -> None:
    """Drop the outer stack; tolerant no-op for non-tunnel traffic."""
    if not is_vxlan(base):
        return
    del base.buf[0:VXLAN_OUTER_LEN]
    base.wire_len -= VXLAN_OUTER_LEN
