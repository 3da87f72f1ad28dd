"""The per-op merge interpreter: the differential oracle for the merge plan.

Until the byte-range plan (``repro.dataplane.merging.MergePlan``) landed,
``apply_merge_ops`` walked the declared operations one by one for every
packet: each ``modify`` of a byte-aligned field resolved its span on the
source *and* on the base (``field_span`` -> ``_ipv4_offset`` / a header
view), looked the field up in two enum-keyed tables, and tracked
checksum dirtiness as it went.  This module is that loop and its
``field_span`` and header-unit dispatch, moved verbatim from ``src/``;
a unit's bytes move through the ``repro.net`` movers the NFs call, and,
as the loop did, an AH splice or strip stores the IPv4 checksum at once
(the plan stores it once, at the end of the merge).

It favours being obviously the old behaviour over speed, and is what
``tests/property/test_merge_plan_differential.py`` holds the plan to:
same bytes, the same ``None``, or the same exception type.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.graph import MergeOp, MergeOpKind, ORIGINAL_VERSION
from repro.dataplane.merging import MergeError, _require
from repro.net import fields as _f
from repro.net.ah import splice_ah, strip_ah
from repro.net.encap import splice_vlan, strip_vlan
from repro.net.headers import VLAN_TAG_LEN, AhView
from repro.net.fields import FIELD_BYTES, Field, _l4
from repro.net.packet import Packet

__all__ = ["apply_merge_ops_reference", "field_span"]

#: Modifying any of these fields invalidates the IPv4 header checksum.
_IP_FIELDS = {_f.Field.SIP, _f.Field.DIP, _f.Field.TTL, _f.Field.DSCP}


def apply_merge_ops_reference(
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
                span = field_span(source, op.field)
                if span is None:
                    value = _f.read_field(source, op.field)
            except ValueError:
                continue
            if span is None:
                _f.write_field(base, op.field, value)
            else:
                base.buf[field_span(base, op.field)] = source.buf[span]
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


def _splice_header(base: Packet, source: Packet, field) -> None:
    """Copy a header unit from ``source`` into ``base``."""
    if field is _f.Field.AH_HEADER:
        if not source.has_ah:
            raise MergeError("source version carries no AH to splice")
        ip = source.ipv4
        start = ip.offset + ip.header_len
        splice_ah(base, bytes(source.buf[start : start + AhView.HEADER_LEN]),
                  base.ipv4.offset)
        base.ipv4.update_checksum()
    elif field is _f.Field.VLAN_HEADER:
        if not source.has_vlan:
            raise MergeError("source version carries no VLAN tag to splice")
        splice_vlan(base, bytes(source.buf[12 : 12 + VLAN_TAG_LEN]))
    else:
        raise MergeError(f"cannot splice header unit {field}")


def _strip_header(base: Packet, field) -> None:
    """Remove a header unit from ``base``."""
    if field is _f.Field.AH_HEADER:
        if not base.has_ah:
            raise MergeError("base carries no AH to remove")
        strip_ah(base, base.ipv4.offset)
        base.ipv4.update_checksum()
    elif field is _f.Field.VLAN_HEADER:
        if base.has_vlan:
            strip_vlan(base)
    else:
        raise MergeError(f"cannot strip header unit {field}")


def field_span(pkt: Packet, field: Field) -> Optional[slice]:
    """Where a byte-aligned ``field`` lives in ``pkt.buf``.

    ``None`` for a field with no fixed byte range; ``ValueError`` on
    exactly the packets :func:`read_field` refuses.  Assigning one
    packet's span to another's is ``write_field(read_field())`` without
    the detour through a Python value.
    """
    entry = FIELD_BYTES.get(field)
    if entry is None:
        return None
    anchor, offset, length = entry
    if anchor == "ipv4":
        start = pkt._ipv4_offset() + offset
    else:
        start = (pkt.eth if anchor == "eth" else _l4(pkt)).offset + offset
    return slice(start, start + length)
