"""The per-op merge interpreter: the differential oracle for the merge plan.

Until the byte-range plan (``repro.dataplane.merging.MergePlan``) landed,
``apply_merge_ops`` walked the declared operations one by one for every
packet: each ``modify`` of a byte-aligned field resolved its span on the
source *and* on the base (``field_span`` -> ``_ipv4_offset`` / a header
view), looked the field up in two enum-keyed tables, and tracked
checksum dirtiness as it went.  This module is that loop and its
``field_span`` and header-unit dispatch, moved verbatim from ``src/``
(the per-unit splice / strip helpers were not changed and are imported).

It favours being obviously the old behaviour over speed, and is what
``tests/property/test_merge_plan_differential.py`` holds the plan to:
same bytes, the same ``None``, or the same exception type.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.graph import MergeOp, MergeOpKind, ORIGINAL_VERSION
from repro.dataplane.merging import (
    MergeError,
    _require,
    _splice_ah,
    _splice_vlan,
    _splice_vxlan,
    _strip_ah,
    _strip_vlan,
    _strip_vxlan,
)
from repro.net import fields as _f
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
