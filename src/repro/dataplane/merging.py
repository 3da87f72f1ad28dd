"""Pure packet-merge semantics: apply merging operations to versions.

Separated from the simulated merger so both the functional executor and
the DES dataplane share one implementation of §5.3's merge process:

* ``modify(v1.A, vk.A)`` -- overwrite field A of version 1 with the
  value carried by version k;
* ``add(vk.B, after, v1.IP)`` -- splice the header unit B (AH or a
  VLAN tag) from version k into version 1;
* ``remove(v1.C)`` -- delete the header unit C from version 1.

Fields of v1 not referenced by any operation pass through unmodified;
fields of other versions not referenced are discarded -- exactly the
Fig. 6 semantics.  If any collected version is nil, the packet was
dropped by some NF and the merge yields ``None``.

A unit's bytes move through its ``repro.net`` mover (:func:`splice_ah`
/ :func:`strip_ah`, :func:`splice_vlan` / :func:`strip_vlan`), the same
code the VPN and VLAN NFs run, which drops the base's parse memo before
a later step resolves an offset on it (``Packet.parse``); the merge
stores the IPv4 checksum once, at its end.  A VXLAN stack has no mover
here: the compiler never parallelises an encapsulating NF (Algorithm
1's encapsulation guard), so no graph declares one, and a plan that
does is refused when it is built.

Strip semantics differ per unit: the AH strip is strict (the VPN
decryptor drops non-AH packets *before* its remove, so a missing AH at
merge time is a real inconsistency) while the VLAN strip tolerates an
untagged base -- a pop NF passes untagged traffic through, and the tag's
presence on the base at merge time matches what the popping NF's copy
saw at stage entry, so a no-op strip reproduces sequential behaviour
exactly.

A merge that ran any step drops the base's key memo, since a ``modify``
may have written an address or a port.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from ..net import fields as _f
from ..net.ah import splice_ah, strip_ah
from ..net.checksum import ipv4_header_checksum
from ..net.encap import splice_vlan, strip_vlan
from ..net.headers import VLAN_TAG_LEN, AhView
from ..net.packet import Packet
from ..core.graph import MergeOp, MergeOpKind, ORIGINAL_VERSION

__all__ = ["apply_merge_ops", "MergePlan", "MergeError"]

#: What ``FIELD_BYTES`` holds for a field with no fixed byte range.
_NO_RANGE = (None, 0, 0)


class MergeError(RuntimeError):
    """A merge operation could not be applied to the collected versions."""


#: ``FIELD_BYTES`` anchor -> offset of that header in ``pkt.buf``, through
#: the bounds-checked resolvers: the whole fixed header is inside the
#: buffer (so a step's byte range exists on both sides of the copy), else
#: ``ValueError`` -- on exactly the packets ``read_field`` refuses.
_ANCHOR_OFFSET = {
    "ipv4": Packet._ipv4_offset,
    "eth": lambda pkt: pkt.eth.offset,
    "l4": lambda pkt: _f._l4(pkt).offset,
}


class MergePlan:
    """A graph's (or a slice's) merge operations, compiled once.

    A ``modify`` of a byte-aligned field (``FIELD_BYTES``) becomes the
    step ``(src_version, resolve, src_slot, base_slot, lo, hi, None)``:
    copy bytes ``lo..hi`` past the header ``resolve`` finds, the slots
    memoising that offset once per version per packet.  Adjacent copies
    from one version under one anchor whose ranges touch coalesce: an
    anchor resolves or raises alike for every field under it, so the
    declared ops are skipped, refused or applied together (ARCHITECTURE
    §5).  Everything else keeps list order -- a later op still wins an
    overlap -- and DSCP, payload, add and remove stay whole:
    ``(src_version, None, 0, 0, 0, 0, op)``.
    """

    __slots__ = ("steps", "counts", "unresolved")

    def __init__(self, ops: Iterable[MergeOp]):
        counts: Dict[str, int] = {}
        #: (version, anchor) -> memo slot; slot 0, the base's IPv4 header,
        #: is the checksum update's too.
        slots = {(ORIGINAL_VERSION, "ipv4"): 0}
        steps: list = []
        anchored = None  # the anchor of ``steps[-1]``, when it is a copy
        for op in ops:
            name = f"merge.ops.{op.kind.value}"
            counts[name] = counts.get(name, 0) + 1
            if op.kind is not MergeOpKind.MODIFY and op.field not in (
                    _SPLICE if op.kind is MergeOpKind.ADD else _STRIP):
                raise MergeError(f"cannot {op.kind.value} header unit {op.field}")
            src = op.src_version
            anchor, lo, length = (
                _f.FIELD_BYTES.get(op.field, _NO_RANGE)
                if op.kind is MergeOpKind.MODIFY else _NO_RANGE)
            hi = lo + length
            last = steps[-1] if anchor is not None and anchor == anchored else None
            if anchor is None:
                steps.append([src, None, 0, 0, 0, 0, op])
            elif last and last[0] == src and (lo == last[5] or hi == last[4]):
                last[4:6] = min(lo, last[4]), max(hi, last[5])
            else:
                steps.append([src, _ANCHOR_OFFSET[anchor],
                              slots.setdefault((src, anchor), len(slots)),
                              slots.setdefault((ORIGINAL_VERSION, anchor),
                                               len(slots)), lo, hi, None])
            anchored = anchor
        self.steps = tuple(map(tuple, steps))
        #: ``merge.ops.<kind>`` -> declared operations of that kind.
        self.counts = tuple(counts.items())
        #: The memo with nothing resolved (copied per packet).
        self.unresolved = [None] * len(slots)


def apply_merge_ops(
    versions: Dict[int, Packet],
    ops: Union[MergePlan, Iterable[MergeOp]],
    telemetry=None,
) -> Optional[Packet]:
    """Merge packet ``versions`` into the final output packet.

    ``versions`` maps version number -> the processed packet copy; it
    must contain version 1.  Returns the merged packet (version 1's
    buffer, modified in place), or ``None`` when any version is nil.
    ``ops`` is the :class:`MergePlan` compiled at install, or plain
    operations (compiled here, for one-off callers).

    ``telemetry`` is an optional :class:`repro.telemetry.TelemetryHub`;
    when enabled, the declared operations are counted per kind under
    ``merge.ops.*``.
    """
    if ORIGINAL_VERSION not in versions:
        raise MergeError("version 1 missing from merge set")
    for pkt in versions.values():
        if pkt.nil:
            return None

    plan = ops if ops.__class__ is MergePlan else MergePlan(ops)
    if telemetry is not None and telemetry.enabled:
        for name, count in plan.counts:
            telemetry.inc(name, count)
    base = versions[ORIGINAL_VERSION]
    # Resolved header offsets by slot, forgotten whenever a whole
    # operation may have moved the base's headers.
    offsets = plan.unresolved[:]
    checksum_dirty = False
    for src, resolve, src_slot, base_slot, lo, hi, op in plan.steps:
        if resolve is None:
            checksum_dirty |= _apply_whole(base, versions, op)
            offsets = plan.unresolved[:]
            continue
        source = versions.get(src)
        if source is None:
            source = _require(versions, src)
        at = offsets[src_slot]
        if at is None:
            # A field the writer's copy cannot even parse (e.g. ports on
            # an ICMP packet reaching a NAT that passes non-TCP/UDP
            # through) cannot have been written; skip, mirroring the
            # sequential no-op.  A base that cannot take it is an error.
            try:
                at = offsets[src_slot] = resolve(source)
            except ValueError:
                continue
        to = offsets[base_slot]
        if to is None:
            to = offsets[base_slot] = resolve(base)
        base.buf[to + lo : to + hi] = source.buf[at + lo : at + hi]
        if base_slot == 0:
            checksum_dirty = True
    if plan.steps:
        base.memo_key = None
    if checksum_dirty:
        to = offsets[0]
        ipv4_header_checksum(base.buf, base._ipv4_offset() if to is None else to)
    return base


def _apply_whole(base: Packet, versions: Dict[int, Packet], op: MergeOp) -> bool:
    """One operation with no byte range; True when it dirtied the checksum."""
    if op.kind is MergeOpKind.MODIFY:
        source = _require(versions, op.src_version)
        try:
            value = _f.read_field(source, op.field)
        except ValueError:  # the writer's copy cannot parse it: skip
            return False
        _f.write_field(base, op.field, value)
        return op.field is _f.Field.DSCP
    if op.kind is MergeOpKind.ADD:
        _SPLICE[op.field](base, _require(versions, op.src_version))
    else:
        _STRIP[op.field](base)
    return op.field is _f.Field.AH_HEADER


def _require(versions: Dict[int, Packet], version: Optional[int]) -> Packet:
    try:
        return versions[version]
    except KeyError:
        raise MergeError(f"merge needs version {version}, not collected") from None


# ------------------------------------------------ the units' merge wrappers
def _splice_ah(base: Packet, source: Packet) -> None:
    """Copy the AH unit from ``source`` into ``base`` after the IP header,
    in place of one the base already carries (a second VPN hop refreshes
    the existing header on its copy instead of stacking another)."""
    if not source.has_ah:
        raise MergeError("source version carries no AH to splice")
    at = source._ipv4_offset()
    at += (source.buf[at] & 0x0F) * 4
    splice_ah(base, bytes(source.buf[at : at + AhView.HEADER_LEN]),
              base._ipv4_offset())


def _strip_ah(base: Packet) -> None:
    if not base.has_ah:
        raise MergeError("base carries no AH to remove")
    strip_ah(base, base._ipv4_offset())


def _splice_vlan(base: Packet, source: Packet) -> None:
    """Copy the 802.1Q tag from ``source`` into ``base`` (replace or insert)."""
    if not source.has_vlan:
        raise MergeError("source version carries no VLAN tag to splice")
    splice_vlan(base, bytes(source.buf[12 : 12 + VLAN_TAG_LEN]))


def _strip_vlan(base: Packet) -> None:
    """Pop the tag; tolerant no-op when the base is untagged (see module doc)."""
    if base.has_vlan:
        strip_vlan(base)


#: Header unit -> how to copy it from a source into the base / remove it.
_SPLICE = {_f.Field.AH_HEADER: _splice_ah, _f.Field.VLAN_HEADER: _splice_vlan}
_STRIP = {_f.Field.AH_HEADER: _strip_ah, _f.Field.VLAN_HEADER: _strip_vlan}
