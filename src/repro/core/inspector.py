"""The NF action inspector (§5.4): derive action profiles from NF code.

The paper ships "an inspection tool ... that can inspect NF codes to find
the usage of interfaces that operate on packets, including reading,
writing, dropping and adding/removing bits", so operators can register
new NFs without hand-writing Table 2 rows.  The paper's tool analyses
DPDK packet-struct accesses in C; ours statically analyses Python NF
source with :mod:`ast`, recognising this repository's packet API:

===============================================  =======================
Pattern in NF source                             Derived action
===============================================  =======================
``pkt.ipv4.src_ip`` (load)                       Read(SIP)
``pkt.ipv4.src_ip = ...`` (store)                Write(SIP)
``pkt.tcp.dst_port`` / ``pkt.udp.dst_port``      Read/Write(DPORT)
``pkt.ipv4.ttl`` / ``.dscp``                     Read/Write(TTL/DSCP)
``pkt.payload`` (load)                           Read(PAYLOAD)
``pkt.set_payload(...)``                         Write(PAYLOAD)
``ctx.drop()`` / ``self.drop_packet(...)``       Drop
``pkt.eth.src_mac`` / ``.dst_mac``               Read/Write(SMAC/DMAC)
``insert_ah(pkt, ...)``                          Add(AH_HEADER)
``remove_ah(pkt, ...)``                          Remove(AH_HEADER)
``insert_vlan`` / ``remove_vlan``                Add/Remove(VLAN_HEADER)
``vxlan_encap`` / ``vxlan_decap``                Add/Remove(VXLAN_HEADER)
``pkt.flow_key()`` / ``port_key()`` / ...       Read(SIP,DIP,SPORT,DPORT)
``rec.record("write", Field.DIP, ...)``          Write(DIP) -- and "read"
===============================================  =======================

Augmented assignments (``pkt.ipv4.ttl -= 1``) count as read+write.
"""

from __future__ import annotations

import ast
import inspect as _inspect
import textwrap
from typing import Optional, Set, Union

from ..net.fields import Field
from .actions import Action, ActionProfile, Verb

__all__ = ["inspect_nf_source", "inspect_nf", "InspectionError"]


class InspectionError(ValueError):
    """Raised when NF source cannot be parsed/analysed."""


# Attribute name -> field, for the header-view properties.
_ATTR_FIELDS = {
    "src_ip": Field.SIP,
    "src_ip_int": Field.SIP,
    "dst_ip": Field.DIP,
    "dst_ip_int": Field.DIP,
    "src_port": Field.SPORT,
    "dst_port": Field.DPORT,
    "ttl": Field.TTL,
    "dscp": Field.DSCP,
    "payload": Field.PAYLOAD,
    "src_mac": Field.SMAC,
    "dst_mac": Field.DMAC,
}

# Structural helper call -> (verb, field unit).
_STRUCTURAL_CALLS = {
    "insert_ah": (Verb.ADD, Field.AH_HEADER),
    "remove_ah": (Verb.REMOVE, Field.AH_HEADER),
    "insert_vlan": (Verb.ADD, Field.VLAN_HEADER),
    "remove_vlan": (Verb.REMOVE, Field.VLAN_HEADER),
    "vxlan_encap": (Verb.ADD, Field.VXLAN_HEADER),
    "vxlan_decap": (Verb.REMOVE, Field.VXLAN_HEADER),
}

_FIVE_TUPLE_FIELDS = (Field.SIP, Field.DIP, Field.SPORT, Field.DPORT)
#: The ``Packet`` methods that read the five-tuple (``Packet._flow``).
_FLOW_KEY_CALLS = frozenset({"flow_key", "port_key", "five_tuple"})


class _ActionCollector(ast.NodeVisitor):
    """Walks an AST and accumulates packet actions."""

    def __init__(self):
        self.actions: Set[Action] = set()

    # -- attribute loads/stores ------------------------------------------
    def _field_of(self, node: ast.Attribute) -> Optional[Field]:
        return _ATTR_FIELDS.get(node.attr)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        field = self._field_of(node)
        if field is not None:
            if isinstance(node.ctx, ast.Load):
                self.actions.add(Action(Verb.READ, field))
            elif isinstance(node.ctx, ast.Store):
                self.actions.add(Action(Verb.WRITE, field))
            elif isinstance(node.ctx, ast.Del):  # pragma: no cover - odd NF
                self.actions.add(Action(Verb.WRITE, field))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # x.ttl -= 1 reads and writes.
        if isinstance(node.target, ast.Attribute):
            field = self._field_of(node.target)
            if field is not None:
                self.actions.add(Action(Verb.READ, field))
                self.actions.add(Action(Verb.WRITE, field))
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = self._callee_name(node)
        if name == "set_payload":
            self.actions.add(Action(Verb.WRITE, Field.PAYLOAD))
        elif name in ("drop", "drop_packet"):
            self.actions.add(Action(Verb.DROP))
        elif name in _STRUCTURAL_CALLS:
            verb, field = _STRUCTURAL_CALLS[name]
            self.actions.add(Action(verb, field))
        elif name in _FLOW_KEY_CALLS:
            for field in _FIVE_TUPLE_FIELDS:
                self.actions.add(Action(Verb.READ, field))
        elif name == "record":
            action = self._recorded_action(node)
            if action is not None:
                self.actions.add(action)
        self.generic_visit(node)

    @staticmethod
    def _recorded_action(node: ast.Call) -> Optional[Action]:
        """``rec.record("write", Field.DIP, ...)``: an NF that stores raw
        bytes tells the recorder which field it wrote; so does its code."""
        if len(node.args) < 2:
            return None
        verb, field = node.args[:2]
        if (isinstance(verb, ast.Constant) and verb.value in ("read", "write")
                and isinstance(field, ast.Attribute)
                and isinstance(field.value, ast.Name)
                and field.value.id == "Field"
                and field.attr in Field.__members__):
            return Action(Verb(verb.value), Field[field.attr])
        return None

    @staticmethod
    def _callee_name(node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return ""


def inspect_nf_source(source: str, name: str) -> ActionProfile:
    """Analyse NF source text and return its action profile."""
    try:
        tree = ast.parse(textwrap.dedent(source))
    except SyntaxError as exc:
        raise InspectionError(f"cannot parse NF source for {name!r}: {exc}") from exc
    collector = _ActionCollector()
    collector.visit(tree)
    return ActionProfile(name, collector.actions)


def inspect_nf(
    nf: Union[type, object, callable],
    name: Optional[str] = None,
) -> ActionProfile:
    """Analyse a live NF class/instance/function.

    For classes and instances, all methods are analysed (an NF may touch
    packets outside ``process``).
    """
    target = nf if _inspect.isclass(nf) or _inspect.isfunction(nf) else type(nf)
    try:
        source = _inspect.getsource(target)
    except (OSError, TypeError) as exc:
        raise InspectionError(f"cannot fetch source of {target!r}: {exc}") from exc
    profile_name = name or getattr(target, "KIND", None) or target.__name__.lower()
    return inspect_nf_source(source, profile_name)
