"""Processing blocks: OpenBox-style modular NF building blocks (§7).

"OpenBox decomposes NFs into building blocks, many of which share no
dependencies.  Therefore, NFP can be used here to exploit block level
parallelism."  A :class:`Block` is a named processing step with an
action profile (reusing the orchestrator's action model, so Algorithm 1
applies unchanged at block granularity) and a calibrated cost.

The standard blocks below are those of Fig. 15: ReadPackets,
HeaderClassifier, DPI, Alert, Drop and Output.
"""

from __future__ import annotations

from typing import Iterable

from ..core.actions import Action, ActionProfile, Verb
from ..net.fields import Field

__all__ = [
    "Block",
    "read_packets",
    "header_classifier",
    "dpi",
    "alert",
    "drop",
    "output",
]


class Block:
    """One building block: name, action profile, per-packet cost.

    ``depends_on`` lists base names of blocks whose *verdict* this block
    consumes (control dependencies).  OpenBox graphs encode these as
    edges; NFP's block-level parallelism must respect them in addition
    to the data-action analysis -- a Drop that acts on the DPI verdict
    cannot run beside the DPI, even though their packet actions commute.
    """

    __slots__ = ("name", "profile", "cost_us", "depends_on")

    def __init__(
        self,
        name: str,
        actions: Iterable[Action],
        cost_us: float,
        depends_on: Iterable[str] = (),
    ):
        if cost_us < 0:
            raise ValueError("block cost must be non-negative")
        self.name = name
        self.profile = ActionProfile(name, actions)
        self.cost_us = cost_us
        self.depends_on = frozenset(depends_on)

    def equivalent(self, other: "Block") -> bool:
        """Two blocks are shareable when they do the same work.

        OpenBox merges "common building blocks"; we treat blocks with
        the same name prefix (before any ``#instance`` suffix) and the
        same action profile as common.
        """
        return (
            self.base_name == other.base_name
            and self.profile.actions == other.profile.actions
        )

    @property
    def base_name(self) -> str:
        return self.name.split("#", 1)[0]

    def __repr__(self) -> str:
        return f"Block({self.name})"


def read_packets() -> Block:
    """Pull the packet in; no field semantics."""
    return Block("read_packets", [], 0.5)


def header_classifier() -> Block:
    """Match the 5-tuple against rules (read-only header access)."""
    return Block(
        "header_classifier",
        [Action(Verb.READ, f) for f in (Field.SIP, Field.DIP, Field.SPORT, Field.DPORT)],
        1.5,
        depends_on=("read_packets",),
    )


def dpi() -> Block:
    """Deep packet inspection: reads the payload."""
    return Block(
        "dpi",
        [Action(Verb.READ, Field.PAYLOAD)],
        12.0,
        depends_on=("header_classifier",),
    )


def alert(owner: str, depends_on: Iterable[str] = ()) -> Block:
    """Raise an alert on a verdict; tagged with the owning NF."""
    return Block(f"alert#{owner}", [], 1.0, depends_on=depends_on)


def drop(depends_on: Iterable[str] = ("header_classifier",)) -> Block:
    """Drop the packet on a classifier/DPI verdict."""
    return Block("drop", [Action(Verb.DROP)], 0.3, depends_on=depends_on)


def output() -> Block:
    """Emit the packet."""
    return Block("output", [], 0.5, depends_on=("drop",))
