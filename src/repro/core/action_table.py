"""The NF action table (AT): the orchestrator's copy of Table 2.

Maps NF type names to :class:`~repro.core.actions.ActionProfile`.  The
default table transcribes Table 2 of the paper, including the deployment
percentages derived from [Sekar et al. 2012] that weight the §4.3
parallelizability statistics (53.8% / 41.5%).

New NFs are accommodated exactly as §4.3 / §5.4 describe: operators
"generate an action profile of the NF manually or with the analysis tool
provided by NFP, and register it" -- see :meth:`ActionTable.register` and
:mod:`repro.core.inspector`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..net.fields import Field
from .actions import Action, ActionProfile, Verb

__all__ = ["ActionTable", "default_action_table", "TABLE2_ROWS"]


def _acts(
    reads: Tuple[Field, ...] = (),
    writes: Tuple[Field, ...] = (),
    adds: Tuple[Field, ...] = (),
    removes: Tuple[Field, ...] = (),
    drop: bool = False,
) -> List[Action]:
    actions = [Action(Verb.READ, f) for f in reads]
    actions += [Action(Verb.WRITE, f) for f in writes]
    actions += [Action(Verb.ADD, f) for f in adds]
    actions += [Action(Verb.REMOVE, f) for f in removes]
    if drop:
        actions.append(Action(Verb.DROP))
    return actions


# Table 2, transcribed.  (R = read, W = write columns SIP DIP SPORT DPORT
# Payload, plus the Add/Rm and Drop booleans and the deployment "%".)
TABLE2_ROWS: Dict[str, Tuple[List[Action], Optional[float]]] = {
    # Firewall (iptables, 26%): reads the 4-tuple, may drop.
    "firewall": (
        _acts(reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT), drop=True),
        0.26,
    ),
    # NIDS (NIDS cluster, 20%): reads headers + payload.
    "nids": (
        _acts(reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT, Field.PAYLOAD)),
        0.20,
    ),
    # Gateway (Cisco MGX, 19%): reads src/dst addresses.
    "gateway": (_acts(reads=(Field.SIP, Field.DIP)), 0.19),
    # Load balancer (F5/A10, 10%): rewrites addresses, reads ports.
    "loadbalancer": (
        _acts(
            reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT),
            writes=(Field.SIP, Field.DIP),
        ),
        0.10,
    ),
    # Caching (nginx, 10%): reads dst address, dst port and payload.
    "caching": (_acts(reads=(Field.DIP, Field.DPORT, Field.PAYLOAD)), 0.10),
    # VPN (OpenVPN, 7%): reads addresses, encrypts payload, adds a header.
    "vpn": (
        _acts(
            reads=(Field.SIP, Field.DIP, Field.PAYLOAD),
            writes=(Field.PAYLOAD,),
            adds=(Field.AH_HEADER,),
        ),
        0.07,
    ),
    # NAT (iptables, no % listed): rewrites the whole 4-tuple.
    "nat": (
        _acts(
            reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT),
            writes=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT),
        ),
        None,
    ),
    # Proxy (squid): rewrites dst address and payload.
    "proxy": (
        _acts(
            reads=(Field.DIP, Field.PAYLOAD),
            writes=(Field.DIP, Field.PAYLOAD),
        ),
        None,
    ),
    # Compression (Cisco IOS): rewrites payload.
    "compression": (
        _acts(reads=(Field.PAYLOAD,), writes=(Field.PAYLOAD,)),
        None,
    ),
    # Traffic shaper (linux tc): delays packets, touches nothing.
    "shaper": (_acts(), None),
    # Monitor (NetFlow): reads the 4-tuple, keeps counters.
    "monitor": (
        _acts(reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT)),
        None,
    ),
    # The paper's prototype also implements these two (§6.1); profile-wise
    # the L3 forwarder reads DIP (LPM), decrements TTL (a read-modify-
    # write) and drops expired or unroutable packets, while the IDS
    # matches the NIDS profile.  The TTL read and the drop were found by
    # the profile-audit oracle: the original transcription omitted both.
    "forwarder": (
        _acts(reads=(Field.DIP, Field.TTL), writes=(Field.TTL,), drop=True),
        None,
    ),
    "ids": (
        _acts(reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT, Field.PAYLOAD)),
        None,
    ),
    # IPS = IDS that drops on a match -- the NF of §3's Priority example.
    "ips": (
        _acts(
            reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT, Field.PAYLOAD),
            drop=True,
        ),
        None,
    ),
    # Stateful connection-tracking firewall: same externally visible
    # actions as the stateless row (reads the 4-tuple, may drop).
    "conntrack-firewall": (
        _acts(reads=(Field.SIP, Field.DIP, Field.SPORT, Field.DPORT), drop=True),
        None,
    ),
    # The VPN's far end: strips the AH and decrypts the payload.
    "vpn-decrypt": (
        _acts(
            reads=(Field.SIP, Field.DIP, Field.PAYLOAD),
            writes=(Field.PAYLOAD,),
            removes=(Field.AH_HEADER,),
            drop=True,
        ),
        None,
    ),
    # ---- Lemur-module expansion (not in Table 2; excluded from the
    # §4.3 pair statistics, which pin TABLE2_NF_SET).  Their disjoint
    # L2/tunnel footprints widen compiled graphs.
    "macswap": (
        _acts(reads=(Field.SMAC, Field.DMAC), writes=(Field.SMAC, Field.DMAC)),
        None,
    ),
    "vlan-push": (_acts(adds=(Field.VLAN_HEADER,)), None),
    "vlan-pop": (_acts(removes=(Field.VLAN_HEADER,)), None),
    "vxlan-encap": (_acts(adds=(Field.VXLAN_HEADER,)), None),
    "vxlan-decap": (
        _acts(reads=(Field.DPORT,), removes=(Field.VXLAN_HEADER,)),
        None,
    ),
    "dedup": (
        _acts(reads=(Field.PAYLOAD,), writes=(Field.DSCP,)),
        None,
    ),
}


class ActionTable:
    """Registry of NF action profiles (the orchestrator's "AT")."""

    def __init__(self):
        self._profiles: Dict[str, ActionProfile] = {}

    def register(self, profile: ActionProfile, replace: bool = False) -> None:
        """Add a profile; refuses to silently overwrite unless ``replace``."""
        if profile.name in self._profiles and not replace:
            raise ValueError(f"profile {profile.name!r} already registered")
        self._profiles[profile.name] = profile

    def fetch(self, nf_name: str) -> ActionProfile:
        """Algorithm 1's ``fetchAction(AT, NF)``."""
        try:
            return self._profiles[nf_name.lower()]
        except KeyError:
            raise KeyError(
                f"NF {nf_name!r} has no registered action profile; register "
                "one manually or via repro.core.inspector"
            ) from None

    def __contains__(self, nf_name: str) -> bool:
        return nf_name.lower() in self._profiles

    def __iter__(self) -> Iterator[ActionProfile]:
        return iter(self._profiles.values())

    def __len__(self) -> int:
        return len(self._profiles)

    def names(self) -> List[str]:
        return sorted(self._profiles)


def default_action_table() -> ActionTable:
    """A fresh :class:`ActionTable` pre-loaded with Table 2."""
    table = ActionTable()
    for name, (actions, share) in TABLE2_ROWS.items():
        table.register(ActionProfile(name, actions, deployment_share=share))
    return table
