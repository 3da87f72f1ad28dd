"""Random-but-valid case generation for the differential fuzzer.

Policies are drawn over several shapes (flat chains, chains with extra
Order edges, branching DAG micrographs, Priority pairs, Position pins),
action profiles are optionally perturbed with *sound* tweaks (added
reads / added drop declarations, which can only make the compiler more
conservative), and traffic mixes benign flows with the adversarial
flavours the dataplane has to get right: ACL-deny sources, IDS signature
payloads, max-MTU and minimum-size frames, ICMP (NAT's drop path),
fragments, flow collisions, and UDP.

Every generated case is validated by a trial compile before it is
returned, so downstream consumers only ever see policies that
``check_policy`` accepts.

Exclusions (documented in ``docs/TESTING.md``): ``conntrack-firewall``
is a *stateful* dropper; Table 3's (Drop, Drop) = no-copy parallelism
lets its connection table legitimately diverge between the parallel and
sequential planes, so it has no sound differential oracle and is kept
out of the pool.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..core.dependency import identify_parallelism
from ..core.orchestrator import Orchestrator
from ..net.fields import Field
from ..net.headers import PROTO_TCP, PROTO_UDP, int_to_ip
from ..nfs.firewall import build_acl
from ..nfs.ids import build_signatures
from .cases import FuzzCase, PacketSpec, ProfileTweak

__all__ = ["CaseGenerator", "NF_POOL"]

#: NF kinds eligible for fuzzing.  conntrack-firewall is deliberately
#: absent (stateful dropper: no sound sequential oracle under parallel
#: drop semantics).
NF_POOL: Tuple[str, ...] = (
    "firewall", "monitor", "loadbalancer", "nat", "forwarder",
    "ids", "nids", "ips", "vpn", "vpn-decrypt", "proxy",
    "compression", "gateway", "caching", "shaper",
    "macswap", "vlan-push", "vlan-pop", "vxlan-encap", "vxlan-decap",
    "dedup",
)

#: Fields sound to over-declare as reads.
_READ_FIELDS = (Field.SIP, Field.DIP, Field.SPORT, Field.DPORT,
                Field.TTL, Field.DSCP, Field.PAYLOAD)

_PROTO_ICMP = 1


#: Share of cases that get sound profile tweaks.
_SOUND_TWEAK_RATE = 0.25


class CaseGenerator:
    """Deterministic, seeded generator of valid :class:`FuzzCase`s."""

    def __init__(
        self,
        seed: int = 0,
        max_nfs: int = 5,
        packets_per_case: int = 16,
        tweaks: Sequence[ProfileTweak] = (),
    ):
        self.seed = seed
        self.max_nfs = max(2, max_nfs)
        self.packets_per_case = max(1, packets_per_case)
        self.extra_tweaks = list(tweaks)
        # Shared adversarial-traffic material (deterministic builders).
        self._acl = [rule for rule in build_acl() if not rule.permit]
        self._signatures = build_signatures()

    # --------------------------------------------------------------- cases
    def generate(self, index: int) -> FuzzCase:
        """Case ``index`` of this generator's stream (stable per seed)."""
        rng = random.Random(f"nfp-fuzz:{self.seed}:{index}")
        last_error: Optional[Exception] = None
        for attempt in range(30):
            case = self._draw(rng, f"case-{self.seed}-{index}", index)
            try:
                Orchestrator(action_table=case.action_table()).compile(case.policy())
            except Exception as exc:  # invalid rule combination: redraw
                last_error = exc
                continue
            return case
        raise RuntimeError(
            f"could not draw a valid policy for case {index} "
            f"(last error: {last_error})")

    def _draw(self, rng: random.Random, case_id: str, index: int) -> FuzzCase:
        instances = self._draw_instances(rng)
        rules = self._draw_rules(rng, instances)
        tweaks = self._draw_tweaks(rng, instances) + self.extra_tweaks
        packets = self._draw_packets(rng)
        return FuzzCase(
            case_id=case_id,
            instances=instances,
            rules=rules,
            packets=packets,
            tweaks=tweaks,
            seed=self.seed,
        )

    # -------------------------------------------------------------- policy
    def _draw_instances(self, rng: random.Random) -> List[Tuple[str, str]]:
        count = rng.randint(2, self.max_nfs)
        kinds = [rng.choice(NF_POOL) for _ in range(count)]
        # vpn-decrypt without a vpn upstream drops everything -- valid but
        # boring; usually pair it with an encryptor.
        if "vpn-decrypt" in kinds and "vpn" not in kinds and rng.random() < 0.75:
            kinds[rng.randrange(len(kinds))] = "vpn"
            if "vpn-decrypt" not in kinds:
                kinds.append("vpn-decrypt")
        # A vpn-decrypt ordered before its vpn also drops everything.
        if "vpn" in kinds and "vpn-decrypt" in kinds:
            first = min(kinds.index("vpn"), kinds.index("vpn-decrypt"))
            last = max(kinds.index("vpn"), kinds.index("vpn-decrypt"))
            kinds[first], kinds[last] = "vpn", "vpn-decrypt"
        # Poppers/decapsulators are transparent on untagged traffic --
        # valid but under-exercised; usually pair them with their
        # pusher so the remove path actually runs.
        for popper, pusher in (("vlan-pop", "vlan-push"),
                               ("vxlan-decap", "vxlan-encap")):
            if popper in kinds and pusher not in kinds and rng.random() < 0.75:
                kinds.insert(kinds.index(popper), pusher)
        seen: dict = {}
        instances = []
        for kind in kinds:
            seen[kind] = seen.get(kind, 0) + 1
            name = kind if seen[kind] == 1 else f"{kind}{seen[kind]}"
            instances.append((name, kind))
        return instances

    def _draw_rules(
        self, rng: random.Random, instances: List[Tuple[str, str]]
    ) -> List[Tuple[str, ...]]:
        names = [name for name, _ in instances]
        kinds = dict(instances)
        shape = rng.choices(
            ["chain", "chain-extra", "dag", "priority", "position", "free"],
            weights=[0.3, 0.15, 0.2, 0.15, 0.1, 0.1],
        )[0]
        rules: List[Tuple[str, ...]] = []

        if shape in ("chain", "chain-extra"):
            rules = [("order", a, b) for a, b in zip(names, names[1:])]
            if shape == "chain-extra" and len(names) > 2:
                i = rng.randrange(len(names) - 2)
                j = rng.randrange(i + 2, len(names))
                rules.append(("order", names[i], names[j]))
        elif shape == "dag":
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    if rng.random() < 0.45:
                        rules.append(("order", names[i], names[j]))
        elif shape == "priority":
            pair = self._pick_priority_pair(rng, instances)
            if pair is None:
                rules = [("order", a, b) for a, b in zip(names, names[1:])]
            else:
                high, low = pair
                rest = [n for n in names if n not in (high, low)]
                rules = [("order", a, b) for a, b in zip(rest, rest[1:])]
                rules.append(("priority", high, low))
        elif shape == "position":
            head, tail = names[0], names[-1]
            body = names[1:] if rng.random() < 0.5 else names[:-1]
            rules = [("order", a, b) for a, b in zip(body, body[1:])]
            if body and body[0] != head:
                rules.append(("position", head, "first"))
            else:
                rules.append(("position", tail, "last"))
        # "free": no rules; the compiler probes every pair.

        # Keep vpn before vpn-decrypt whenever both exist and the drawn
        # rules left them unordered.
        if "vpn" in kinds.values() and "vpn-decrypt" in kinds.values():
            vpn = next(n for n, k in instances if k == "vpn")
            dec = next(n for n, k in instances if k == "vpn-decrypt")
            ordered = {(r[1], r[2]) for r in rules if r[0] == "order"}
            if (vpn, dec) not in ordered and (dec, vpn) not in ordered:
                rules.append(("order", vpn, dec))
        return rules

    def _pick_priority_pair(
        self, rng: random.Random, instances: List[Tuple[str, str]]
    ) -> Optional[Tuple[str, str]]:
        """A (high, low) pair whose low-then-high order is parallelizable.

        That constraint is what makes the Priority rule's reference
        semantics (low first, high's effect wins) sound; see
        ``reference_order``.
        """
        from ..core.action_table import default_action_table

        table = default_action_table()
        candidates = []
        for i, (name_a, kind_a) in enumerate(instances):
            for name_b, kind_b in instances[i + 1:]:
                for high, low in ((name_a, name_b), (name_b, name_a)):
                    verdict = identify_parallelism(
                        table.fetch(dict(instances)[low]),
                        table.fetch(dict(instances)[high]),
                    )
                    if verdict.parallelizable:
                        candidates.append((high, low))
        return rng.choice(candidates) if candidates else None

    def _draw_tweaks(
        self, rng: random.Random, instances: List[Tuple[str, str]]
    ) -> List[ProfileTweak]:
        if rng.random() >= _SOUND_TWEAK_RATE:
            return []
        kinds = sorted({kind for _, kind in instances})
        tweaks = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(kinds)
            if rng.random() < 0.8:
                tweaks.append(ProfileTweak(
                    kind=kind, op="add-read", field=rng.choice(_READ_FIELDS)))
            else:
                tweaks.append(ProfileTweak(kind=kind, op="add-drop"))
        return list(dict.fromkeys(tweaks))

    # ------------------------------------------------------------- traffic
    def _draw_packets(self, rng: random.Random) -> List[PacketSpec]:
        flows = [self._draw_flow(rng) for _ in range(rng.randint(2, 5))]
        specs: List[PacketSpec] = []
        for i in range(self.packets_per_case):
            ident = i + 1
            flavour = rng.choices(
                ["benign", "max-mtu", "min", "acl-deny", "ids-sig",
                 "collision", "icmp", "frag", "udp"],
                weights=[0.38, 0.09, 0.06, 0.12, 0.10, 0.10, 0.05, 0.05, 0.05],
            )[0]
            src, dst, sport, dport = rng.choice(flows)
            size = rng.choice((64, 96, 128, 256, 512, 1024, 1500))
            payload = self._random_payload(rng, rng.randint(0, 24))
            proto = PROTO_TCP
            frag_mf, frag_offset = False, 0

            if flavour == "max-mtu":
                size = 1500
            elif flavour == "min":
                size, payload = 64, b""
            elif flavour == "acl-deny":
                rule = rng.choice(self._acl)
                src = int_to_ip(rule.src_net | rng.randrange(1, 255))
                low, high = rule.dport_range
                dport = rng.randint(low, min(high, 65535))
            elif flavour == "ids-sig":
                sig = rng.choice(self._signatures)
                pad = self._random_payload(rng, rng.randint(0, 12))
                payload = pad + sig + pad
                size = max(size, 54 + len(payload))
            elif flavour == "collision" and specs:
                donor = rng.choice(specs)
                src, dst = donor.src_ip, donor.dst_ip
                sport, dport = donor.src_port, donor.dst_port
                proto = donor.protocol if donor.protocol in (PROTO_TCP, PROTO_UDP) \
                    else PROTO_TCP
            elif flavour == "icmp":
                proto = _PROTO_ICMP
            elif flavour == "frag":
                if rng.random() < 0.5:
                    frag_mf = True
                else:
                    frag_offset = rng.randrange(1, 512)
            elif flavour == "udp":
                proto = PROTO_UDP

            specs.append(PacketSpec(
                src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                protocol=proto, size=max(size, 54 + len(payload)),
                payload=payload, ident=ident,
                frag_mf=frag_mf, frag_offset=frag_offset,
            ))
        return specs

    @staticmethod
    def _draw_flow(rng: random.Random) -> Tuple[str, str, int, int]:
        src = f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        dst = f"10.200.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        sport = rng.randrange(1024, 65536)
        dport = rng.choice((80, 443, 8080, 53, rng.randrange(1, 65536)))
        return src, dst, sport, dport

    @staticmethod
    def _random_payload(rng: random.Random, length: int) -> bytes:
        return bytes(rng.randrange(256) for _ in range(length))
