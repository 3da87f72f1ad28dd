"""Server/link topology model for NF placement.

A :class:`Topology` is a set of :class:`Server` nodes (core + memory
capacity) joined by undirected :class:`Link` edges (bandwidth +
propagation delay).  The placement solvers walk it through
:meth:`Topology.paths`, which enumerates simple paths -- the candidate
server sequences a sliced chain can occupy (slice *i* runs on the
path's *i*-th server, consecutive slices must be adjacent so the NSH
frame has a wire to cross).  The backup planner filters the same
enumeration for paths that avoid every active server.

Builders cover the shapes the tests and CLI need (``line``, ``star``,
``full_mesh``) plus :meth:`Topology.from_spec` for compact CLI strings
like ``mesh:4x8`` (4 servers, 8 cores each) or ``line:3x6@25`` (25 Gbps
links).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Server", "Link", "Topology", "TopologyError"]

#: Default per-server memory when a builder does not specify one (MB).
DEFAULT_MEMORY_MB = 4096.0


class TopologyError(ValueError):
    """Raised for malformed topologies or unknown members."""


@dataclass(frozen=True)
class Server:
    """One placement target: a box with core and memory capacity."""

    name: str
    cores: int
    memory_mb: float = DEFAULT_MEMORY_MB

    def __post_init__(self):
        if self.cores < 1:
            raise TopologyError(f"server {self.name!r} needs at least 1 core")
        if self.memory_mb <= 0:
            raise TopologyError(f"server {self.name!r} needs positive memory")


@dataclass(frozen=True)
class Link:
    """An undirected link between two servers."""

    a: str
    b: str
    gbps: float = 10.0
    propagation_us: float = 0.0

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"link {self.a!r} to itself")
        if self.gbps <= 0:
            raise TopologyError(f"link {self.a}-{self.b} needs positive Gbps")
        if self.propagation_us < 0:
            raise TopologyError("propagation delay cannot be negative")

    @property
    def key(self) -> FrozenSet[str]:
        return frozenset((self.a, self.b))

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise TopologyError(f"{name!r} is not an endpoint of {self.a}-{self.b}")

    def capacity_mpps(self, packet_size: int) -> float:
        """Line rate of this link for a given frame size (+20 B overhead)."""
        from ..sim.params import nic_line_rate_mpps

        return nic_line_rate_mpps(packet_size, nic_gbps=self.gbps)


@dataclass
class Topology:
    """Servers + links, with path enumeration for the solvers."""

    servers: Dict[str, Server] = field(default_factory=dict)
    _links: Dict[FrozenSet[str], Link] = field(default_factory=dict)

    # ------------------------------------------------------- construction
    def add_server(self, server: Server) -> "Topology":
        if server.name in self.servers:
            raise TopologyError(f"duplicate server {server.name!r}")
        self.servers[server.name] = server
        return self

    def add_link(self, link: Link) -> "Topology":
        for end in (link.a, link.b):
            if end not in self.servers:
                raise TopologyError(f"link endpoint {end!r} is not a server")
        if link.key in self._links:
            raise TopologyError(f"duplicate link {link.a}-{link.b}")
        self._links[link.key] = link
        return self

    # ------------------------------------------------------------ queries
    def server(self, name: str) -> Server:
        try:
            return self.servers[name]
        except KeyError:
            raise TopologyError(f"unknown server {name!r}") from None

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise TopologyError(f"no link between {a!r} and {b!r}") from None

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def neighbors(self, name: str) -> List[str]:
        self.server(name)
        return sorted(
            link.other(name) for link in self._links.values()
            if name in link.key
        )

    def path_links(self, path: Sequence[str]) -> List[Link]:
        """The links crossed by a server walk; validates adjacency."""
        return [self.link(a, b) for a, b in zip(path, path[1:])]

    # ----------------------------------------------------------- walking
    def paths(self, length: int,
              start: Optional[str] = None) -> Iterator[Tuple[str, ...]]:
        """All simple server paths of exactly ``length`` servers.

        A path of length 1 is any single server.  ``start`` pins the
        first server (the chain's ingress point) when given.
        """
        if length < 1:
            raise TopologyError("paths need at least one server")
        starts = [start] if start is not None else sorted(self.servers)

        def walk(path: Tuple[str, ...]) -> Iterator[Tuple[str, ...]]:
            if len(path) == length:
                yield path
                return
            for nxt in self.neighbors(path[-1]):
                if nxt not in path:
                    yield from walk(path + (nxt,))

        for first in starts:
            self.server(first)
            yield from walk((first,))

    # ----------------------------------------------------------- builders
    @classmethod
    def line(cls, count: int, cores: int, gbps: float = 10.0,
             propagation_us: float = 0.0,
             memory_mb: float = DEFAULT_MEMORY_MB) -> "Topology":
        topo = cls()
        for index in range(count):
            topo.add_server(Server(f"s{index}", cores, memory_mb))
        for index in range(count - 1):
            topo.add_link(Link(f"s{index}", f"s{index + 1}", gbps,
                               propagation_us))
        return topo

    @classmethod
    def star(cls, count: int, cores: int, gbps: float = 10.0,
             propagation_us: float = 0.0,
             memory_mb: float = DEFAULT_MEMORY_MB) -> "Topology":
        """``s0`` is the hub; every other server hangs off it."""
        if count < 2:
            raise TopologyError("a star needs at least 2 servers")
        topo = cls()
        for index in range(count):
            topo.add_server(Server(f"s{index}", cores, memory_mb))
        for index in range(1, count):
            topo.add_link(Link("s0", f"s{index}", gbps, propagation_us))
        return topo

    @classmethod
    def full_mesh(cls, count: int, cores: int, gbps: float = 10.0,
                  propagation_us: float = 0.0,
                  memory_mb: float = DEFAULT_MEMORY_MB) -> "Topology":
        topo = cls()
        for index in range(count):
            topo.add_server(Server(f"s{index}", cores, memory_mb))
        for i in range(count):
            for j in range(i + 1, count):
                topo.add_link(Link(f"s{i}", f"s{j}", gbps, propagation_us))
        return topo

    @classmethod
    def from_spec(cls, spec: str) -> "Topology":
        """Parse ``kind:NxC[@G]``: kind, server count, cores, link Gbps.

        Examples: ``mesh:4x8`` (4-server full mesh, 8 cores each, 10G),
        ``line:3x6@25``, ``star:5x8@40``.
        """
        builders = {"line": cls.line, "star": cls.star,
                    "mesh": cls.full_mesh, "full_mesh": cls.full_mesh}
        try:
            kind, shape = spec.strip().split(":", 1)
            gbps = 10.0
            if "@" in shape:
                shape, rate = shape.split("@", 1)
                gbps = float(rate)
            count_text, cores_text = shape.lower().split("x", 1)
            count, cores = int(count_text), int(cores_text)
        except ValueError:
            raise TopologyError(
                f"bad topology spec {spec!r} (want kind:NxC[@G], "
                f"e.g. mesh:4x8 or line:3x6@25)"
            ) from None
        builder = builders.get(kind.strip().lower())
        if builder is None:
            raise TopologyError(
                f"unknown topology kind {kind!r} (choose from "
                f"{sorted(builders)})"
            )
        return builder(count, cores, gbps)

    def describe(self) -> str:
        parts = [
            f"{name}({server.cores}c)"
            for name, server in sorted(self.servers.items())
        ]
        return f"{len(self.servers)} servers: {', '.join(parts)}; " \
               f"{len(self._links)} links"
