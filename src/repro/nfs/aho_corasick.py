"""Aho-Corasick multi-pattern matcher, the IDS/NIDS signature engine.

The paper's IDS is "a simple NF similar to the core signature matching
component of the Snort intrusion detection system with 100 signature
inspection rules" (§6.1).  Snort's fast pattern matcher is Aho-Corasick;
we build the classic automaton: trie + BFS failure links.  Like Snort's
fast-pattern stage, the scan keeps most payload bytes away from it: a
byte that occurs in no pattern sends the automaton back to the root, so
no match can span one.  A 256-byte class table (1 for a pattern byte, 0
for any other) marks the payload in one C-level ``translate``; ``find``
of as many 1s as the shortest pattern is long locates each run worth
walking and the next 0 ends it.  Only those runs are walked byte by
byte, each from the root, so a payload with none costs two C calls.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = ["AhoCorasick"]


class _State:
    __slots__ = ("next", "fail", "outputs")

    def __init__(self):
        self.next: Dict[int, "_State"] = {}
        self.fail: "_State" = None  # type: ignore[assignment]
        self.outputs: List[int] = []  # pattern indices ending here


class AhoCorasick:
    """Immutable multi-pattern byte matcher.

    >>> ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
    >>> sorted(ac.patterns[i] for i, _ in ac.finditer(b"ushers"))
    [b'he', b'hers', b'she']
    """

    def __init__(self, patterns: Iterable[bytes]):
        self.patterns: List[bytes] = [bytes(p) for p in patterns]
        if any(not p for p in self.patterns):
            raise ValueError("empty pattern not allowed")
        self._root = _State()
        self._build_trie()
        self._build_failure_links()
        alphabet = set().union(*self.patterns)
        #: byte -> 1 if it occurs in some pattern, else 0 (a translate table).
        self._classes = bytes(b in alphabet for b in range(256))
        #: The shortest run worth walking, in class marks.  Never found
        #: when there is no pattern: every mark is then 0.
        self._seed = b"\x01" * min(map(len, self.patterns), default=1)

    def _build_trie(self) -> None:
        for index, pattern in enumerate(self.patterns):
            node = self._root
            for byte in pattern:
                node = node.next.setdefault(byte, _State())
            node.outputs.append(index)

    def _build_failure_links(self) -> None:
        self._root.fail = self._root
        queue: deque = deque()
        for child in self._root.next.values():
            child.fail = self._root
            queue.append(child)
        while queue:
            node = queue.popleft()
            for byte, child in node.next.items():
                queue.append(child)
                fail = node.fail
                while fail is not self._root and byte not in fail.next:
                    fail = fail.fail
                child.fail = fail.next.get(byte, self._root)
                if child.fail is child:
                    child.fail = self._root
                child.outputs += child.fail.outputs

    def finditer(self, data: bytes) -> Iterable[Tuple[int, int]]:
        """(pattern_index, end_offset) for every match in ``data``, in
        order; ``data`` is any bytes-like object."""
        try:
            marks = data.translate(self._classes)
        except AttributeError:  # a memoryview or another buffer
            data = bytes(data)
            marks = data.translate(self._classes)
        if self._seed not in marks:
            return ()
        return self._walk_runs(data, marks)

    def _walk_runs(self, data: bytes, marks: bytes) -> Iterator[Tuple[int, int]]:
        """Walk each run of pattern bytes ``marks`` holds, from the root."""
        root, seed = self._root, self._seed
        start = marks.find(seed)
        while start >= 0:
            stop = marks.find(b"\x00", start + len(seed))
            if stop < 0:
                stop = len(marks)
            node = root
            for end, byte in enumerate(data[start:stop], start + 1):
                while node is not root and byte not in node.next:
                    node = node.fail
                node = node.next.get(byte, root)
                for pattern_index in node.outputs:
                    yield pattern_index, end
            start = marks.find(seed, stop)

    def __len__(self) -> int:
        return len(self.patterns)
