"""Byte-at-a-time Aho-Corasick: the differential oracle for
``repro.nfs.aho_corasick``.

The classic automaton -- trie + BFS failure links -- walked over every
byte of the input, exactly as ``src/`` did before its scan learnt to
skip bytes no pattern contains.  Kept verbatim so the Hypothesis suite
can require the same ``(pattern_index, end_offset)`` sequence, in the
same order, from both.  :func:`findall` and :func:`match_count` read
either matcher through ``finditer``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = ["TextbookAhoCorasick", "findall", "match_count"]


class _State:
    __slots__ = ("next", "fail", "outputs")

    def __init__(self):
        self.next: Dict[int, "_State"] = {}
        self.fail: "_State" = None  # type: ignore[assignment]
        self.outputs: List[int] = []  # pattern indices ending here


class TextbookAhoCorasick:
    """Immutable multi-pattern byte matcher.

    >>> ac = TextbookAhoCorasick([b"he", b"she", b"his", b"hers"])
    >>> sorted(pat for pat, _ in findall(ac, b"ushers"))
    [b'he', b'hers', b'she']
    """

    def __init__(self, patterns: Iterable[bytes]):
        self.patterns: List[bytes] = [bytes(p) for p in patterns]
        if any(not p for p in self.patterns):
            raise ValueError("empty pattern not allowed")
        self._root = _State()
        self._build_trie()
        self._build_failure_links()

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

    def finditer(self, data: bytes) -> Iterator[Tuple[int, int]]:
        """Yield (pattern_index, end_offset) for every match in ``data``."""
        node = self._root
        for offset, byte in enumerate(data):
            while node is not self._root and byte not in node.next:
                node = node.fail
            node = node.next.get(byte, self._root)
            for pattern_index in node.outputs:
                yield pattern_index, offset + 1

    def __len__(self) -> int:
        return len(self.patterns)


def findall(matcher, data: bytes) -> List[Tuple[bytes, int]]:
    """All of ``matcher``'s matches in ``data`` as (pattern, end_offset)
    pairs, in ``finditer`` order."""
    return [(matcher.patterns[i], end) for i, end in matcher.finditer(data)]


def match_count(matcher, data: bytes) -> int:
    """Number of ``matcher``'s matches in ``data``."""
    return sum(1 for _ in matcher.finditer(data))
