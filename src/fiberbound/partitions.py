"""Finitary partitions, quotient frames, and ordered partition enumeration.

A :class:`FinitaryPartition` keeps only its blocks of size two or more; all
other atoms are implicit singleton blocks, so every stored partition of the
universe has finite blocks and decidable equality.

A :class:`QuotientFrame` is built from a list of finite atom sets.  Atoms of
the union are grouped by their membership pattern across the listed sets,
and the resulting classes are well-ordered by the ascending lexicographic
order of those patterns (``0 < 1``, list order most significant).

Subsets and partitions of the classes are compared through characteristic
strings.  For subsets: the string over the classes in their well-order,
most significant first.  For partitions: the string over all subsets
enumerated in subset order, most significant first, which works out to
"the least subset in the symmetric difference decides, and the side
containing it is the greater".  The same order has a second description
used for fast sorting and lazy generation: list each partition's block
bitmasks ascending and compare those tuples in reverse.  Both descriptions
are kept and cross-checked by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .atoms import format_atom_set, parse_atom_set
from .errors import BudgetExceededError, OutOfRangeError, OverlappingBlocksError, ParseError

# Guards keep every count below 2**63 so serialized certificates stay exact
# in fixed-width consumers.
BELL_MAX = 25
DERANGEMENT_MAX = 20
ENUMERATION_CAP = 12

Block = frozenset[int]


class FinitaryPartition:
    """A partition of the atom universe whose blocks are all finite."""

    __slots__ = ("_blocks", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normal = []
        seen: set[int] = set()
        for block in blocks:
            b = frozenset(block)
            if any(a < 0 for a in b):
                raise ValueError("atoms must be non-negative")
            if seen & b:
                raise OverlappingBlocksError("blocks must be pairwise disjoint")
            seen |= b
            if len(b) >= 2:
                normal.append(b)
        self._blocks = frozenset(normal)
        self._hash = hash(self._blocks)

    @classmethod
    def singletons(cls) -> "FinitaryPartition":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "FinitaryPartition":
        if text == "{}*":
            return cls(())
        if not text or not text.startswith("{") or not text.endswith("}"):
            raise ParseError(f"not a partition: {text!r}")
        blocks = []
        for part in text[1:-1].split("}{"):
            blocks.append(parse_atom_set("{" + part + "}"))
        return cls(blocks)

    @property
    def exceptional_blocks(self) -> frozenset[Block]:
        """The stored blocks of size at least two."""
        return self._blocks

    def block_of(self, atom: int) -> Block:
        for b in self._blocks:
            if atom in b:
                return b
        return frozenset((atom,))

    def __str__(self) -> str:
        if not self._blocks:
            return "{}*"
        parts = sorted(self._blocks, key=min)
        return "".join(format_atom_set(b) for b in parts)

    def __repr__(self) -> str:
        return f"FinitaryPartition.parse({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitaryPartition):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return self._hash


def bell(l: int) -> int:
    """Exact Bell number by the Bell triangle."""
    if l < 0 or l > BELL_MAX:
        raise OutOfRangeError(f"bell defined here for 0 <= l <= {BELL_MAX}")
    row = [1]
    for _ in range(l):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def derangement(j: int) -> int:
    """Count of fixed-point-free permutations of a j-element set."""
    if j < 0 or j > DERANGEMENT_MAX:
        raise OutOfRangeError(f"derangement defined here for 0 <= j <= {DERANGEMENT_MAX}")
    if j == 0:
        return 1
    if j == 1:
        return 0
    prev2, prev1 = 1, 0
    for i in range(2, j + 1):
        prev2, prev1 = prev1, (i - 1) * (prev1 + prev2)
    return prev1


@dataclass(frozen=True)
class QuotientFrame:
    """Membership classes of a list of atom sets, in their well-order."""

    values: tuple[Block, ...]
    classes: tuple[Block, ...]
    vectors: tuple[tuple[bool, ...], ...]

    @property
    def l(self) -> int:
        return len(self.classes)

    def subset_key(self, indices: Iterable[int]) -> int:
        """Bitmask of a class subset; class 0 is the most significant bit."""
        l = self.l
        key = 0
        for i in indices:
            if not 0 <= i < l:
                raise IndexError(f"class index {i} out of range for l={l}")
            key |= 1 << (l - 1 - i)
        return key

    def compare_subsets(self, u: Iterable[int], v: Iterable[int]) -> int:
        """-1, 0 or 1 comparing characteristic strings over the classes."""
        ku, kv = self.subset_key(u), self.subset_key(v)
        return (ku > kv) - (ku < kv)

    def compare_partitions(self, q1: Iterable[Iterable[int]], q2: Iterable[Iterable[int]]) -> int:
        """Compare partitions of the classes; see the module docstring."""
        s1 = {frozenset(b) for b in q1}
        s2 = {frozenset(b) for b in q2}
        if s1 == s2:
            return 0
        least = min((s1 ^ s2), key=self.subset_key)
        return 1 if least in s1 else -1


def build_frame(values: Sequence[Iterable[int]]) -> QuotientFrame:
    """Group the union of ``values`` by membership pattern.

    ``values`` must already be duplicate-free and listed in the order that
    induces their well-order (first occurrence order at the call sites).
    """
    vals = tuple(frozenset(v) for v in values)
    if len(set(vals)) != len(vals):
        raise ValueError("values must be duplicate-free")
    universe: set[int] = set()
    for v in vals:
        universe |= v
    groups: dict[tuple[bool, ...], list[int]] = {}
    for a in sorted(universe):
        vec = tuple(a in v for v in vals)
        groups.setdefault(vec, []).append(a)
    ordered = sorted(groups.items(), key=lambda kv: kv[0])
    classes = tuple(frozenset(atoms) for _, atoms in ordered)
    vectors = tuple(vec for vec, _ in ordered)
    return QuotientFrame(vals, classes, vectors)


def lift(q: Iterable[Iterable[int]], frame: QuotientFrame) -> FinitaryPartition:
    """Turn a partition of the frame's classes into a partition of atoms.

    Blocks are unions of the grouped classes; every atom outside the
    frame's union stays a singleton, which the normal form makes implicit.
    """
    blocks = []
    for part in q:
        atoms: set[int] = set()
        for i in part:
            atoms |= frame.classes[i]
        blocks.append(atoms)
    return FinitaryPartition(blocks)


def iter_partitions_rgs(l: int) -> Iterator[tuple[Block, ...]]:
    """All partitions of ``{0..l-1}`` via restricted growth strings."""
    if l == 0:
        yield ()
        return
    labels = [0] * l

    def rec(pos: int, mx: int) -> Iterator[tuple[Block, ...]]:
        if pos == l:
            blocks: dict[int, list[int]] = {}
            for i, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(i)
            yield tuple(frozenset(b) for b in blocks.values())
            return
        for v in range(mx + 2):
            labels[pos] = v
            yield from rec(pos + 1, max(mx, v))

    yield from rec(1, 0)


def partition_sort_key(q: Iterable[Iterable[int]], l: int) -> tuple[int, ...]:
    """Ascending tuple of block bitmasks; reverse-sorting it ranks partitions."""
    return tuple(sorted(sum(1 << (l - 1 - i) for i in b) for b in q))


def enumerate_partitions_ranked(frame: QuotientFrame, budget: int = ENUMERATION_CAP) -> Iterator[tuple[Block, ...]]:
    """All partitions of the frame's classes, ascending in the rank order.

    Materializes and sorts, so it is guarded: ``l`` beyond ``budget``
    raises rather than building an astronomically long list.
    """
    l = frame.l
    if l > budget:
        raise BudgetExceededError(f"l={l} exceeds enumeration budget {budget}")
    parts = list(iter_partitions_rgs(l))
    parts.sort(key=lambda q: partition_sort_key(q, l), reverse=True)
    return iter(parts)


def iter_partitions_ranked(l: int) -> Iterator[tuple[Block, ...]]:
    """Lazy stream of partitions of ``{0..l-1}`` ascending in the rank order.

    Recursive shape: a partition is decomposed as its block of smallest
    bitmask (equivalently, the block whose least class index is largest)
    followed by the ranked partition of the rest, whose blocks must all
    contain a class below that block's least index.  Enumerating the first
    block by descending bitmask and recursing yields the whole stream in
    order without materializing it, so consumers may take a short prefix
    even when the total count is astronomical.
    """

    def gen(avail: tuple[int, ...], upper: int) -> Iterator[tuple[Block, ...]]:
        if not avail:
            yield ()
            return
        if avail[0] >= upper:
            return
        # Least available index first: the only block with that minimum
        # that leaves a legal remainder is the whole of avail.
        yield (frozenset(avail),)
        for jpos in range(1, len(avail)):
            m1 = avail[jpos]
            if m1 >= upper:
                break
            head = avail[:jpos]
            tail = avail[jpos + 1:]
            t = len(tail)
            for mask in range((1 << t) - 1, -1, -1):
                members = tuple(tail[p] for p in range(t) if mask >> (t - 1 - p) & 1)
                block = frozenset((m1,) + members)
                rest = head + tuple(x for x in tail if x not in block)
                for sub in gen(rest, m1):
                    yield (block,) + sub

    yield from gen(tuple(range(l)), l if l else 1)
