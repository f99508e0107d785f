"""Finitary partitions, quotient frames, and ordered partition enumeration.

A :class:`FinitaryPartition` keeps only its blocks of size two or more; all
other atoms are implicit singleton blocks, so every stored partition of the
universe has finite blocks and decidable equality.

A :class:`QuotientFrame` is built from a list of finite atom sets.  Atoms of
the union are grouped by their membership pattern across the listed sets,
and the resulting classes are well-ordered by the ascending lexicographic
order of those patterns (``0 < 1``, list order most significant).  Each
pattern is one integer mask: of ``n`` listed sets, set ``i`` is bit
``n - 1 - i``, so set 0 is the most significant bit and plain integer
order on the masks is the pattern order.  Frames are built by partition
refinement (Paige and Tarjan, "Three partition refinement algorithms",
SIAM J. Comput. 16, 1987): listing one more set appends a least
significant bit, which splits each class into its part outside the set and
its part inside, adjacent and in that order, so a frame is refined in
place by each value new to its list, at a cost that does not grow with the
values it already lists.  A value that is a union of existing classes splits
none and brings no new atom, so it leaves the classes as they are: it is
recognized at builtin speed, and the frame keeps its class tuple.

Subsets and partitions of the classes are compared through characteristic
strings.  For subsets: the string over the classes in their well-order,
most significant first.  For partitions: the string over all subsets
enumerated in subset order, most significant first, which works out to
"the least subset in the symmetric difference decides, and the side
containing it is the greater".  The same order has a second description,
which :func:`iter_partitions_ranked` generates lazily: list each
partition's block bitmasks ascending and compare those tuples in reverse.
The test suite keeps the first description, and a materialized sort by the
second, as references for the lazy stream.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, Optional

from .atoms import _atoms_ok, parse_atom_set
from .errors import BadParametersError, ParseError, _require_int

# Guards keep every count below 2**63 so serialized certificates stay exact
# in fixed-width consumers.
BELL_MAX = 25
DERANGEMENT_MAX = 20

Block = frozenset[int]


def _write_blocks(blocks: tuple[Block, ...], atom_text: Callable[[int], str]) -> str:
    """The canonical partition text of ``blocks``, its blocks of two or more
    atoms already in canonical order, by least atom: each block ``{a,b,...}``
    with its atoms ascending, and ``{}*`` when there are none.  Only the
    atoms inside each block are sorted here.  ``atom_text`` writes each
    atom's decimal text: ``str``, or a frame's table of its atoms' texts.
    """
    return "".join(["{" + ",".join(map(atom_text, sorted(b))) + "}" for b in blocks]) or "{}*"


class FinitaryPartition:
    """A partition of the atom universe whose blocks are all finite.

    ``_blocks`` holds the blocks of size at least two; every other atom is
    a block of its own.  Two fields are kept beside the blocks: the
    canonical text and the blocks in canonical order, each computed on
    first use.  The hash is the blocks' own, which the frozenset computes
    once and keeps.  That is safe because a partition never changes once
    built: its blocks are a frozenset of frozensets.
    The kept fields pay where one partition is asked about again, as when
    the audit re-asks an oracle about every witness.  The order
    (:meth:`_by_least`) is a tuple of the stored frozenset objects by least
    atom; :func:`~fiberbound.oracles.min_block_oracle` answers with its
    first block, and the text is written from it.  ``str`` writes the text
    with ``str`` of each atom; :meth:`QuotientFrame.write` writes the same
    text through the frame's atom texts, and whichever comes first keeps it.
    """

    __slots__ = ("_blocks", "_text", "_order")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normal = []
        seen: set[int] = set()
        for block in blocks:
            b = frozenset(block)
            if not _atoms_ok(b):
                raise BadParametersError("atoms must be non-negative integers")
            if seen & b:
                raise BadParametersError("blocks must be pairwise disjoint")
            seen |= b
            if len(b) >= 2:
                normal.append(b)
        self._blocks = frozenset(normal)
        self._text = self._order = None

    @classmethod
    def _of(cls, blocks: frozenset[Block]) -> "FinitaryPartition":
        """Wrap ``blocks``, already a frozenset of pairwise disjoint blocks of
        at least two non-negative int atoms, without checking them.

        It has two callers, and for each the public constructor's checks
        would find nothing.  The partition engine's seed constructor wraps
        the single block ``{base, base + 1 + j}``, two distinct atoms, and
        ``WitnessEngine`` has already checked that ``base`` is a
        non-negative int, so both atoms are too.  :func:`lift` wraps unions
        of a frame's classes, which are pairwise disjoint non-empty sets of
        the frame's atoms, and :func:`build_frame` lets no atom into a frame
        unless it is a non-negative int; so unions of distinct classes are
        disjoint frozensets of such atoms, and ``lift`` keeps only those of
        two or more.  Each caller hands its frozenset over: the partition
        keeps that object as its blocks, and its kept order holds the same
        block objects.
        """
        part = object.__new__(cls)
        part._blocks = blocks
        part._text = part._order = None
        return part

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

    def _by_least(self) -> tuple[Block, ...]:
        """The stored blocks ordered by least atom, the same frozenset
        objects; computed on the first call and kept, so every later call
        returns the same tuple at O(1)."""
        order = self._order
        if order is None:
            blocks = self._blocks
            # one block or none is already in order
            order = tuple(blocks) if len(blocks) < 2 else tuple(sorted(blocks, key=min))
            self._order = order
        return order

    def __str__(self) -> str:
        """The canonical text, written on the first call and kept."""
        text = self._text
        if text is None:
            text = self._text = _write_blocks(self._by_least(), str)
        return text

    def __repr__(self) -> str:
        return f"FinitaryPartition.parse({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitaryPartition):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)


def bell(l: int) -> int:
    """Exact Bell number by the Bell triangle."""
    _require_int("l", l)
    if l < 0 or l > BELL_MAX:
        raise BadParametersError(f"bell defined here for 0 <= l <= {BELL_MAX}")
    row = [1]
    for _ in range(l):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def derangement(j: int) -> int:
    """Count of fixed-point-free permutations of a j-element set."""
    _require_int("j", j)
    if j < 0 or j > DERANGEMENT_MAX:
        raise BadParametersError(f"derangement defined here for 0 <= j <= {DERANGEMENT_MAX}")
    if j == 0:
        return 1
    if j == 1:
        return 0
    prev2, prev1 = 1, 0
    for i in range(2, j + 1):
        prev2, prev1 = prev1, (i - 1) * (prev1 + prev2)
    return prev1


class QuotientFrame:
    """Membership classes of a list of atom sets, in their well-order.

    ``classes`` ascends by membership pattern, with value 0 as the most
    significant bit.  :func:`build_frame` refines a frame in place and
    gives it a new ``classes`` tuple when a class changed, keeping the old
    one otherwise, and ``values`` is a new tuple on each read, so a tuple
    once read never changes.

    ``atoms`` is the frozenset of every atom in the frame, the union of
    the classes; :meth:`_emit` builds it again only when atoms new to the
    frame came in, so it is the same object across lifts and across steps
    that only split classes.  :func:`lift` takes its largest block from it.
    :func:`build_frame` does not read it: a value that is a union of the
    classes, found through ``_class_of`` and ``_members``, brings no new
    atom, and only the other values are type-checked and refine the frame.

    ``_atom_text`` maps each atom of the frame to its decimal text, written
    once, when the atom first comes in, at O(new atoms) per refinement.
    :meth:`write` writes a partition of the frame's atoms through it, so a
    run that writes many lifts of one frame converts each atom to decimal
    once, not once per lift that holds it.

    Refinement state: ``_listed`` keys the listed values in list order,
    ``_members[c]`` is class ``c``'s atoms, ``_class_of`` maps each atom to
    its id, ``_after`` links the ids in order from ``_head`` (-1 ends the
    list), and ``_frozen[c]`` is class ``c``'s last emitted frozenset, or
    None once the class has changed since.
    """

    __slots__ = ("classes", "atoms", "_atom_text", "_listed", "_class_of", "_members", "_frozen",
                 "_after", "_head")

    def __init__(self):
        self.classes: tuple[Block, ...] = ()
        self.atoms: Block = frozenset()
        self._atom_text: dict[int, str] = {}
        self._listed: dict[Block, None] = {}
        self._class_of: dict[int, int] = {}
        self._members: list[set[int]] = []
        self._frozen: list[Optional[Block]] = []
        self._after: list[int] = []
        self._head = -1

    @property
    def values(self) -> tuple[Block, ...]:
        return tuple(self._listed)

    @property
    def l(self) -> int:
        return len(self.classes)

    def write(self, p: FinitaryPartition) -> str:
        """``str(p)`` for a partition whose atoms all lie in the frame, as
        every lift of this frame or of an earlier state of it does.

        A text ``p`` already keeps is returned as it is; otherwise it is
        written through the frame's atom texts and kept in ``p``, so a later
        ``str(p)`` returns the same object.
        """
        text = p._text
        if text is None:
            text = p._text = _write_blocks(p._by_least(), self._atom_text.__getitem__)
        return text

    def _new_class(self, atoms: list[int], left: int) -> None:
        """Class of ``atoms`` linked after id ``left``, or first when -1."""
        cid = len(self._members)
        self._members.append(set(atoms))
        self._frozen.append(None)
        for a in atoms:
            self._class_of[a] = cid
        if left < 0:
            self._after.append(self._head)
            self._head = cid
        else:
            self._after.append(self._after[left])
            self._after[left] = cid

    def _refine(self, v: Block) -> None:
        """Append ``v``, which :func:`build_frame` found to be no union of
        the classes when its call began, as the least significant bit, in
        O(|v|)."""
        class_of, members = self._class_of, self._members
        hits: dict[int, list[int]] = {}
        fresh = []
        for a in v:
            cid = class_of.get(a)
            if cid is None:
                fresh.append(a)
            else:
                hits.setdefault(cid, []).append(a)
        for cid, inside in hits.items():
            # mask μ becomes 2μ for C∖v, which keeps the id, and 2μ + 1 for
            # C∩v, linked right after it; a class inside v stays whole
            rest = members[cid]
            if len(inside) < len(rest):
                rest.difference_update(inside)
                self._frozen[cid] = None
                self._new_class(inside, cid)
        if fresh:
            # mask 1, below every class already present
            self._new_class(fresh, -1)
            self._atom_text.update(zip(fresh, map(str, fresh)))

    def _emit(self) -> tuple[Block, ...]:
        """The classes in order; O(l) plus the sizes of changed classes, and
        O(atoms) more to refresh ``atoms`` when some atom is new."""
        if len(self.atoms) != len(self._class_of):
            # atoms only come in, so an unchanged count is an unchanged set
            self.atoms = frozenset(self._class_of)
        classes = []
        members, frozen, after = self._members, self._frozen, self._after
        cid = self._head
        while cid >= 0:
            block = frozen[cid]
            if block is None:
                block = frozen[cid] = frozenset(members[cid])
            classes.append(block)
            cid = after[cid]
        return tuple(classes)


def build_frame(values: Iterable[Iterable[int]], frame: Optional[QuotientFrame] = None) -> QuotientFrame:
    """Refine ``frame``, or an empty frame when it is None, in place by
    ``values`` and return it.

    ``values`` are sets the frame does not list yet, in the order that
    induces their well-order (first occurrence order at the call sites).
    A value repeated in ``values``, or already listed, raises
    :class:`BadParametersError` before any refinement, and so does an atom
    that is not a non-negative ``int`` (a ``bool`` or a ``float`` is not
    one) in a value that is not a union of the frame's classes: every atom
    of a frame is a non-negative int, which :func:`lift` relies on when it
    builds its result unchecked from the frame's classes.  Only such a
    value can put an atom into a class, by bringing it in or by splitting
    a class, and a ``True`` or a ``1.0`` that equals an atom of the frame
    would enter the split class as itself.  A union of the frame's classes
    stays a union as later values of the call make the classes finer, so
    it never splits and its atoms need no check.

    Appending ``v`` as the least significant bit splits each class C into
    C∖v and C∩v, in that order, and gathers the atoms new to the union into
    a first class, whose atoms' decimal texts go into the frame's table, at
    O(|v|).  When ``v`` is a union of existing classes
    nothing splits and nothing is new; one set of class ids and a sum of
    their sizes find that, at O(|v|) in builtins, and ``v`` is listed
    without a check or a refinement.  Emitting the frame costs O(l) and the
    sizes of the changed classes; a class no value splits keeps its
    frozenset object, and a call whose values are all unions of classes
    emits nothing and keeps the ``classes`` tuple object.  Nothing is
    walked for the values already listed, so a list folded in pieces costs
    O(Σ|v|) plus O(l) per call that changes a class.
    """
    frame = QuotientFrame() if frame is None else frame
    vals = [frozenset(v) for v in values]
    new = dict.fromkeys(vals)
    if len(new) != len(vals) or any(v in frame._listed for v in vals):
        raise BadParametersError("values must be duplicate-free")
    class_of, members = frame._class_of, frame._members
    splitting = []
    for v in vals:
        cids = set(map(class_of.get, v))
        if None in cids or sum(map(len, map(members.__getitem__, cids))) != len(v):
            if not _atoms_ok(v):
                raise BadParametersError("atoms must be non-negative integers")
            splitting.append(v)
    # a union of classes splits none and brings no atom: mask μ becomes
    # 2μ + 1 for the classes it meets and 2μ for the rest, order holds
    for v in splitting:
        frame._refine(v)
    frame._listed.update(new)
    if splitting:
        frame.classes = frame._emit()
    return frame


def lift(q: Collection[Collection[int]], frame: QuotientFrame) -> FinitaryPartition:
    """Turn a partition of the frame's classes into a partition of atoms.

    ``q`` must be a partition of ``range(frame.l)``, as every draw of
    ``iter_partitions_ranked(frame.l)`` is.  The frame's atoms are
    non-negative ints, since :func:`build_frame` refuses any other.
    Blocks are unions of the grouped classes; every atom outside the
    frame's union stays a singleton, which the normal form makes implicit.

    The first largest block of ``q`` is never read: it holds exactly the
    frame's atoms outside the other blocks, one difference against
    ``frame.atoms`` in builtins.  The other blocks are unions of their
    classes, and a one-class block is the class's own frozenset.  So a lift
    costs O(|q|) plus the classes outside the largest block and their
    atoms, and O(atoms) only inside that builtin difference.  The result is
    built unchecked (see :meth:`FinitaryPartition._of`): the classes are
    disjoint, so the blocks are too.
    """
    # an empty q (l = 0) has no largest block, and its frame no atoms
    largest = max(q, key=len, default=None)
    classes = frame.classes
    blocks = []
    for part in q:
        if part is largest:
            continue
        if len(part) == 1:
            (i,) = part
            blocks.append(classes[i])
        else:
            blocks.append(frozenset().union(*map(classes.__getitem__, part)))
    blocks.append(frame.atoms.difference(*blocks))
    return FinitaryPartition._of(frozenset(b for b in blocks if len(b) >= 2))


def iter_partitions_ranked(l: int) -> Iterator[tuple[Block, ...]]:
    """Lazy stream of partitions of ``{0..l-1}`` ascending in the rank order.

    Recursive shape: a partition is decomposed as its block of smallest
    bitmask (equivalently, the block whose least class index is largest)
    followed by the ranked partition of the rest, whose blocks must all
    contain a class below that block's least index.  Enumerating the first
    block by descending bitmask and recursing yields the whole stream in
    order without materializing it, so consumers may take a short prefix
    even when the total count is astronomical.

    For a first block with least index ``m1`` and ``t`` indices after it,
    the walk counts ``out`` up through ``range(1 << t)``: its set bits are
    the later indices left out of the block, the first one the most
    significant, so the block's own mask counts down.  A draw reads only
    the bits of ``out``, so it costs O(|left out|) in Python plus one set
    difference, not O(t): the stream's first draws leave out the fewest.

    ``l`` is checked at the call, before the first draw: it must be an
    ``int`` by exact type and non-negative.
    """
    _require_int("l", l, 0)

    def gen(avail: tuple[int, ...], upper: int) -> Iterator[tuple[Block, ...]]:
        # avail[0] < upper: a recursive call keeps avail[0] < avail[jpos] = upper,
        # and at the top every index is below l
        if not avail:
            yield ()
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
            whole = frozenset(avail[jpos:])
            for out in range(1 << t):
                # bit t - 1 - p of out leaves tail[p] out; low bits first
                left = []
                bits = out
                while bits:
                    low = bits & -bits
                    left.append(tail[t - low.bit_length()])
                    bits ^= low
                left.reverse()
                # head + left ascends, as the m1 >= upper break needs
                block = whole.difference(left)
                for sub in gen(head + tuple(left), m1):
                    yield (block,) + sub

    return gen(tuple(range(l)), l)
