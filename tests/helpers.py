"""Views of the value types that only tests read.

Each computes from a value a structure that the library itself does not
need: the cycles of a permutation as tuples, the membership masks of a
quotient frame's classes, and a tableau level's marker atoms.
"""


def cycles(p):
    """Disjoint cycles of the ``FinPerm`` ``p``, each starting at its least atom, sorted."""
    rest = dict(p._map)
    out = []
    for start in sorted(p._map):
        if start not in rest:
            continue
        cyc = [start]
        nxt = rest.pop(start)
        while nxt != start:
            cyc.append(nxt)
            nxt = rest.pop(nxt)
        out.append(tuple(cyc))
    return out


def masks(frame):
    """The membership pattern of each of ``frame.classes``: bit ``len(values) - 1 - i``
    is set when the class lies in ``values[i]``, so value 0 is the most significant bit."""
    top = len(frame.values) - 1
    membership = {}
    for i, v in enumerate(frame.values):
        bit = 1 << (top - i)
        for a in v:
            membership[a] = membership.get(a, 0) | bit
    return tuple(membership[next(iter(c))] for c in frame.classes)


def marker_row(tab, i):
    """The marker atoms of level ``i`` of the ``Tableau`` ``tab``, ascending."""
    return tuple(sorted(tab.marker_cycles[i].moved))
