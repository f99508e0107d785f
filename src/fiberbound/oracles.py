"""Built-in adversary oracles for the engines.

No honest boundedly finite-to-one oracle can exist on these domains, so
the built-ins are chosen to exercise both run outcomes: fresh witness
streams and ledger violations.  All of them are deterministic across
processes; pool oracles hash canonical serializations with md5 rather
than the salted builtin hash.  They read that text through
:meth:`FinPerm.to_cycles` and ``str`` of a :class:`FinitaryPartition`,
which write it once per value and keep it.

Each oracle that :func:`truncate_oracle`, :func:`pool_perm_oracle` and
:func:`pool_set_oracle` build keeps its answers for as long as that oracle
object lives, which on the command line is one run.  It computes each
distinct input once, and a re-ask costs one lookup and returns the answer
object it gave first, so an engine's audit, which still calls the oracle on
the same schedule, finds the recorded answer without comparing it.  Nothing
is kept across oracle objects: two built by the same call compute afresh.
:func:`min_block_oracle` already answers a re-ask in O(1) and keeps nothing.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Optional

from .errors import BudgetExceededError, ParseError, _require_int
from .partitions import FinitaryPartition
from .perms import FinPerm

# largest built-in pool: the set pool holds P*(P-1)/2 atoms, 36 MB at the cap
POOL_CAP = 1024


def _check_pool_size(pool_size: int) -> None:
    _require_int("pool size", pool_size, 1)
    if pool_size > POOL_CAP:
        raise BudgetExceededError(f"pool size {pool_size} is over the cap {POOL_CAP}")


def _stable_index(text: str, modulus: int) -> int:
    """The md5 digest of ``text``, read as a big-endian integer, modulo ``modulus``."""
    return int.from_bytes(hashlib.md5(text.encode("ascii")).digest(), "big") % modulus


def truncate_oracle(n: int) -> Callable[[FinPerm], FinPerm]:
    """Deflate each input onto its n least moved atoms, pushing it off the rest."""
    _require_int("n", n, 0)

    @functools.cache
    def oracle(s: FinPerm) -> FinPerm:
        if len(s._map) <= n:
            return s
        return s.deflate(set(sorted(s._map)[n:]))

    return oracle


def pool_perm_oracle(pool_size: int, n: int) -> Callable[[FinPerm], FinPerm]:
    """Hash inputs into a fixed pool of permutations moving at most n points.

    For n below 2 the only such permutation is the identity, so the pool
    collapses to it whatever size up to the cap is requested.
    """
    _check_pool_size(pool_size)
    _require_int("n", n, 0)
    if n < 2:
        pool = [FinPerm.identity()]
    else:
        pool = [FinPerm.cycle([0, i + 1]) for i in range(pool_size)]

    @functools.cache
    def oracle(s: FinPerm) -> FinPerm:
        return pool[_stable_index(s.to_cycles(), len(pool))]

    return oracle


# the one empty answer, so an oracle that answers it answers the same object
_NO_BLOCK: frozenset[int] = frozenset()


def min_block_oracle(p: FinitaryPartition) -> frozenset[int]:
    """The block of the least atom lying in a non-singleton block, or the
    empty set when there is none.

    It is the first block of the partition's kept canonical order, so the
    first ask about a partition sorts its blocks once and every later ask,
    as on each audit, is O(1) and answers the same object.
    """
    order = p._by_least()
    return order[0] if order else _NO_BLOCK


def pool_set_oracle(pool_size: int) -> Callable[[FinitaryPartition], frozenset[int]]:
    """Hash partitions into the fixed pool {}, {0}, {0,1}, ...

    It serves the violation path, not the steps: the partition engine's
    72k² + 1 seeds land in at most 1,024 pool sets, so some fiber
    overflows among them at every allowed pool size.  At pools 1,000 and
    1,024, over instances 0–8 and k = 1..4, only pool 1,000 at instance 7
    and k = 1 gets past the seeds to a step; ``min-block`` drives the steps.
    """
    _check_pool_size(pool_size)
    pool = [frozenset(range(i)) for i in range(pool_size)]

    @functools.cache
    def oracle(p: FinitaryPartition) -> frozenset[int]:
        return pool[_stable_index(str(p), len(pool))]

    return oracle


def from_spec(domain: str, spec: str, n: Optional[int] = None) -> Callable:
    """The built-in oracle named by a command-line ``spec``.

    ``domain`` is ``"perm"``, where the specs are ``truncate`` and ``pool:P``
    and both answer with permutations moving at most ``n`` points, or
    ``"part"``, where they are ``min-block`` and ``pool:P``.  ``P`` is written
    in ASCII digits only, so no sign, space, underscore or other script
    spells a size; leading zeros are ignored.
    """
    if domain == "perm":
        named = "truncate"
        if spec == named:
            return truncate_oracle(n)
    elif domain == "part":
        named = "min-block"
        if spec == named:
            return min_block_oracle
    else:
        raise ValueError(f"domain must be 'perm' or 'part', got {domain!r}")
    if not spec.startswith("pool:"):
        raise ParseError(f"unknown diag-{domain} oracle {spec!r} (use {named} or pool:P)")
    digits = spec[len("pool:"):]
    # int() would also take a sign, spaces, underscores and non-ASCII digits
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"pool size must be an integer, got {spec!r}")
    # a size with more digits than the cap is over it, and int() refuses one
    # past its digit limit, so it is refused here by its length alone; the
    # message echoes a short size and only counts the digits of a long one
    size = digits.lstrip("0") or "0"
    if len(size) > len(str(POOL_CAP)):
        shown = size if len(size) <= 20 else f"of {len(size)} digits"
        raise BudgetExceededError(f"pool size {shown} is over the cap {POOL_CAP}")
    if domain == "perm":
        return pool_perm_oracle(int(size), n)
    return pool_set_oracle(int(size))
