"""Constructive combinatorics of boundedly finite-to-one functions.

The package provides, over a countable atom universe:

* finitely supported permutations with cycle notation and the orbit
  restriction operator (:mod:`fiberbound.perms`);
* finitary partitions, quotient frames, and ordered partition
  enumeration (:mod:`fiberbound.partitions`);
* an explicit injection from n-point permutations into m-point ones for
  every ``m >= n + 2``, with a certified decoder (:mod:`fiberbound.inject`);
* witness engines that, run against any claimed bounded-fiber oracle out
  of the permutations or the finitary partitions, either stream pairwise
  distinct new values forever or emit a concrete fiber-overflow
  certificate (:mod:`fiberbound.perm_engine`,
  :mod:`fiberbound.partition_engine`); both run on one driver,
  :class:`fiberbound.auditing.WitnessEngine`, which owns the query loop,
  the fiber ledger and the two run outcomes;
* an exhaustive support-probe scanner refuting finite-to-one assignments
  between fixed moved-point sizes under the conjugation action
  (:mod:`fiberbound.fraenkel`).
"""

from .atoms import SetSpec, format_atom_set, fresh_atoms, parse_atom_set
from .auditing import (BoundParams, OracleLedger, Violation, assemble_certificate,
                       compute_bounds, moved_set_adapter)
from .fraenkel import (ExtraOutside, ForcedFixedPoint, MissingMoved, PreconditionFail,
                       SupportConfig, classify, scan)
from .inject import EncodeTrace, Tableau, decode, encode
from .partition_engine import PartitionDiagEngine, run_partition_diag, seed_partitions
from .partitions import (FinitaryPartition, QuotientFrame, bell, build_frame, derangement,
                         enumerate_partitions_ranked, iter_partitions_ranked,
                         iter_partitions_rgs, lift, partition_sort_key)
from .perm_engine import PermDiagEngine, build_family, run_perm_diag, seed_transpositions
from .perms import FinPerm

__version__ = "0.1.0"

__all__ = [
    "BoundParams", "EncodeTrace", "ExtraOutside", "FinPerm", "FinitaryPartition",
    "ForcedFixedPoint", "MissingMoved", "OracleLedger", "PartitionDiagEngine",
    "PermDiagEngine", "PreconditionFail", "QuotientFrame", "SetSpec", "SupportConfig",
    "Tableau", "Violation", "assemble_certificate", "bell", "build_family", "build_frame",
    "classify", "compute_bounds", "decode", "derangement", "encode",
    "enumerate_partitions_ranked", "format_atom_set", "fresh_atoms", "iter_partitions_ranked",
    "iter_partitions_rgs", "lift", "moved_set_adapter", "parse_atom_set", "partition_sort_key",
    "run_partition_diag", "run_perm_diag", "scan", "seed_partitions", "seed_transpositions",
]
