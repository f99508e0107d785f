"""Constructive combinatorics of boundedly finite-to-one functions.

Import from the modules; the package itself exports only ``__version__``.
Over a countable atom universe they provide:

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
  :class:`fiberbound.auditing.WitnessEngine`, which builds the seeds from
  atom pairs and owns the query loop, the fiber ledger and the two run
  outcomes, so an engine supplies only a seed constructor with its text
  template, its codomain check, ``step`` and its certificate header;
* an orbit-weighted support-probe scanner refuting finite-to-one assignments
  between fixed moved-point sizes under the conjugation action
  (:mod:`fiberbound.fraenkel`).
"""

__version__ = "0.1.0"
