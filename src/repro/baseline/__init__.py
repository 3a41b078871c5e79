"""The conventional "one-query, many-operators" personas (the comparators).

The paper compares QPipe against the query-centric architecture of
Figure 5a: each query executes as a single process, queries know nothing
about each other, and the only cross-query sharing is whatever the
buffer pool provides.  That behaviour comes from the storage-manager
settings, not from the operator loop, so both personas run on existing
engines (see :func:`repro.harness.config.make_engine`):

* **Baseline** -- the paper's "BerkeleyDB-based QPipe implementation with
  OSP disabled": the QPipe engine with ``osp_enabled=False`` over an LRU
  pool.
* **DBMS X** -- the anonymous commercial system: one push pipeline per
  query (:class:`~repro.pushexec.PushEngine`, named ``"dbms-x"``) over a
  stronger, scan-resistant pool (ARC) with a shared scan window.
"""
