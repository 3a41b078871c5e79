"""repro.pushexec -- the push-based fused execution backend.

The query-centric engine, next to the packet-based
:class:`~repro.engine.qpipe.QPipeEngine`.  Operator chains are compiled
into fused push pipelines (:mod:`repro.pushexec.fusion`,
:mod:`repro.pushexec.compiler`) that move whole tuple batches between
pipeline breakers in a single coroutine frame, instead of pulling every
batch through a stack of nested ``yield from`` iterators or routing it
through per-operator packet channels.

It runs the DBMS X persona (one process per query, sharing only through
the buffer pool) and the ``--engine pushed`` substitutions.  Its
schedule -- the storage-manager calls and CPU charges, in order -- is
the one the retired Volcano iterator operators issued: the recorded
table in ``tests/iterator_reference.json`` and the committed figure-cell
hashes pin it, so every figure value is reproduced bit-for-bit.
"""

from repro.pushexec.engine import PushEngine
from repro.pushexec.compiler import compile_plan

__all__ = ["PushEngine", "compile_plan"]
