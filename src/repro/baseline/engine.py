"""The former name of the query-centric engine, kept for importers."""

from repro.pushexec import PushEngine

IteratorEngine = PushEngine
