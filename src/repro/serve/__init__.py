"""Scheduling-as-a-service: a long-lived daemon with a content-addressed
schedule cache (``repro serve``, see ``docs/SERVING.md``).

The pipeline turns one-shot library calls into a service:

- :mod:`repro.serve.canonical` — isomorphism-safe canonical forms; the
  sha256 **canonical digest** that keys the cache, invariant under node
  renaming so relabeled-but-identical kernels hit;
- :mod:`repro.serve.protocol` — the JSON wire format (requests, responses,
  trace/machine codecs, :class:`ProtocolError`);
- :mod:`repro.serve.cache` — :class:`ScheduleCache`, a bounded in-memory
  LRU over an append-only on-disk JSONL store, instrumented with
  ``serve.cache.{hit,miss,evict}``;
- :mod:`repro.serve.worker` — the module-level (picklable) compute
  function dispatched through :class:`repro.robust.ExecutionPool`;
- :mod:`repro.serve.service` — :class:`ScheduleService`, the
  transport-independent brain: decode, canonicalize, dedupe, cache
  lookup, pooled compute, per-request telemetry;
- :mod:`repro.serve.daemon` — :class:`ScheduleServer`, the asyncio
  front-end (unix-socket JSONL and minimal HTTP) with continuous dispatch;
- :mod:`repro.serve.client` — blocking clients for both transports;
- :mod:`repro.serve.harness` — the end-to-end daemon harness CI runs:
  ``repro serve-smoke``, and ``repro serve-chaos``, the smoke's cold phase
  under a :class:`~repro.robust.faults.FaultPlan`.
"""
