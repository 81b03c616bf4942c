"""NoCSan: static and runtime correctness tooling for the simulator.

The paper's headline numbers (MTTF, latency, energy efficiency) are only
as credible as the simulator's conservation laws, and PR 1's
content-addressed result cache additionally requires every run to be a
bit-reproducible pure function of its spec.  This package holds the two
halves of the tooling that proves both properties:

* **static** (:mod:`repro.analysis.lint`) — an AST linter with
  project-specific rule families: ``NOC1xx`` determinism rules (no
  ambient randomness or wall-clock reads inside the simulator, no
  iteration over unordered sets on hot paths, no mutable default
  arguments), ``NOC2xx`` layering rules (simulation packages never reach
  the campaign/CLI/report layers, no import cycles), and ``NOC3xx``
  safety rules (no bare ``except``, no float equality in simulation
  logic).  Run it with ``python -m repro lint``; its options are defined
  in :mod:`repro.analysis.lint_options`, which loads no part of it.
* **runtime** (:mod:`repro.analysis.sanitizer`) — :class:`NocSanitizer`,
  cheap opt-in invariant checks threaded through ``Network.step()``
  behind ``REPRO_SANITIZE=1`` / ``--sanitize``: flit conservation,
  per-VC credit conservation, VC owners and records, gated routers
  never holding buffered flits, Q-table finiteness, and a deadlock
  watchdog that dumps a structured network snapshot when no flit makes
  progress.

``docs/analysis.md`` catalogues every rule and invariant.  Each half is
imported by its own module path and nothing is re-exported here, so the
sanitizer a simulation loads never loads the linter, and the linter never
loads the simulator.
"""
