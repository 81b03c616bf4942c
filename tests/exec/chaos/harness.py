"""Chaos harness: deterministic, seeded fault injection for the executors.

The resilience machinery (failure policies, retries, journal/resume, the
``BrokenProcessPool`` rebuild) is only trustworthy if every recovery path
is *driven*.  ``ChaosCellFn`` wraps the executor's cell function with
policy-driven worker crashes (``os._exit``), hangs (a sleep past
``timeout_s``), transient exceptions and permanently doomed cells.  Store
faults need no harness: ``tests/exec/test_engine.py`` and ``test_store.py``
damage the artifact or the ``put`` directly.

Every decision is a pure function of ``(policy.seed, spec hash, attempt)``
(a blake2b hash, :func:`_unit_uniform`), so a drill is exactly
reproducible.  Attempt counting crosses process boundaries through a ledger
of files under ``state_dir`` (a crashed worker cannot report back any other
way), and ``max_faults_per_cell`` caps the injected faults per cell so a
retry budget of one always suffices for the non-doomed cells.

Test code, beside its only user ``test_chaos.py``; docs/resilience.md has
the drill recipes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.exec.spec import CellSpec
from repro.exec.worker import execute_job

#: Exit status of a chaos-crashed worker (distinctive in core-dump triage).
CHAOS_EXIT_CODE = 23


def _unit_uniform(*parts: object) -> float:
    """Deterministic uniform in [0, 1) from the hashed *parts*.

    blake2b, not ``hash()``: Python's builtin hash is salted per process
    and would make chaos decisions irreproducible.
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded description of which faults to inject, and how often.

    ``state_dir`` holds the cross-process attempt/fault ledger and must be
    shared by every worker (pass a fresh temp dir per drill).  Rates are
    evaluated per (cell, attempt) against deterministic uniforms; the
    ``doomed`` tuple lists spec content hashes that fail every attempt
    regardless of rates or the fault cap.
    """

    state_dir: str
    seed: int = 0
    crash_rate: float = 0.0  # hard worker exit (os._exit)
    hang_rate: float = 0.0  # stall long enough to trip timeout_s
    hang_s: float = 5.0
    transient_rate: float = 0.0  # plain retryable exception
    doomed: tuple[str, ...] = ()  # spec hashes that always fail
    #: Injected-fault budget per cell (doomed cells exempt): once spent,
    #: the cell runs clean, so ``retries >= max_faults_per_cell`` always
    #: recovers.
    max_faults_per_cell: int = 1

    def uniform(self, kind: str, spec_hash: str, attempt: int = 0) -> float:
        return _unit_uniform(self.seed, kind, spec_hash, attempt)

    # --- the cross-process ledger --------------------------------------------

    def _ledger_path(self, spec_hash: str) -> Path:
        return Path(self.state_dir) / f"chaos-{spec_hash}.json"

    def _ledger_read(self, spec_hash: str) -> dict[str, int]:
        try:
            raw = json.loads(self._ledger_path(spec_hash).read_text())
            return {"attempts": int(raw["attempts"]), "faults": int(raw["faults"])}
        except (OSError, ValueError, KeyError, TypeError):
            return {"attempts": 0, "faults": 0}

    def _ledger_write(self, spec_hash: str, entry: dict[str, int]) -> None:
        # Atomic: a broken pool kills its other workers at any instruction,
        # and a ledger truncated mid-write would read back as a fresh cell
        # with its fault budget restored.
        path = self._ledger_path(spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry))
        os.replace(tmp, path)

    def next_attempt(self, spec_hash: str) -> tuple[int, bool]:
        """Record one attempt; return (attempt index, fault budget left).

        The ledger is written *before* any fault fires so a hard crash
        still counts — that is the whole point of keeping it on disk.
        """
        entry = self._ledger_read(spec_hash)
        entry["attempts"] += 1
        budget_left = entry["faults"] < self.max_faults_per_cell
        self._ledger_write(spec_hash, entry)
        return entry["attempts"], budget_left

    def charge_fault(self, spec_hash: str) -> None:
        entry = self._ledger_read(spec_hash)
        entry["faults"] += 1
        self._ledger_write(spec_hash, entry)

    def pick_fault(self, spec_hash: str, attempt: int) -> str | None:
        """Deterministically choose this attempt's fault, if any."""
        u = self.uniform("fault", spec_hash, attempt)
        edge = 0.0
        for kind, rate in (
            ("crash", self.crash_rate),
            ("hang", self.hang_rate),
            ("transient", self.transient_rate),
        ):
            edge += rate
            if u < edge:
                return kind
        return None


class ChaosError(RuntimeError):
    """An injected (retryable) cell failure."""


class ChaosCellFn:
    """Picklable cell function injecting faults ahead of the real one.

    Instances cross process boundaries (the executor's pool pickles the
    callable), so all mutable state lives in the policy's ``state_dir``.
    """

    def __init__(
        self,
        policy: ChaosPolicy,
        fn: Callable[..., dict[str, Any]] = execute_job,
    ):
        self.policy = policy
        self.fn = fn

    def __call__(self, spec: CellSpec, *inputs: Any) -> dict[str, Any]:
        policy = self.policy
        h = spec.content_hash()
        if h in policy.doomed:
            raise ChaosError(f"chaos: cell {spec.label} is doomed")
        attempt, budget_left = policy.next_attempt(h)
        fault = policy.pick_fault(h, attempt) if budget_left else None
        if fault is not None:
            policy.charge_fault(h)
            if fault == "crash":
                os._exit(CHAOS_EXIT_CODE)
            if fault == "hang":
                # Long enough to trip a configured timeout_s; if no timeout
                # was set the hang degrades to a slow transient failure.
                time.sleep(policy.hang_s)
                raise ChaosError(f"chaos: cell {spec.label} hung {policy.hang_s}s")
            raise ChaosError(f"chaos: transient fault on {spec.label}")
        return self.fn(spec, *inputs)
