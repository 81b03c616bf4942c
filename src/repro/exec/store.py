"""Store layer: on-disk content-addressed cache of run artifacts.

Each finished cell is persisted as one JSON artifact under
``<cache_dir>/<hash[:2]>/<hash>.json`` where ``hash`` is the spec's
content hash.  The artifact embeds the canonical spec next to the metrics,
so a cache entry is self-describing and can be audited or post-processed
(the figure renderers are pure functions over exactly this data).

Each finished pre-training job is persisted as ``<hash>.policy``: one line
of JSON (the same fields, the canonical spec included, plus the SHA-256 of
what follows) and then the policy artefact's bytes
(:mod:`repro.rl.persistence`).

The job that stopped a campaign is persisted as ``<hash>.failure.json``:
the canonical spec, the cause and the traceback, for the reader — no
run reads it back.  Results and policies, written the moment each job
lands, are the one record of a campaign's progress, so rerunning a
campaign on the same store resumes it.

Reads are defensive: a missing, corrupted, schema-mismatched or
spec-mismatched file is treated as a miss and the job runs again — a
broken cache can cost time but never wrong results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import canonical_json
from repro.exec.spec import SPEC_SCHEMA_VERSION, Job, PretrainSpec

#: Artifact schema; bump on incompatible layout changes.
STORE_SCHEMA_VERSION = 1

#: How :attr:`AuditEntry.problem` starts for an intact result keyed under
#: another ``SPEC_SCHEMA_VERSION``.
UNREACHABLE = "unreachable"

#: A post-mortem's filename after its spec hash.
FAILURE_SUFFIX = ".failure.json"


@dataclass(frozen=True)
class AuditEntry:
    """One artifact inspected by :meth:`ResultStore.audit`."""

    path: Path
    spec_hash: str  # from the filename
    kind: str  # "result" | "policy" | "failure"
    problem: str = ""  # empty when healthy

    @property
    def healthy(self) -> bool:
        return not self.problem


@dataclass
class StoreAudit:
    """Outcome of one full store verification pass."""

    checked: int = 0
    healthy: int = 0
    corrupt: list[AuditEntry] = field(default_factory=list)
    #: Failure post-mortems whose cell has since succeeded (a healthy
    #: result artifact exists for the same hash) — history, prunable.
    stale_failures: list[AuditEntry] = field(default_factory=list)
    #: Intact artifacts keyed under another
    #: ``SPEC_SCHEMA_VERSION``: no spec this code builds hashes to them, so
    #: they can never be hit again — not damage (``ok`` ignores them),
    #: prunable.
    unreachable: list[AuditEntry] = field(default_factory=list)
    failures: int = 0  # failure artifacts seen (stale or not)

    @property
    def ok(self) -> bool:
        return not self.corrupt


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME``/``~/.cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "intellinoc-repro"


class ResultStore:
    """Content-addressed job cache (one artifact per cell or policy)."""

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        # Fail fast on an unusable location (e.g. a path that is a file)
        # rather than after the simulation work is already done.
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"result cache path {self.cache_dir} is not a directory"
            ) from exc

    def path_for(self, spec: Job) -> Path:
        h = spec.content_hash()
        suffix = ".policy" if isinstance(spec, PretrainSpec) else ".json"
        return self.cache_dir / h[:2] / f"{h}{suffix}"

    def failure_path_for(self, spec: Job) -> Path:
        h = spec.content_hash()
        return self.cache_dir / h[:2] / f"{h}{FAILURE_SUFFIX}"

    def get(self, spec: Job) -> dict[str, Any] | None:
        """The stored artifact payload for *spec*, or None on any defect."""
        path = self.path_for(spec)
        kind = "policy" if isinstance(spec, PretrainSpec) else "result"
        problem, artifact, blob = self._check_artifact(path, path.stem, kind)
        # Guard against (vanishingly unlikely) hash collisions: the
        # embedded spec must match byte for byte.
        if problem or artifact["spec"] != spec.canonical():
            return None
        return {"policy": blob} if kind == "policy" else artifact["payload"]

    def put(self, spec: Job, payload: dict[str, Any]) -> Path:
        """Atomically persist a finished job's artifact."""
        artifact = {
            "schema": STORE_SCHEMA_VERSION,
            "spec_hash": spec.content_hash(),
            "spec": spec.canonical(),
        }
        if isinstance(spec, PretrainSpec):
            blob = payload["policy"]
            artifact["sha256"] = hashlib.sha256(blob).hexdigest()
            data = json.dumps(artifact, sort_keys=True).encode() + b"\n" + blob
        else:
            artifact["payload"] = payload
            data = json.dumps(artifact, sort_keys=True).encode()
        return self._write_atomic(self.path_for(spec), data)

    def put_failure(self, spec: Job, cause: str, traceback_text: str = "") -> Path:
        """Persist a job's failure (cause + full traceback) next to where
        its artifact would live, as ``<hash>.failure.json``.

        ``get`` never reads them, so a rerun executes the job again, and
        a later successful run leaves the record behind as history: a
        flaky cell's last crash stays auditable until ``prune``.
        """
        path = self.failure_path_for(spec)
        artifact = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "failure",
            "spec_hash": spec.content_hash(),
            "spec": spec.canonical(),
            "cause": cause,
            "traceback": traceback_text,
        }
        return self._write_atomic(path, json.dumps(artifact, sort_keys=True).encode())

    def _write_atomic(self, path: Path, data: bytes) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # --- maintenance (the `repro cache` subcommand) ---------------------------

    def _artifact_paths(self) -> list[Path]:
        # A campaign log is .jsonl, and torn writes are .tmp leftovers.
        return sorted(
            p for p in self.cache_dir.rglob("*") if p.suffix in (".json", ".policy")
        )

    def _check_artifact(
        self, path: Path, stem_hash: str, kind: str
    ) -> tuple[str, dict[str, Any], bytes]:
        """One artifact of *kind* read and checked: the problem ("" if
        healthy), the parsed JSON and, for a policy, the bytes after it.

        Re-hashes the embedded canonical spec, and a policy's bytes, so
        bit-rot anywhere in the file — not just in the JSON framing — is
        caught.  The one reader of a stored artifact: ``get`` serves what
        it passes, ``audit`` reports what it finds.
        """
        try:
            head, blob = _split(path.read_bytes(), path)
            artifact = json.loads(head)
        except OSError as exc:
            return f"unreadable: {exc}", {}, b""
        except ValueError:
            return "unparsable JSON", {}, b""
        if not isinstance(artifact, dict):
            return "not a JSON object", {}, b""
        return _problem(artifact, blob, stem_hash, kind), artifact, blob

    def audit(self) -> StoreAudit:
        """Verify every artifact: re-hash results, classify failures."""
        audit = StoreAudit()
        for path in self._artifact_paths():
            if path.name.endswith(FAILURE_SUFFIX):
                stem, kind = path.name[: -len(FAILURE_SUFFIX)], "failure"
                audit.failures += 1
            else:
                stem = path.stem
                kind = "policy" if path.suffix == ".policy" else "result"
            problem, _, _ = self._check_artifact(path, stem, kind)
            entry = AuditEntry(path, stem, kind, problem)
            audit.checked += 1
            if entry.problem.startswith(UNREACHABLE):
                audit.unreachable.append(entry)
            elif not entry.healthy:
                audit.corrupt.append(entry)
            elif kind == "failure" and any(
                (path.parent / f"{stem}{suffix}").exists()
                for suffix in (".json", ".policy")
            ):
                audit.stale_failures.append(entry)
            else:
                audit.healthy += 1
        return audit

    def prune(self) -> tuple[int, int, int]:
        """Drop corrupt entries, stale failure post-mortems and unreachable
        results.

        Returns ``(corrupt_removed, stale_failures_removed,
        unreachable_removed)``.  None of them could be served anyway;
        pruning just reclaims the disk and silences ``verify``.
        """
        def unlink_all(entries: list[AuditEntry]) -> int:
            removed = 0
            for entry in entries:
                try:
                    entry.path.unlink()
                    removed += 1
                except OSError:
                    pass
            return removed

        audit = self.audit()
        return (
            unlink_all(audit.corrupt),
            unlink_all(audit.stale_failures),
            unlink_all(audit.unreachable),
        )


def _problem(artifact: dict[str, Any], blob: bytes, stem_hash: str, kind: str) -> str:
    if artifact.get("schema") != STORE_SCHEMA_VERSION:
        return f"schema {artifact.get('schema')!r} != {STORE_SCHEMA_VERSION}"
    spec = artifact.get("spec")
    if not isinstance(spec, dict):
        return "missing embedded spec"
    rehashed = hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()
    if rehashed != stem_hash:
        return f"content hash mismatch (re-hash {rehashed[:12]}…)"
    if kind == "policy":
        if artifact.get("sha256") != hashlib.sha256(blob).hexdigest():
            return "policy bytes do not match their digest"
    elif kind == "failure":
        if artifact.get("kind") != "failure":
            return "not a failure post-mortem"
    else:
        payload = artifact.get("payload")
        if not isinstance(payload, dict) or "metrics" not in payload:
            return "payload missing metrics"
    if spec.get("schema") != SPEC_SCHEMA_VERSION:
        return (
            f"{UNREACHABLE}: spec schema {spec.get('schema')!r} "
            f"!= {SPEC_SCHEMA_VERSION}"
        )
    return ""


def _split(data: bytes, path: Path) -> tuple[bytes, bytes]:
    """A policy artifact's JSON line and the bytes after it; a result
    artifact is all JSON."""
    if path.suffix != ".policy":
        return data, b""
    head, _, blob = data.partition(b"\n")
    return head, blob
