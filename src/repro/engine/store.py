"""Checkpointed JSONL result store.

Every finished trial is appended as one JSON line and flushed, so a
killed sweep loses at most the trial that was in flight.  The first line
is a header carrying the spec's fingerprint; resuming with a *different*
spec against the same file is refused rather than silently mixing
experiments.  A truncated final line (the kill case) is tolerated and
dropped on load.

``MemoryStore`` offers the same interface without touching disk, for
engine-as-a-library callers (``evaluate_all_mitigations``, benchmarks)
that don't need checkpointing.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.engine.spec import SweepSpec
from repro.errors import ConfigError

HEADER_KEY = "sweep_header"


#: Record fields that legitimately differ between two equivalent runs:
#: ``elapsed`` is wall-clock (differs even between two serial runs), and
#: ``error`` tracebacks embed the executor's own stack frames (serial and
#: pool worker frames spell differently).
NONDETERMINISTIC_FIELDS = ("elapsed", "error")


def canonical_record(record: Dict[str, Any]) -> str:
    """A record's canonical JSON, minus the fields two equivalent runs
    may legitimately disagree on (see ``NONDETERMINISTIC_FIELDS``).

    Byte-equality claims between two result files (two runs of one
    spec, or a resumed run against an uninterrupted one) are stated over
    this canonical form: every other field — status, params, seed, the
    full result dict, attempt counts — and the record order in the file
    must match exactly.  A pooled run writes records in completion order,
    so it is compared with a serial one through the summary instead.
    Note ``status`` stays: a trial that fails in one run must fail in
    the other.
    """
    trimmed = {
        k: v for k, v in record.items() if k not in NONDETERMINISTIC_FIELDS
    }
    return json.dumps(trimmed, sort_keys=True)


def diff_result_files(path_a: str, path_b: str) -> List[str]:
    """Compare two sweep result files record-by-record, canonically.

    Returns human-readable difference lines (empty = files agree).  The
    header line is compared on everything but, like records, nothing
    wall-clock; records must match in content *and* order.
    """

    def load(path: str):
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().split("\n") if line.strip()]
        if not lines:
            raise ConfigError("%s is empty" % path)
        header = json.loads(lines[0]).get(HEADER_KEY)
        if header is None:
            raise ConfigError("%s is not a sweep result file" % path)
        return header, [json.loads(line) for line in lines[1:]]

    header_a, records_a = load(path_a)
    header_b, records_b = load(path_b)
    diffs: List[str] = []
    if header_a != header_b:
        diffs.append(
            "header mismatch: %s != %s"
            % (json.dumps(header_a, sort_keys=True),
               json.dumps(header_b, sort_keys=True))
        )
    if len(records_a) != len(records_b):
        diffs.append(
            "record count mismatch: %d != %d" % (len(records_a), len(records_b))
        )
    for position, (rec_a, rec_b) in enumerate(zip(records_a, records_b)):
        if canonical_record(rec_a) != canonical_record(rec_b):
            diffs.append(
                "record %d (%s vs %s) differs:\n  a: %s\n  b: %s"
                % (
                    position,
                    rec_a.get("trial_id"),
                    rec_b.get("trial_id"),
                    canonical_record(rec_a),
                    canonical_record(rec_b),
                )
            )
    return diffs


class MemoryStore:
    """In-memory result store: same interface, no persistence."""

    path: Optional[str] = None

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []

    def open(self, spec: SweepSpec) -> Dict[str, Dict[str, Any]]:
        """Prepare for a run; returns completed (``status == "ok"``)
        records keyed by trial id (always empty for a fresh store)."""
        return {
            record["trial_id"]: record
            for record in self._records
            if record.get("status") == "ok"
        }

    def append_many(self, records: List[Dict[str, Any]]) -> None:
        self._records.extend(records)

    def records(self) -> List[Dict[str, Any]]:
        return list(self._records)

    def close(self) -> None:
        pass


class ResultStore:
    """JSONL-backed store with checkpoint/resume."""

    def __init__(self, path: str, fresh: bool = False):
        self.path = path
        self._fresh = fresh
        self._handle = None
        self._records: List[Dict[str, Any]] = []

    # -- loading --------------------------------------------------------

    def _load_lines(self, spec: SweepSpec) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        with open(self.path, "rb") as handle:
            raw = handle.read()
        good_end = 0
        for index, line_bytes in enumerate(raw.split(b"\n")):
            line = line_bytes.decode("utf-8", errors="replace").strip()
            if line:
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn final line from a killed run is expected; drop
                    # it (and truncate below, so appends start clean).
                    break
                if index == 0:
                    header = record.get(HEADER_KEY)
                    if header is None:
                        raise ConfigError(
                            "%s is not a sweep result file" % self.path
                        )
                    if header.get("fingerprint") != spec.fingerprint():
                        raise ConfigError(
                            "result file %s belongs to a different spec "
                            "(sweep %r, fingerprint %s != %s); use a fresh "
                            "output path or --fresh"
                            % (
                                self.path,
                                header.get("name"),
                                header.get("fingerprint"),
                                spec.fingerprint(),
                            )
                        )
                else:
                    records.append(record)
            good_end += len(line_bytes) + 1
        good_end = min(good_end, len(raw))
        if good_end < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
        return records

    def open(self, spec: SweepSpec) -> Dict[str, Dict[str, Any]]:
        """Open (creating or resuming) and return completed records keyed
        by trial id.  Failed records are *not* returned: they re-run."""
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if exists and not self._fresh:
            self._records = self._load_lines(spec)
            self._handle = open(self.path, "a", encoding="utf-8")
        else:
            self._records = []
            self._handle = open(self.path, "w", encoding="utf-8")
            header = {
                HEADER_KEY: {
                    "name": spec.name,
                    "kind": spec.kind,
                    "seed": spec.seed,
                    "fingerprint": spec.fingerprint(),
                    "total_trials": spec.total_trials,
                }
            }
            self._write_line(header)
        completed: Dict[str, Dict[str, Any]] = {}
        for record in self._records:
            if record.get("status") == "ok":
                completed[record["trial_id"]] = record
        return completed

    # -- writing --------------------------------------------------------

    def _write_line(self, obj: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(obj, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise ConfigError("store not opened")
        self._records.append(record)
        self._write_line(record)

    def append_many(self, records: List[Dict[str, Any]]) -> None:
        """Append a batch with one flush+fsync for the lot.

        The engine checkpoints every sweep this way, one
        :data:`~repro.engine.pool.BATCH_RECORDS` chunk at a time, so a
        kill loses at most the chunk in flight.  Bytes written are
        identical to ``append`` called in a loop.
        """
        if self._handle is None:
            raise ConfigError("store not opened")
        if not records:
            return
        self._records.extend(records)
        self._handle.write(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def records(self) -> List[Dict[str, Any]]:
        return list(self._records)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
