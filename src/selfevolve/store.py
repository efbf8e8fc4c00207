"""Durable run manifests and an append-only event log.

Layout: <root>/<run_id>/manifest.json plus <root>/<run_id>/events.log with one
JSON record per line. Appends are serialized by a single writer lock; an
IterationCommitted event is the sole authority for a record's existence, so a
crash mid-iteration simply loses that iteration and nothing else. A trailing
partial line, or an unparseable last line, is treated as an interrupted write
and discarded on load; anything else malformed is a corrupt log. Reads stream
the log one line at a time and keep only the parsed events; an append handle
keeps none once its opener has rebuilt the trials from them.

Schema 2 appends one IterationCommitted {record, calls} per iteration, then
TrialExited and RunFinalized; schema 1 logs, which also hold per-call events,
still load because rebuilding reads only the commit kinds.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

SCHEMA_VERSION = 2

SYNC_MODES = ("always", "flush")


class StoreUnavailable(Exception):
    pass


class RunFinalized(Exception):
    """Append attempted on a finalized run."""


class CorruptLog(Exception):
    def __init__(self, message: str, valid_prefix_events: int):
        super().__init__(f"{message} (last valid prefix: {valid_prefix_events} events)")
        self.valid_prefix_events = valid_prefix_events


@dataclass
class Event:
    seq: int
    trial_id: tuple[str, int] | None
    kind: str
    payload: dict
    ts: float


def run_dir(root: str | Path, run_id: str) -> Path:
    return Path(root) / run_id


class RunLog:
    """Single-writer append handle for one run's event log.

    sync="always" fsyncs every append; "flush" leaves appends to the OS. In
    both modes, opening a log fsyncs the truncation of an interrupted tail, and
    strict prefix semantics hold under truncation. The events parsed on open
    are in `events` until the opener drops them, so a resume reads the log
    once and holds the parse only while it rebuilds.
    """

    def __init__(self, path: Path, sync: str = "always"):
        if sync not in SYNC_MODES:
            raise ValueError(f"unknown sync mode {sync!r}")
        self._path = path
        self._sync = sync
        self._lock = threading.Lock()
        self._next_seq = 1
        self.finalized = False
        self.events: list[Event] = []
        if path.exists():
            events, valid = _read_events(path)
            self.events = events
            if events:
                self._next_seq = events[-1].seq + 1
                self.finalized = any(e.kind == "RunFinalized" for e in events)
            if valid < path.stat().st_size:
                # drop the interrupted final write so new appends start on a
                # fresh line instead of extending the partial one
                with open(path, "r+b") as fh:
                    fh.truncate(valid)
                    fh.flush()
                    os.fsync(fh.fileno())
        try:
            self._fh = open(path, "a", encoding="utf-8")
        except OSError as e:
            raise StoreUnavailable(str(e)) from e

    def append(self, kind: str, payload: dict, trial_id: tuple[str, int] | None = None) -> int:
        """Write one event; it is durable (per sync mode) before returning."""
        with self._lock:
            if self.finalized:
                raise RunFinalized("cannot append to a finalized run")
            seq = self._next_seq
            record = {
                "seq": seq,
                "ts": time.time(),
                "trial": list(trial_id) if trial_id is not None else None,
                "kind": kind,
                "payload": payload,
            }
            try:
                self._fh.write(_encode(record) + "\n")
                self._fh.flush()
                if self._sync == "always":
                    os.fsync(self._fh.fileno())
            except OSError as e:
                raise StoreUnavailable(str(e)) from e
            self._next_seq = seq + 1
            if kind == "RunFinalized":
                self.finalized = True
            return seq

    def close(self) -> None:
        self._fh.close()


# the engine's payloads hold no cycles, and skipping the check is faster
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_decode = json.JSONDecoder().decode


def _read_events(path: Path) -> tuple[list[Event], int]:
    """Parse the log a line at a time; returns (events, byte length of the
    valid prefix)."""
    events: list[Event] = []
    valid = 0
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                break  # the last write was cut
            try:
                d = _decode(line.decode("utf-8"))
                if type(d["seq"]) is not int:  # a bool or a float too
                    raise TypeError(f"seq {d['seq']!r} is not an integer")
                ev = Event(
                    seq=d["seq"],
                    trial_id=tuple(d["trial"]) if d["trial"] is not None else None,
                    kind=d["kind"],
                    payload=d["payload"],
                    ts=d["ts"],
                )
            except (ValueError, KeyError, TypeError) as e:
                if not fh.read(1):
                    break  # an unparseable last line is an interrupted write
                raise CorruptLog(f"unparseable event at line {n}: {e}", len(events)) from e
            expected = events[-1].seq + 1 if events else ev.seq
            if ev.seq != expected:
                raise CorruptLog(
                    f"sequence gap: expected {expected}, found {ev.seq}", len(events)
                )
            events.append(ev)
            valid += len(line)
    return events, valid


class RunStore:
    """Run directory manager: manifests, logs, reconstruction."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def create_run(self, run_id: str, manifest: dict) -> None:
        d = run_dir(self.root, run_id)
        if d.exists():
            raise StoreUnavailable(f"run {run_id} already exists")
        d.mkdir(parents=True)
        manifest = dict(manifest, schema_version=SCHEMA_VERSION)
        tmp = d / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, d / "manifest.json")

    def manifest(self, run_id: str) -> dict:
        path = run_dir(self.root, run_id) / "manifest.json"
        if not path.exists():
            raise StoreUnavailable(f"no manifest for run {run_id}")
        return json.loads(path.read_text(encoding="utf-8"))

    def open_log(self, run_id: str, sync: str = "always") -> RunLog:
        d = run_dir(self.root, run_id)
        if not d.exists():
            raise StoreUnavailable(f"run {run_id} does not exist")
        return RunLog(d / "events.log", sync=sync)

    def events(self, run_id: str) -> list[Event]:
        path = run_dir(self.root, run_id) / "events.log"
        if not path.exists():
            return []
        events, _ = _read_events(path)
        return events

    def load_run(self, run_id: str):
        """Rebuild (manifest, trial states) purely from committed events."""
        from .engine import rebuild_trial_states  # local import to avoid a cycle

        manifest = self.manifest(run_id)
        events = self.events(run_id)
        states = rebuild_trial_states(manifest, events)
        return manifest, states
