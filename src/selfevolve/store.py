"""Durable run manifests and an append-only event log.

Layout: <root>/<run_id>/manifest.json plus <root>/<run_id>/events.log with one
JSON event per line, numbered from 1 by its seq. Appends are serialized by a
single writer lock. A trailing partial line, or an unparseable last line, is
treated as an interrupted write and discarded on load; anything else malformed
is a corrupt log. The store frames lines (seq, ts, the valid prefix) and
nothing more: a read streams the log and returns each line's parsed object,
with its trial made a tuple; an append handle keeps none once its opener has
rebuilt the trials. What kind and payload mean is the engine's schema.

A manifest is stamped on creation with config_hash, over its config, and
inputs_hash, over its run seed, trial count and problems; every read checks
them, so a resume continues the chains the run started.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

SCHEMA_VERSION = 4


class StoreUnavailable(Exception):
    pass


class ConfigDrift(ValueError):
    """A manifest, or a live config, differs from what a run was stamped with."""


class CorruptLog(Exception):
    def __init__(self, message: str, valid_prefix_events: int):
        super().__init__(f"{message} (last valid prefix: {valid_prefix_events} events)")
        self.valid_prefix_events = valid_prefix_events


def sync_mode(mode: str) -> str:
    """mode, if a log can be opened with it (see RunLog)."""
    if mode not in ("always", "flush"):
        raise ValueError(f"store_sync must be one of ['always', 'flush'], not {mode!r}")
    return mode


def run_dir(root: str | Path, run_id: str) -> Path:
    return Path(root) / run_id


def config_hash(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stamps(manifest: dict) -> dict[str, str]:
    """Each stamp of manifest over the fields it covers; an absent one is null."""
    return {"config_hash": config_hash(manifest.get("config")),
            "inputs_hash": config_hash([manifest.get(k) for k in ("run_seed", "k_trials",
                                                                  "problems")])}


class RunLog:
    """Single-writer append handle for one run's event log.

    sync="always" fsyncs every append; "flush" leaves appends to the OS. In
    both modes, opening a log fsyncs the truncation of an interrupted tail, and
    strict prefix semantics hold under truncation. The events parsed on open
    are in `events` until the opener drops them, so a resume reads the log
    once and holds the parse only while it rebuilds.
    """

    def __init__(self, path: Path, sync: str = "always"):
        self._sync = sync_mode(sync)
        self._lock = threading.Lock()
        self.events: list[dict] = []
        try:
            if path.exists():
                with open(path, "rb") as fh:
                    self.events, valid = _read_events(fh)
                if valid < path.stat().st_size:
                    # drop the interrupted final write so new appends start on
                    # a fresh line instead of extending the partial one
                    with open(path, "r+b") as fh:
                        fh.truncate(valid)
                        fh.flush()
                        os.fsync(fh.fileno())
            self._fh = open(path, "ab")
        except OSError as e:
            raise StoreUnavailable(str(e)) from e
        self._next_seq = len(self.events) + 1

    def append(self, kind: str, payload: dict, trial_id: tuple[str, int] | None = None) -> int:
        """Write one event; it is durable (per sync mode) before returning."""
        with self._lock:
            seq = self._next_seq
            record = {
                "seq": seq,
                "ts": time.time(),
                "trial": trial_id,  # a tuple writes as the list it reads back as
                "kind": kind,
                "payload": payload,
            }
            try:
                self._fh.write(_line(record))
                self._fh.flush()
                if self._sync == "always":
                    os.fsync(self._fh.fileno())
            except OSError as e:
                raise StoreUnavailable(str(e)) from e
            self._next_seq = seq + 1
            return seq

    def close(self) -> None:
        self._fh.close()


# the engine's payloads hold no cycles, and skipping the check is faster
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_decode = json.JSONDecoder().decode


def _line(record: dict) -> bytes:
    """record's log line: the bytes _encode writes, made faster by orjson. They
    come from _encode when orjson refuses a value (a lone surrogate, an int
    past 64 bits) or writes a byte that _encode escapes (non-ASCII, DEL).
    orjson also differs on non-finite floats and on those repr writes with an
    exponent, which no event holds: ts is the only float."""
    import orjson  # loaded only when a log is read or written, not on import
    try:
        line = orjson.dumps(record, option=orjson.OPT_APPEND_NEWLINE)
        if line.isascii() and b"\x7f" not in line:
            return line
    except TypeError:
        pass
    return (_encode(record) + "\n").encode("ascii")


def _read_events(fh) -> tuple[list[dict], int]:
    """Parse the log that fh, a binary file, holds a line at a time; returns
    (the lines' objects, byte length of the valid prefix). orjson decodes each
    line; the stdlib decoder, the writer's grammar, decides a line orjson
    refuses (NaN, Infinity, a lone surrogate, 1e400)."""
    import orjson  # loaded only when a log is read or written, not on import
    events: list[dict] = []
    valid = 0
    for n, line in enumerate(fh, 1):
        if not line.endswith(b"\n"):
            break  # the last write was cut
        try:
            try:
                ev = orjson.loads(line)
            except ValueError:
                ev = _decode(line.decode("utf-8"))
            if type(ev["seq"]) is not int:  # a bool or a float too
                raise TypeError(f"seq {ev['seq']!r} is not an integer")
            if ev["trial"] is not None:
                ev["trial"] = tuple(ev["trial"])
            ev["kind"], ev["payload"], ev["ts"]  # a line that lacks one is unparseable
        except (ValueError, KeyError, TypeError) as e:
            if not fh.read(1):
                break  # an unparseable last line is an interrupted write
            raise CorruptLog(f"unparseable event at line {n}: {e}", len(events)) from e
        if ev["seq"] != n:  # every line before it holds its own number
            raise CorruptLog(f"sequence gap: expected {n}, found {ev['seq']}", len(events))
        events.append(ev)
        valid += len(line)
    return events, valid


class RunStore:
    """Run directory manager: manifests, logs, reconstruction."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def create_run(self, run_id: str, manifest: dict) -> None:
        d = run_dir(self.root, run_id)
        if d.exists():
            raise StoreUnavailable(f"run {run_id} already exists")
        manifest = dict(manifest, schema_version=SCHEMA_VERSION, **_stamps(manifest))
        tmp = d / "manifest.json.tmp"
        try:
            d.mkdir(parents=True)
            tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
            os.replace(tmp, d / "manifest.json")
        except OSError as e:
            raise StoreUnavailable(str(e)) from e

    def manifest(self, run_id: str) -> dict:
        """run_id's manifest: StoreUnavailable if it is not a readable JSON
        object, ConfigDrift if it no longer hashes to a stamp it holds. An
        empty or absent stamp, as older versions wrote, is not checked."""
        try:
            manifest = json.loads(run_dir(self.root, run_id).joinpath(
                "manifest.json").read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError(f"not an object: {type(manifest).__name__}")
        except (OSError, ValueError) as e:
            raise StoreUnavailable(f"no readable manifest for run {run_id}: {e}") from e
        for stamp, value in _stamps(manifest).items():
            if manifest.get(stamp) and manifest[stamp] != value:
                raise ConfigDrift(f"manifest differs from its {stamp}")
        return manifest

    def open_log(self, run_id: str, sync: str = "always") -> RunLog:
        d = run_dir(self.root, run_id)
        if not d.exists():
            raise StoreUnavailable(f"run {run_id} does not exist")
        return RunLog(d / "events.log", sync=sync)

    def events(self, run_id: str) -> list[dict]:
        try:
            with open(run_dir(self.root, run_id) / "events.log", "rb") as fh:
                return _read_events(fh)[0]
        except FileNotFoundError:
            return []
        except OSError as e:
            raise StoreUnavailable(str(e)) from e

    def load_run(self, run_id: str):
        """Rebuild (manifest, trial states) purely from committed events."""
        from .engine import rebuild_trial_states  # local import to avoid a cycle

        manifest = self.manifest(run_id)
        events = self.events(run_id)
        states = rebuild_trial_states(manifest, events)
        return manifest, states
