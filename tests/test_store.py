import builtins
import io
import json
from pathlib import Path

import pytest

from selfevolve.store import (
    SCHEMA_VERSION,
    CorruptLog,
    RunFinalized,
    RunStore,
    StoreUnavailable,
    run_dir,
)

from fixtures import CORRUPT_LINE_EDITS


MANIFEST = {
    "run_id": "r1",
    "created_at": 0.0,
    "run_seed": 1,
    "k_trials": 2,
    "config": {"controller": {"kind": "dser", "max_iterations": 2}},
    "config_hash": "abc",
    "problems": [{"id": "p0", "statement": "q", "answer": "60"}],
}


def make_store(tmp_path):
    store = RunStore(tmp_path / "runs")
    store.create_run("r1", MANIFEST)
    return store


def test_append_sequence_increases(tmp_path):
    store = make_store(tmp_path)
    log = store.open_log("r1")
    s1 = log.append("SolveStarted", {"seed": 1}, trial_id=("p0", 0))
    s2 = log.append("CallSent", {"phase": "solve"}, trial_id=("p0", 0))
    log.close()
    assert s2 == s1 + 1
    events = store.events("r1")
    assert [e.seq for e in events] == [s1, s2]


def test_append_line_is_compact_json(tmp_path):
    # a line is what json.dumps writes with compact separators: ASCII escapes
    # for non-ASCII text and U+2028, keys in insertion order, floats by repr
    store = make_store(tmp_path)
    log = store.open_log("r1")
    payload = {"record": {"solution_text": 'say "60" \\boxed{60}', "score": 0.1 + 0.2},
               "calls": [{"thinking": "Σ café — line\u2028sep 🙂", "phase": "solve"}]}
    log.append("IterationCommitted", payload, trial_id=("p0", 1))
    log.close()
    line = (run_dir(store.root, "r1") / "events.log").read_bytes().decode("ascii")
    record = {"seq": 1, "ts": json.loads(line)["ts"], "trial": ["p0", 1],
              "kind": "IterationCommitted", "payload": payload}
    assert line == json.dumps(record, separators=(",", ":")) + "\n"


def test_append_durable_without_close(tmp_path):
    # event readable through a fresh handle before the writer closes
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log.append("SolveStarted", {}, trial_id=("p0", 0))
    assert len(store.events("r1")) == 1
    log.close()


def test_append_to_finalized_run(tmp_path):
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log.append("RunFinalized", {})
    with pytest.raises(RunFinalized):
        log.append("SolveStarted", {})
    log.close()
    # finalization persists across handles
    log2 = store.open_log("r1")
    with pytest.raises(RunFinalized):
        log2.append("SolveStarted", {})
    log2.close()


def test_seq_continues_across_handles(tmp_path):
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log.append("A", {})
    log.append("B", {})
    log.close()
    log = store.open_log("r1")
    assert log.append("C", {}) == 3
    log.close()


def test_missing_run(tmp_path):
    store = RunStore(tmp_path / "runs")
    with pytest.raises(StoreUnavailable):
        store.manifest("nope")
    with pytest.raises(StoreUnavailable):
        store.open_log("nope")


def test_duplicate_run(tmp_path):
    store = make_store(tmp_path)
    with pytest.raises(StoreUnavailable):
        store.create_run("r1", MANIFEST)


def test_trailing_partial_line_discarded(tmp_path):
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log.append("A", {})
    log.append("B", {})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    raw = path.read_bytes()
    path.write_bytes(raw + b'{"seq":3,"ts":1,"tr')
    events = store.events("r1")
    assert [e.kind for e in events] == ["A", "B"]


def test_sequence_gap_is_corrupt(tmp_path):
    store = make_store(tmp_path)
    log = store.open_log("r1")
    for kind in ("A", "B", "C"):
        log.append(kind, {})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2]]) + "\n")
    with pytest.raises(CorruptLog) as err:
        store.events("r1")
    assert err.value.valid_prefix_events == 1


def test_log_without_its_first_events_is_corrupt(tmp_path):
    # a log whose first event is not seq 1 lost its head: reads refuse it, and
    # so does a writer, before it truncates the interrupted tail
    store = make_store(tmp_path)
    log = store.open_log("r1")
    for kind in ("A", "B", "C", "D"):
        log.append(kind, {})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    lines = path.read_bytes().splitlines(keepends=True)
    headless = b"".join(lines[2:]) + b'{"seq":5,"ts":1,"tr'
    path.write_bytes(headless)
    with pytest.raises(CorruptLog, match="expected 1, found 3") as err:
        store.events("r1")
    assert err.value.valid_prefix_events == 0
    with pytest.raises(CorruptLog):
        store.open_log("r1")
    assert path.read_bytes() == headless


@pytest.mark.parametrize("edit", CORRUPT_LINE_EDITS.values(), ids=CORRUPT_LINE_EDITS.keys())
def test_garbage_mid_log_is_corrupt(tmp_path, edit):
    # a middle line that does not decode, parse or build its record is a
    # corrupt log, whose message names the line or the event's seq
    store = make_store(tmp_path)
    log = store.open_log("r1")
    for i in range(3):
        log.append("IterationCommitted", {"record": {"index": i, "solution_text": "s"},
                                          "calls": []}, trial_id=("p0", 0))
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    lines = path.read_bytes().splitlines()
    lines[1] = edit(lines[1])
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CorruptLog) as err:
        store.load_run("r1")
    assert err.value.valid_prefix_events == 1
    assert "line 2" in str(err.value) or "seq 2" in str(err.value)


def test_undecodable_last_line_discarded(tmp_path):
    # a last line that is not UTF-8 is an interrupted write, like any other
    # unparseable last line: reads drop it and a writer truncates it
    store = make_store(tmp_path)
    log = store.open_log("r1")
    for kind in ("A", "B", "C"):
        log.append(kind, {})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    lines = path.read_bytes().splitlines(keepends=True)
    valid = b"".join(lines[:2])
    path.write_bytes(valid + CORRUPT_LINE_EDITS["undecodable"](lines[2]))
    assert [e.kind for e in store.events("r1")] == ["A", "B"]
    log = store.open_log("r1")
    assert path.read_bytes() == valid
    assert log.append("C", {}) == 3
    log.close()


SEQ_EDITS = {name: edit for name, edit in CORRUPT_LINE_EDITS.items() if name.startswith("seq_")}


@pytest.mark.parametrize("edit", SEQ_EDITS.values(), ids=SEQ_EDITS.keys())
def test_non_integer_seq_first_and_last_line(tmp_path, edit):
    # a seq that is not an int makes its line unparseable: a corrupt log as
    # the first line, an interrupted write as the last
    store = make_store(tmp_path)
    log = store.open_log("r1")
    for kind in ("A", "B", "C"):
        log.append(kind, {})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"\n".join([edit(lines[0])] + lines[1:]) + b"\n")
    with pytest.raises(CorruptLog, match="line 1") as err:
        store.events("r1")
    assert err.value.valid_prefix_events == 0
    path.write_bytes(b"\n".join(lines[:2] + [edit(lines[2])]) + b"\n")
    assert [e.kind for e in store.events("r1")] == ["A", "B"]


def test_any_prefix_loads(tmp_path):
    store = make_store(tmp_path)
    log = store.open_log("r1")
    for i in range(10):
        log.append("E", {"i": i})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    raw = path.read_bytes()
    for cut in range(0, len(raw), 37):
        path.write_bytes(raw[:cut])
        events = store.events("r1")
        assert [e.seq for e in events] == list(range(1, len(events) + 1))
    path.write_bytes(raw)


def test_append_after_partial_tail_starts_fresh_line(tmp_path):
    # a writer opened over an interrupted log must not extend the partial line
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log.append("A", {})
    log.append("B", {})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    path.write_bytes(path.read_bytes() + b'{"seq":3,"ts":1,"tr')
    log = store.open_log("r1")
    assert log.append("C", {}) == 3
    log.close()
    assert [e.kind for e in store.events("r1")] == ["A", "B", "C"]


@pytest.mark.parametrize("tail", [b'{"seq":3,"ts":1,"tr', b'{"seq":3,"ts":1,"tr\n'])
def test_open_cut_log_reads_once(tmp_path, monkeypatch, tail):
    # the valid prefix is sized from the one read that parses the log
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log.append("A", {})
    log.append("B", {})
    log.close()
    path = run_dir(store.root, "r1") / "events.log"
    valid = path.read_bytes()
    path.write_bytes(valid + tail)
    reads = []
    real_open = io.open

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, Path)) and Path(file) == path and "r" in mode and "+" not in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    # Path.open goes through io.open, the log reader through builtins.open
    monkeypatch.setattr(io, "open", spy_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    log = store.open_log("r1")
    monkeypatch.undo()
    assert reads == ["rb"]
    assert path.read_bytes() == valid
    assert log.append("C", {}) == 3
    log.close()
    assert [e.kind for e in store.events("r1")] == ["A", "B", "C"]


def test_manifest_round_trip(tmp_path):
    store = make_store(tmp_path)
    manifest = store.manifest("r1")
    assert manifest["run_seed"] == 1
    assert manifest["schema_version"] == SCHEMA_VERSION == 2
    assert manifest["problems"][0]["answer"] == "60"


def test_load_run_fresh(tmp_path):
    store = make_store(tmp_path)
    store.open_log("r1").close()
    manifest, states = store.load_run("r1")
    assert set(states) == {("p0", 0), ("p0", 1)}
    for st in states.values():
        assert st.records == []
        assert st.status == "running"


def test_sync_modes(tmp_path):
    store = make_store(tmp_path)
    for mode in ("always", "flush"):
        log = store.open_log("r1", sync=mode)
        log.append("IterationCommitted", {"record": {
            "index": 0, "solution_text": "", "answer": None,
            "verification_text": None, "verdict": None, "failure": None,
            "prompt_tokens": 0, "completion_tokens": 0}})
        log.close()
    for mode in ("commit", "bogus"):
        with pytest.raises(ValueError):
            store.open_log("r1", sync=mode)
