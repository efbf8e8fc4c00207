import builtins
import io
import json
import random
from pathlib import Path

import pytest

from selfevolve.answers import AnswerKey
from selfevolve.backend import MockBackendProvider, mock_spec_from_dict
from selfevolve.engine import DSER, VERDEP, ControllerConfig, Problem, PromptSet, run_experiment
from selfevolve.store import (
    SCHEMA_VERSION,
    CorruptLog,
    RunStore,
    StoreUnavailable,
    run_dir,
)

from fixtures import CORRUPT_LINE_EDITS
from oracles import assert_reads_like_stdlib


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
    assert [e["seq"] for e in events] == [s1, s2]


def test_append_line_is_compact_json(tmp_path):
    # a line is what json.dumps writes with compact separators: ASCII escapes
    # for non-ASCII text, U+2028 and DEL (which orjson writes raw), keys in
    # insertion order, floats by repr; so too for a lone surrogate and an int
    # past 64 bits, which orjson refuses
    store = make_store(tmp_path)
    log = store.open_log("r1")
    payloads = [
        {"record": {"solution_text": 'say "60" \\boxed{60}', "score": 0.1 + 0.2},
         "calls": [{"thinking": "Σ café — line\u2028sep 🙂", "phase": "solve"}]},
        {"calls": [{"thinking": "rub\x7fout", "phase": "verify"}]},
        {"calls": [{"thinking": "half \ud83d a pair", "phase": "refine"}]},
        {"calls": [{"prompt_tokens": 2**64, "phase": "solve"}]},
    ]
    for payload in payloads:
        log.append("IterationCommitted", payload, trial_id=("p0", 1))
    log.close()
    lines = (run_dir(store.root, "r1") / "events.log").read_bytes().decode("ascii")
    lines = lines.splitlines(keepends=True)
    assert len(lines) == len(payloads)
    for seq, (line, payload) in enumerate(zip(lines, payloads), 1):
        record = {"seq": seq, "ts": json.loads(line)["ts"], "trial": ["p0", 1],
                  "kind": "IterationCommitted", "payload": payload}
        assert line == json.dumps(record, separators=(",", ":")) + "\n"


def test_append_durable_without_close(tmp_path):
    # event readable through a fresh handle before the writer closes
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log.append("SolveStarted", {}, trial_id=("p0", 0))
    assert len(store.events("r1")) == 1
    log.close()


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


def test_run_without_a_log_has_no_events(tmp_path):
    assert make_store(tmp_path).events("r1") == []


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_append_is_store_unavailable(tmp_path):
    # a write the device refuses (ENOSPC) is StoreUnavailable, and its seq
    # is not spent
    store = make_store(tmp_path)
    log = store.open_log("r1")
    log._fh.close()
    log._fh = open("/dev/full", "ab", buffering=0)
    with pytest.raises(StoreUnavailable, match="No space left"):
        log.append("A", {})
    log._fh.close()
    log._fh = open(run_dir(store.root, "r1") / "events.log", "ab")
    assert log.append("A", {}) == 1
    log.close()


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
    assert [e["kind"] for e in events] == ["A", "B"]


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
    assert [e["kind"] for e in store.events("r1")] == ["A", "B"]
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
    assert [e["kind"] for e in store.events("r1")] == ["A", "B"]


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
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
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
    assert [e["kind"] for e in store.events("r1")] == ["A", "B", "C"]


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
    assert [e["kind"] for e in store.events("r1")] == ["A", "B", "C"]


def test_manifest_round_trip(tmp_path):
    store = make_store(tmp_path)
    manifest = store.manifest("r1")
    assert manifest["run_seed"] == 1
    assert manifest["schema_version"] == SCHEMA_VERSION == 4
    assert manifest["problems"][0]["answer"] == "60"


def test_load_run_fresh(tmp_path):
    store = make_store(tmp_path)
    store.open_log("r1").close()
    manifest, states = store.load_run("r1")
    assert set(states) == {("p0", 0), ("p0", 1)}
    for st in states.values():
        assert st.records == []
        assert st.status == "running"


def test_log_sync_is_always_or_flush(tmp_path):
    # the log refuses any other mode with the error a config's store_sync gets
    store = make_store(tmp_path)
    for mode in ("always", "flush"):
        log = store.open_log("r1", sync=mode)
        log.append("IterationCommitted", {"record": {
            "index": 0, "solution_text": "", "answer": None,
            "verification_text": None, "verdict": None, "failure": None,
            "prompt_tokens": 0, "completion_tokens": 0}})
        log.close()
    for mode in ("commit", "bogus"):
        with pytest.raises(ValueError, match=f"store_sync must be one of .*, not '{mode}'"):
            store.open_log("r1", sync=mode)


# --- the orjson reader against the stdlib reference --------------------------

def small_run_lines(tmp_path, kind) -> list[bytes]:
    """The log lines, newline kept, of a 1-problem K=2 mock run of kind."""
    spec = mock_spec_from_dict({"ground_truth": "60", "initial_correct_probability": 0.5,
                                "p_ic": 0.3, "p_ci": 0.1, "alpha": 0.3, "beta": 0.8})
    store = RunStore(tmp_path / kind)
    config = ControllerConfig(kind=kind, max_iterations=5, accept_limit=2, reject_limit=2)
    run_id = run_experiment([Problem("p0", "what is 59+1?", AnswerKey("60"))], 2, config,
                            MockBackendProvider(spec), PromptSet(), 3, store, store_sync="flush")
    return (run_dir(store.root, run_id) / "events.log").read_bytes().splitlines(keepends=True)


@pytest.mark.parametrize("kind", [DSER, VERDEP])
def test_reader_matches_stdlib_on_every_cut(tmp_path, kind):
    # every line boundary, and the middle of every line
    raw = b"".join(small_run_lines(tmp_path, kind))
    boundaries = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
    path = tmp_path / "events.log"
    for end, start in zip(boundaries, [0] + boundaries):
        for cut in (end, (start + end) // 2):
            path.write_bytes(raw[:cut])
            assert_reads_like_stdlib(path)


def _event(seq=b"SEQ", ts=b"1700000000.25", trial=b'["p0",0]', payload=b"{}"):
    return b'{"seq":%s,"ts":%s,"trial":%s,"kind":"K","payload":%s}' % (seq, ts, trial, payload)


# name -> one log line without its newline, its seq written SEQ. Integers
# outside [-2**63, 2**64), which orjson reads as floats, and nesting deeper
# than the stdlib's recursion limit, which orjson reads and the stdlib
# cannot, are left out: the writer writes neither
HAND_LINES = {
    "non_ascii": _event(payload='{"t":"h\u00e9llo \u2713 \U0001d538"}'.encode()),
    "non_ascii_escaped": _event(payload=rb'{"t":"h\u00e9llo \ud835\udd38"}'),
    "u2028": _event(payload='{"t":"a\u2028b\u2029c"}'.encode()),
    "u2028_escaped": _event(payload=rb'{"t":"a\u2028b"}'),
    "quotes_backslashes": _event(payload=rb'{"t":"say \"hi\" \\ a\\\\b \/ \n\t\u0000"}'),
    "ts_long": _event(ts=b"1700000000.1234567891234"),
    "ts_tiny": _event(ts=b"5e-324"),
    "ts_huge": _event(ts=b"1.7976931348623157e308"),
    "ts_negative_zero": _event(ts=b"-0.0"),
    "ts_exponent": _event(ts=b"1E5"),
    "ts_int": _event(ts=b"1700000000"),
    "ts_nan": _event(ts=b"NaN"),
    "ts_infinity": _event(ts=b"Infinity"),
    "ts_minus_infinity": _event(ts=b"-Infinity"),
    "ts_overflow": _event(ts=b"1e400"),
    "int_edges": _event(payload=b'{"n":[9223372036854775807,-9223372036854775808,'
                                b'18446744073709551615,-0]}'),
    "lone_surrogate": _event(payload=rb'{"t":"\ud800"}'),
    "lone_low_surrogate": _event(payload=rb'{"t":"x\udc00y"}'),
    "duplicate_key": _event(payload=b'{"a":1,"a":2}'),
    "leading_spaces": b"   " + _event(),
    "crlf": _event() + b"\r",
    "bom": b"\xef\xbb\xbf" + _event(),
    "invalid_utf8": _event(payload=b'{"t":"\xff"}'),
    "overlong_utf8": _event(payload=b'{"t":"\xc0\xaf"}'),
    "encoded_surrogate": _event(payload=b'{"t":"\xed\xa0\x80"}'),
    "raw_control_char": _event(payload=b'{"t":"a\tb"}'),
    "empty": b"",
    "blank": b" \t",
    "trailing_garbage": _event() + b" x",
    "trailing_brace": _event() + b"}",
    "not_an_object": b"[SEQ]",
    "seq_string": _event(seq=b'"SEQ"'),
    "seq_float": _event(seq=b"SEQ.0"),
    "seq_bool": _event(seq=b"true"),
    "seq_null": _event(seq=b"null"),
    "no_kind": b'{"seq":SEQ,"ts":1,"trial":null,"payload":{}}',
    "trial_string": _event(trial=b'"p0"'),
}


@pytest.mark.parametrize("line", HAND_LINES.values(), ids=HAND_LINES.keys())
def test_reader_matches_stdlib_on_hand_lines(tmp_path, line):
    # each line mid-log, where a refused line is a corrupt log, and last,
    # where it is an interrupted write
    path = tmp_path / "events.log"
    first, third = _event().replace(b"SEQ", b"1"), _event().replace(b"SEQ", b"3")
    for lines in ([first, line, third], [first, line]):
        path.write_bytes(b"".join(x.replace(b"SEQ", b"2") + b"\n" for x in lines))
        assert_reads_like_stdlib(path)


MUTATION_BYTES = b'"\\{}[],:.-+0123456789eEnNaIfty \t\r\x00\x7f\xc3\xa9\xed\xff'


def test_reader_matches_stdlib_on_mutated_lines(tmp_path):
    # 5,000 seeded byte mutations of real log lines, each renumbered to seq 2
    # and placed after seq 1, then either last or before a seq 3
    lines = small_run_lines(tmp_path, VERDEP)
    rng = random.Random(17)
    path = tmp_path / "events.log"

    def renumbered(seq):
        i = rng.randrange(len(lines))
        return lines[i].replace(b'{"seq":%d,' % (i + 1), b'{"seq":%d,' % seq, 1)

    # one handle rewritten in place: truncating a file to 0 and refilling it
    # costs several times more on some filesystems
    with open(path, "w+b") as fh:
        for _ in range(5000):
            line = bytearray(renumbered(2)[:-1])
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(line))
                byte = rng.choice(MUTATION_BYTES) if rng.random() < 0.5 else rng.randrange(256)
                op = rng.randrange(3)
                if op == 0:
                    line[at] = byte
                elif op == 1:
                    line.insert(at, byte)
                else:
                    del line[at]
            tail = [renumbered(3)] if rng.random() < 0.5 else []
            fh.seek(0)
            fh.write(b"".join([lines[0], bytes(line) + b"\n"] + tail))
            fh.truncate()
            fh.flush()
            assert_reads_like_stdlib(path)
