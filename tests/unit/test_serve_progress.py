"""The per-job NDJSON event spool: ``EventWriter`` and ``iter_new_lines``."""

from __future__ import annotations

import json

from repro.serve.progress import TERMINAL_EVENTS, EventWriter, iter_new_lines
from repro.serve.protocol import event_line


def _poll(path, offset):
    lines, new_offset = iter_new_lines(path, offset)
    return list(lines), new_offset


def test_emit_creates_the_spool_and_writes_the_canonical_line(tmp_path):
    path = tmp_path / "job.ndjson"
    event = {"event": "job_queued", "position": 1, "id": "abc"}
    EventWriter(path).emit(event)
    assert path.read_bytes() == event_line(event)
    assert path.read_bytes().endswith(b"\n")
    assert json.loads(path.read_bytes()) == event


def test_emit_appends_one_line_per_event(tmp_path):
    path = tmp_path / "job.ndjson"
    writer = EventWriter(path)
    for index in range(3):
        writer.emit({"event": "round", "index": index})
    lines = path.read_bytes().splitlines()
    assert [json.loads(line)["index"] for line in lines] == [0, 1, 2]


def test_two_writers_on_one_path_append_not_overwrite(tmp_path):
    # The worker and the server each build their own writer for a job.
    path = tmp_path / "job.ndjson"
    EventWriter(path).emit({"event": "job_queued"})
    EventWriter(str(path)).emit({"event": "job_done"})
    events = [json.loads(line)["event"] for line in path.read_bytes().splitlines()]
    assert events == ["job_queued", "job_done"]


def test_missing_spool_yields_nothing_and_keeps_the_offset(tmp_path):
    assert _poll(tmp_path / "absent.ndjson", 7) == ([], 7)


def test_poll_at_end_of_file_yields_nothing(tmp_path):
    path = tmp_path / "job.ndjson"
    EventWriter(path).emit({"event": "job_queued"})
    size = path.stat().st_size
    assert _poll(path, size) == ([], size)


def test_offset_resumes_after_the_lines_already_read(tmp_path):
    path = tmp_path / "job.ndjson"
    writer = EventWriter(path)
    writer.emit({"event": "a"})
    writer.emit({"event": "b"})
    first, offset = _poll(path, 0)
    assert [json.loads(line)["event"] for line in first] == ["a", "b"]
    assert offset == path.stat().st_size
    writer.emit({"event": "c"})
    second, offset = _poll(path, offset)
    assert [json.loads(line)["event"] for line in second] == ["c"]
    assert offset == path.stat().st_size


def test_partial_trailing_line_waits_for_its_newline(tmp_path):
    path = tmp_path / "job.ndjson"
    path.write_bytes(b'{"event": "a"}\n{"event": "b"')
    lines, offset = _poll(path, 0)
    assert lines == [b'{"event": "a"}\n']
    assert offset == len(b'{"event": "a"}\n')
    with open(path, "ab") as handle:
        handle.write(b"}\n")
    lines, offset = _poll(path, offset)
    assert lines == [b'{"event": "b"}\n']
    assert offset == path.stat().st_size


def test_only_a_partial_line_yields_nothing(tmp_path):
    path = tmp_path / "job.ndjson"
    path.write_bytes(b'{"event": "half')
    assert _poll(path, 0) == ([], 0)


def test_every_relayed_line_is_complete_json(tmp_path):
    path = tmp_path / "job.ndjson"
    writer = EventWriter(path)
    events = [{"event": "round", "value": 0.5}, {"event": "job_done", "ok": True}]
    for event in events:
        writer.emit(event)
    lines, _ = _poll(path, 0)
    assert all(line.endswith(b"\n") for line in lines)
    assert [json.loads(line) for line in lines] == events


def test_terminal_events_are_done_and_failed():
    assert TERMINAL_EVENTS == {"job_done", "job_failed"}
