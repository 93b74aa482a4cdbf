"""Stopping ``repro-ftes serve`` with SIGTERM must not orphan pool workers.

The server runs as a real subprocess in its own session, so every process
it forks (the job workers) shares that session id.  After SIGTERM to the
server alone, no process of the session may survive: orphaned workers
would keep the inherited listening socket and block the next server.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists() or not hasattr(os, "killpg"),
    reason="needs POSIX sessions and /proc",
)


def _session_members(session: int) -> list:
    """PIDs of live (non-zombie) processes whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session ...
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[3]) == session and fields[0] != b"Z":
            members.append(int(entry))
    return members


def _request(port: int, method: str, path: str, body=None):
    connection = HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def test_sigterm_stops_the_server_and_its_pool_workers(tmp_path):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
         "--port", "0", "--workers", "2", "--spool-dir", str(tmp_path / "spool")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        line = server.stdout.readline().decode()
        assert "listening on http://" in line, line
        port = int(line.rsplit(":", 1)[1])
        status, job = _request(port, "POST", "/jobs", {
            "scenario": "fig6a", "config": {"preset": "smoke"},
        })
        assert status == 202
        deadline = time.monotonic() + 120.0
        while True:
            record = _request(port, "GET", f"/jobs/{job['id']}")[1]
            if record["state"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline, "job did not finish"
            time.sleep(0.1)
        assert record["state"] == "done", record
        assert len(_session_members(server.pid)) > 1  # the pool workers exist

        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30.0) == 0
        deadline = time.monotonic() + 10.0
        while _session_members(server.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _session_members(server.pid) == []
    finally:
        if server.poll() is None:
            server.kill()
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.stdout.close()
