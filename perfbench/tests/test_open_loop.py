"""Open-loop latency runs from the due time, and sender lag is recorded."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import inputs
import workloads

#: Seconds the fake daemon takes to answer the first submission.
STALL = 0.35
#: Seconds every fake job runs.
JOB_S = 0.05


class FakeDaemon(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    created: dict = {}
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            job_id = f"job{len(self.created)}"
            stall = STALL if not self.created else 0.0
            self.created[job_id] = None
        time.sleep(stall)
        self.created[job_id] = time.time()
        self._send(201, {"id": job_id})

    def do_GET(self):  # noqa: N802 - http.server API
        job_id, _, tail = self.path.removeprefix("/jobs/").partition("/")
        created = self.created[job_id]
        if tail == "result":
            self._send(200, {"result": {"objective": 1.0, "correspondences": []}})
            return
        done = time.time() - created >= JOB_S
        self._send(200, {"state": "done" if done else "running",
                         "submitted": created, "updated": created + JOB_S})

    def _send(self, status, document):
        body = json.dumps(document).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_latency_counts_from_the_due_time_and_lag_is_reported(tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), FakeDaemon)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        daemon = SimpleNamespace(host="127.0.0.1", port=server.server_address[1])
        session = workloads.Session(daemon, SimpleNamespace(chain=None), tmp_path)
        pair = inputs.Pair("fake", Path("a.csv"), Path("b.csv"), ())
        operations = [workloads.Operation("read", pair) for _ in range(3)]
        session.open_loop(operations, rate=10.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    first, second, third = operations
    assert all(op.error is None and op.answer is not None for op in operations)
    # The stalled submission made the sender late for the next job...
    assert second.sent - second.due > STALL - 0.1 - 0.05
    # ...and that lateness is part of the job's latency, timed from due.
    for operation in operations:
        assert operation.latency_s >= operation.sent - operation.due + JOB_S - 0.01
    assert second.latency_s > STALL - 0.1
    assert third.due - second.due == pytest.approx(0.1)
