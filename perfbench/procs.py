"""Child processes and the daemon, driven from outside the program.

Every ``repro`` process runs from the checkout's ``src`` tree.  Wall
time is taken around the whole process; peak memory is the child's own
``ru_maxrss`` from ``wait4``, so nothing polls the child while it runs.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "traced.py"


def child_env() -> dict[str, str]:
    """The environment of every ``repro`` child: the checkout's sources,
    with compiled bytecode cached as an installed package has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def repro_argv(args: list[str], spans: Path | None = None) -> list[str]:
    """The command line of ``repro ARGS``, through the tracing launcher
    when *spans* names the file the launcher writes its spans to."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), str(spans), *args]


@dataclass
class Finished:
    """One finished child process."""

    returncode: int
    stdout: bytes
    wall_s: float
    peak_rss_mb: float


def run(argv: list[str], stderr_path: Path, timeout: float = 170.0) -> Finished:
    """Run *argv* to completion; its stdout, wall time and peak RSS.

    Standard error goes to *stderr_path*, so a chatty child can never
    fill a pipe the parent is not reading.  A child still running after
    *timeout* seconds is killed, and its exit code says so.
    """
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        child = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
            cwd=ROOT,
        )
        watchdog = threading.Timer(timeout, child.kill)
        watchdog.start()
        try:
            stdout = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            child.stdout.close()
        wall = time.perf_counter() - started
    return Finished(child.returncode, stdout, wall, usage.ru_maxrss / 1024.0)


class Daemon:
    """A ``repro serve`` process with its ready file and HTTP address."""

    def __init__(self, store_dir: Path, workers: int, stderr_path: Path,
                 spans: Path | None = None, poll_interval: float = 0.01):
        self.store_dir = store_dir
        args = [
            "serve", "--store-dir", str(store_dir), "--workers", str(workers),
            "--poll-interval", str(poll_interval),
        ]
        self._stderr = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            repro_argv(args, spans), stdout=subprocess.DEVNULL,
            stderr=self._stderr, env=child_env(), cwd=ROOT,
        )
        self.host = ""
        self.port = 0
        self.peak_rss_mb = 0.0

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``service.json`` exists and
        ``/healthz`` answers ok."""
        ready_file = self.store_dir / "service.json"
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} before ready"
                )
            try:
                ready = json.loads(ready_file.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                time.sleep(0.002)
                continue
            self.host, self.port = ready["host"], ready["port"]
            status, health = Client(self.host, self.port).get("/healthz")
            if status == 200 and health.get("status") == "ok":
                return time.perf_counter() - self.started
            time.sleep(0.002)
        raise TimeoutError("daemon did not become ready")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, then wait for the graceful exit; the exit code.

        A daemon that has not exited after *timeout* seconds is killed.
        """
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
            if not _exits_within(self.process.pid, timeout):
                self.process.kill()
            _, status, usage = os.wait4(self.process.pid, 0)
            self.process.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._stderr.close()
        return self.process.returncode


def _exits_within(pid: int, timeout: float) -> bool:
    """Whether child *pid* exits within *timeout* seconds (left unreaped)."""
    deadline = time.perf_counter() + timeout
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    while time.perf_counter() < deadline:
        if os.waitid(os.P_PID, pid, flags) is not None:
            return True
        time.sleep(0.005)
    return False


class Client:
    """HTTP requests to the daemon, JSON in and out, one connection each.

    A connection per request is what ``urllib.request`` does.  On a
    kept-alive connection every response after the first waits about
    40 ms for a delayed ACK (the daemon sends headers and body in two
    writes with Nagle's algorithm on); :func:`keepalive_request_seconds`
    measures that on its own.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def get(self, path: str):
        return self._request("GET", path, None)

    def post(self, path: str, document: dict):
        return self._request("POST", path, json.dumps(document).encode())

    def text(self, path: str) -> str:
        return self._exchange("GET", path, None)[1].decode("utf-8")

    def _request(self, method: str, path: str, body: bytes | None):
        status, payload = self._exchange(method, path, body)
        return status, json.loads(payload.decode("utf-8"))

    def _exchange(self, method: str, path: str, body: bytes | None):
        headers = {"Content-Type": "application/json"} if body else {}
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()


def keepalive_request_seconds(host: str, port: int, requests: int = 10) -> float:
    """Median round trip of ``GET /healthz`` on one kept-alive connection,
    after its first request."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    times = []
    try:
        for _ in range(requests + 1):
            started = time.perf_counter()
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            times.append(time.perf_counter() - started)
    finally:
        connection.close()
    return statistics.median(times[1:])
