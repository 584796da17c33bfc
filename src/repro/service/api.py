"""The daemon's JSON/REST surface (stdlib ``http.server``).

Routes
------
``POST /jobs``
    Submit a job spec (JSON body).  201 with the job document when a new
    job was created, 200 when the content-hash dedup answered with an
    existing job (the ``deduped`` field tells them apart), 400 with the
    problem — and a dead-letter entry — for malformed submissions.
``GET /jobs``
    Every job, oldest first.
``GET /jobs/{id}``
    One job's status document.
``GET /jobs/{id}/result``
    The result payload of a ``done`` job; 409 with the current state
    while it is still pending, 404 for unknown ids.
``GET /healthz``
    Liveness: ``{"status": "ok", "queue_depth": N, ...}``.
``GET /metrics``
    Prometheus text exposition (:data:`repro.obs.PROMETHEUS_CONTENT_TYPE`).
``GET /deadletters``
    Digest + context of every archived rejection, for offline triage.

The handler holds no state of its own — it reads everything through the
:class:`~repro.service.server.MatchingService` facade passed in at
class-creation time, and the queue's internal lock makes each request
a consistent snapshot.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Any

from repro.exceptions import JobSpecError
from repro.obs import PROMETHEUS_CONTENT_TYPE, get_logger
from repro.service.jobs import STATE_DONE, validate_spec

_logger = get_logger(__name__)

_JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Request bodies beyond this size are rejected outright (a job spec is
#: a handful of paths and knobs; anything larger is not a job spec).
_MAX_BODY_BYTES = 1 << 20


def make_handler(service) -> type[BaseHTTPRequestHandler]:
    """A request-handler class bound to one service instance."""

    class ServiceAPIHandler(BaseHTTPRequestHandler):
        # Keep connections simple and short-lived; the interesting
        # concurrency lives in the scheduler, not the socket layer.
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; with Nagle's
        # algorithm on, the body of every kept-alive response after the
        # first waits for the client's delayed ACK (~40 ms).
        disable_nagle_algorithm = True

        # ------------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                self._route_get()
            except Exception:  # noqa: BLE001 - a handler must not die
                _logger.exception("GET %s failed", self.path)
                self._send_json(500, {"error": "internal error"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                self._route_post()
            except Exception:  # noqa: BLE001 - a handler must not die
                _logger.exception("POST %s failed", self.path)
                self._send_json(500, {"error": "internal error"})

        # ------------------------------------------------------------------
        def _route_get(self) -> None:
            service.observer.count(
                "service_requests_total", help="HTTP requests served"
            )
            path = self.path.rstrip("/") or "/"
            if path == "/healthz":
                self._send_json(200, service.health())
            elif path == "/metrics":
                self._send_text(
                    200,
                    service.observer.metrics.to_prometheus_text(),
                    PROMETHEUS_CONTENT_TYPE,
                )
            elif path == "/jobs":
                self._send_json(
                    200,
                    {"jobs": [job.to_dict() for job in service.queue.jobs()]},
                )
            elif path == "/deadletters":
                self._send_json(200, {"deadletters": service.dead_letters()})
            elif path.startswith("/jobs/"):
                self._route_job(path.removeprefix("/jobs/"))
            else:
                self._send_json(404, {"error": f"no such route: {self.path}"})

        def _route_job(self, rest: str) -> None:
            job_id, _, tail = rest.partition("/")
            job = service.queue.get(job_id)
            if job is None or tail not in ("", "result"):
                self._send_json(404, {"error": f"no such job: {rest!r}"})
            elif tail == "":
                self._send_json(200, job.to_dict())
            elif job.state != STATE_DONE:
                self._send_json(
                    409,
                    {
                        "error": f"job {job.id} is {job.state}, not done",
                        "state": job.state,
                    },
                )
            else:
                self._send_json(200, {"id": job.id, "result": job.result})

        def _route_post(self) -> None:
            service.observer.count(
                "service_requests_total", help="HTTP requests served"
            )
            if self.path.rstrip("/") != "/jobs":
                self._send_json(404, {"error": f"no such route: {self.path}"})
                return
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0 or length > _MAX_BODY_BYTES:
                self._send_json(
                    400, {"error": f"request body must be 1..{_MAX_BODY_BYTES} bytes"}
                )
                return
            payload = self.rfile.read(length)
            try:
                spec = validate_spec(json.loads(payload.decode("utf-8")))
            except (ValueError, UnicodeDecodeError, JobSpecError) as error:
                service.reject_submission(payload, str(error))
                self._send_json(400, {"error": str(error)})
                return
            record, created = service.submit(spec)
            document = record.to_dict()
            document["deduped"] = not created
            self._send_json(201 if created else 200, document)

        # ------------------------------------------------------------------
        def _send_json(self, status: int, document: dict[str, Any]) -> None:
            self._send_text(
                status,
                json.dumps(document, indent=2, sort_keys=True) + "\n",
                _JSON_CONTENT_TYPE,
            )

        def _send_text(self, status: int, text: str, content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: Any) -> None:
            # Route access logs through the library logger instead of
            # stderr; --log-level decides whether they surface.
            _logger.debug("%s - %s", self.address_string(), format % args)

    return ServiceAPIHandler
