"""``repro serve``: JSON-over-HTTP live control of a cluster run.

Stdlib only (:mod:`http.server`); one
:class:`~repro.serve.controller.ServeController` behind a threading
HTTP server, plus an optional auto-tick thread that keeps stepping the
simulation while it is not paused.

Endpoints (all JSON in, JSON out):

==========================  ===========================================
``GET  /status``            live run state (time, segments, fleet)
``GET  /segments?since=N``  streamed per-segment observations
``GET  /metrics``           RunResult dict for the run so far
``GET  /snapshot``          versioned, digest-stamped checkpoint
``POST /advance``           ``{"segments": N}`` or ``{"until_s": T}``
``POST /pause``             stop the auto-tick
``POST /start``             resume the auto-tick
``POST /restore``           body = a ``/snapshot`` payload (HMAC-gated)
``POST /inject``            live tenant / traffic-spike / fault event
==========================  ===========================================

Errors return ``{"error": ...}`` with a 4xx status; an invalid
injection, a malformed parameter, or a corrupt checkpoint never kills
the server.  ``/restore`` is the one endpoint that unpickles its
input, so it only accepts payloads carrying a valid ``auth`` HMAC
under the server's restore key (see
:func:`repro.serve.controller.sign_checkpoint` and
``docs/live-control.md`` for the trust model).
"""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api.scenario import Scenario
from repro.errors import CheckpointError, ConfigError, Neu10Error
from repro.serve.controller import ServeController

#: Default auto-tick cadence: one segment per wall-clock interval.
DEFAULT_TICK_S = 0.5


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's controller; never raises."""

    server_version = "repro-serve/1"
    #: Quiet by default; the CLI owns stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    @property
    def controller(self) -> ServeController:
        return self.server.controller  # type: ignore[attr-defined]

    def _reply(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/status":
                self._reply(self.controller.status())
            elif parsed.path == "/metrics":
                self._reply(self.controller.metrics())
            elif parsed.path == "/snapshot":
                self._reply(self.controller.snapshot())
            elif parsed.path == "/segments":
                query = parse_qs(parsed.query)
                since = int(query.get("since", ["0"])[0])
                self._reply(self.controller.segments(since))
            else:
                self._reply({"error": f"unknown path {parsed.path!r}"}, 404)
        except Neu10Error as exc:
            self._reply({"error": str(exc)}, 400)
        except (ValueError, TypeError) as exc:
            # Parameter coercion (int("abc"), float(None), ...) raises
            # bare built-ins; they are client errors, not crashes.
            self._reply({"error": f"invalid parameter: {exc}"}, 400)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        try:
            body = self._body()
            if parsed.path == "/advance":
                observations = self.controller.advance(
                    until_s=body.get("until_s"),
                    segments=body.get("segments"),
                )
                self._reply({
                    "segments": observations,
                    "status": self.controller.status(),
                })
            elif parsed.path == "/pause":
                self._reply(self.controller.pause())
            elif parsed.path == "/start":
                self._reply(self.controller.start())
            elif parsed.path == "/restore":
                self._reply(self.controller.restore(body))
            elif parsed.path == "/inject":
                self._reply(self.controller.inject(body))
            else:
                self._reply({"error": f"unknown path {parsed.path!r}"}, 404)
        except CheckpointError as exc:
            self._reply({"error": str(exc)}, 409)
        except Neu10Error as exc:
            self._reply({"error": str(exc)}, 400)
        except (ValueError, TypeError) as exc:
            self._reply({"error": f"invalid parameter: {exc}"}, 400)


class ServeServer(ThreadingHTTPServer):
    """Threading HTTP server owning one controller and one tick thread."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        controller: ServeController,
        tick_s: Optional[float] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.controller = controller
        self._tick_s = tick_s
        self._stop = threading.Event()
        self._ticker: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start_ticker(self) -> None:
        """Start the auto-tick thread (no-op without a cadence).

        A tick that raises pauses the session and prints the traceback
        on stderr; the thread lives on, so ``POST /restore`` of an
        earlier snapshot and ``POST /start`` resume ticking."""
        if self._tick_s is None or self._ticker is not None:
            return

        def _run() -> None:
            while not self._stop.wait(self._tick_s):
                try:
                    self.controller.tick()
                except Exception:
                    traceback.print_exc()
                    self.controller.pause()

        self._ticker = threading.Thread(
            target=_run, name="repro-serve-tick", daemon=True
        )
        self._ticker.start()

    def shutdown(self) -> None:
        self._stop.set()
        super().shutdown()


def make_server(
    scenario: Scenario,
    host: str = "127.0.0.1",
    port: int = 0,
    tick_s: Optional[float] = None,
    restore_key: Optional[str] = None,
) -> ServeServer:
    """Build (but do not run) a serve server for one cluster scenario.

    ``port=0`` binds an ephemeral port; read the bound address back
    from ``server.server_address``.  ``tick_s`` enables the auto-tick
    thread once :meth:`ServeServer.start_ticker` is called.
    ``restore_key`` is the HMAC key authenticating ``POST /restore``
    payloads (``None`` generates a fresh random key, readable back from
    ``server.controller.restore_key``); a fresh server restoring a
    snapshot from a dead one must be started with the dead server's
    key.
    """
    controller = ServeController(scenario, restore_key=restore_key)
    if tick_s is not None:
        # A ticking server starts paused so a client can attach and
        # decide before any segment is consumed.
        controller.paused = True
    return ServeServer((host, port), controller, tick_s)


def serve_forever(server: ServeServer) -> None:
    """Run the server until interrupted (the CLI's blocking loop)."""
    server.start_ticker()
    try:
        server.serve_forever()
    finally:
        server.shutdown()
        server.server_close()
