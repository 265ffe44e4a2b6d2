"""Test/ops harness: run a real compile server on a background thread.

The server's own event loop runs on a dedicated thread; the caller gets
a handle with a blocking :meth:`ServerHandle.request` built on
``http.client``, so tests, the fault drill and the CI smoke all
exercise the genuine socket path -- HTTP framing, body limits,
admission control and all -- inside one process.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from typing import Dict, Optional, Tuple

from repro.server.app import CompileServer, ServerConfig


class ServerHandle:
    """A running compile server plus a blocking HTTP client for it."""

    def __init__(self, server: CompileServer):
        self.server = server
        self.thread: Optional[threading.Thread] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.final_metrics: Optional[Dict[str, object]] = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            self.final_metrics = loop.run_until_complete(
                self.server.serve_forever(
                    ready=lambda port: self._ready.set()
                )
            )
        finally:
            loop.close()

    def start(self, timeout: float = 60.0) -> "ServerHandle":
        self.server.startup()
        self.thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self.thread.start()
        if not self._ready.wait(timeout):  # pragma: no cover - startup hang
            raise RuntimeError("server did not start in time")
        return self

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        raw: Optional[bytes] = None,
        timeout: float = 60.0,
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """One HTTP round trip; returns (status, decoded body, headers)."""
        payload = raw if raw is not None else (
            json.dumps(body or {}).encode("utf-8")
        )
        conn = http.client.HTTPConnection(
            self.server.config.host, self.port, timeout=timeout
        )
        try:
            conn.request(
                method, path,
                body=payload if method == "POST" else None,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            blob = response.read()
            headers = dict(response.getheaders())
            return response.status, json.loads(blob.decode("utf-8")), headers
        finally:
            conn.close()

    def stop(self, timeout: float = 30.0) -> Dict[str, object]:
        """Graceful drain (what SIGTERM triggers) and join the thread."""
        assert self.thread is not None
        if self.loop is not None and self.loop.is_running():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():  # pragma: no cover - drain hang
            raise RuntimeError("server thread did not drain in time")
        assert self.final_metrics is not None
        return self.final_metrics


def start_server(
    config: Optional[ServerConfig] = None, timeout: float = 60.0
) -> ServerHandle:
    """Start a compile server on a background thread; blocks until the
    socket is bound (port 0 in the config picks a free port)."""
    server = CompileServer(config or ServerConfig(port=0))
    return ServerHandle(server).start(timeout=timeout)
