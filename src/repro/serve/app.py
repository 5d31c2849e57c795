"""Minimal ASGI-style application and stdlib asyncio HTTP server.

No web framework: :class:`App` is a tiny router whose handlers take a
:class:`Request` and return a :class:`Response` (optionally streaming).
The object is a valid ASGI 3 callable — tests drive it in-process and
any ASGI server could host it — while :func:`run_app` serves it over a
plain :func:`asyncio.start_server` HTTP/1.1 loop (one request per
connection, ``Connection: close``), which is all the service's
single-digit-client use needs.

:func:`create_app` wires the route table for the partitioning service
from a :class:`~repro.serve.queue.JobManager` and an
:class:`~repro.serve.artifacts.ArtifactCache`; the handler bodies live
in :mod:`repro.serve.handlers`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import re
import signal
from typing import Any, AsyncIterator, Awaitable, Callable
from urllib.parse import parse_qsl, unquote

from repro.errors import ConfigurationError, ReproError
from repro.serve.artifacts import ArtifactCache, StaleInputError
from repro.serve.queue import JobManager, QueueFullError, SubmitError

__all__ = [
    "App", "HTTPError", "Request", "Response", "create_app", "run_app",
    "serve_forever",
]

_LOG = logging.getLogger("repro.serve")

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HTTPError(Exception):
    """A handler-raised error carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        """Record the status code and client-facing message."""
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request handed to a route handler."""

    def __init__(self, method: str, path: str, query: dict[str, str],
                 body: bytes, params: dict[str, str] | None = None) -> None:
        """Bundle the request line, query, body, and path parameters."""
        self.method = method
        self.path = path
        self.query = query
        self.body = body
        self.params = params or {}

    def json(self) -> Any:
        """Decode the body as JSON (empty body → ``{}``)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}")

    def int_param(self, name: str) -> int:
        """A path parameter as an integer, or a 400."""
        try:
            return int(self.params[name])
        except (KeyError, ValueError):
            raise HTTPError(400, f"path parameter {name!r} must be an integer")


class Response:
    """A status + JSON (or raw/streaming) payload."""

    def __init__(
        self,
        status: int = 200,
        body: "bytes | str | dict | list | None" = None,
        content_type: str = "application/json",
        stream: "AsyncIterator[bytes] | None" = None,
    ) -> None:
        """Normalize ``body`` to bytes unless ``stream`` is given."""
        self.status = status
        self.content_type = content_type
        self.stream = stream
        if stream is not None:
            self.body = b""
        elif body is None:
            self.body = b""
        elif isinstance(body, bytes):
            self.body = body
        elif isinstance(body, str):
            self.body = body.encode("utf-8")
        else:
            self.body = (json.dumps(body, sort_keys=True) + "\n").encode(
                "utf-8"
            )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        """A JSON error document for ``status``."""
        return cls(status, {"error": message, "status": status})


Handler = Callable[[Request], Awaitable[Response]]


class App:
    """Route table + dispatch; a valid ASGI 3 application object."""

    def __init__(self) -> None:
        """Start with an empty route table."""
        self._routes: list[tuple[str, "re.Pattern[str]", Handler]] = []

    def route(self, method: str, pattern: str) -> Callable[[Handler], Handler]:
        """Register ``handler`` for ``method`` + ``pattern``.

        ``pattern`` is a literal path where ``{name}`` segments match
        one path component and land in ``request.params``.
        """
        regex = re.compile(
            "^"
            + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern)
            + "$"
        )

        def register(handler: Handler) -> Handler:
            """Record the (method, pattern, handler) triple."""
            self._routes.append((method.upper(), regex, handler))
            return handler

        return register

    async def dispatch(self, method: str, path: str, query: str,
                       body: bytes) -> Response:
        """Route one request; exceptions become JSON error responses.

        A handler's :class:`HTTPError` keeps its status; a stale input
        is 409, a bad submit or parameter 400, a full queue 503, and
        any other exception 500 naming its type (traceback logged).
        """
        params_query = dict(parse_qsl(query))
        path_seen = False
        for route_method, regex, handler in self._routes:
            match = regex.match(path)
            if match is None:
                continue
            path_seen = True
            if route_method != method.upper():
                continue
            request = Request(
                method.upper(), path, params_query, body,
                {k: unquote(v) for k, v in match.groupdict().items()},
            )
            try:
                return await handler(request)
            except HTTPError as exc:
                return Response.error(exc.status, exc.message)
            except StaleInputError as exc:
                return Response.error(409, str(exc))
            except (SubmitError, ConfigurationError) as exc:
                return Response.error(400, str(exc))
            except QueueFullError as exc:
                return Response.error(503, str(exc))
            except ReproError as exc:
                return Response.error(500, str(exc))
            except Exception as exc:  # noqa: BLE001 — always answer
                _LOG.exception("%s %s failed", method, path)
                return Response.error(500, f"{type(exc).__name__}: {exc}")
        if path_seen:
            return Response.error(405, f"{method} not allowed on {path}")
        return Response.error(404, f"no route for {path}")

    async def __call__(self, scope: dict, receive, send) -> None:
        """ASGI 3 entry point (``http`` scopes only)."""
        if scope["type"] != "http":  # pragma: no cover - lifespan etc.
            raise NotImplementedError(f"scope type {scope['type']!r}")
        body = b""
        while True:
            message = await receive()
            body += message.get("body", b"")
            if not message.get("more_body"):
                break
        response = await self.dispatch(
            scope["method"], scope["path"],
            scope.get("query_string", b"").decode("latin-1"), body,
        )
        headers = [(b"content-type", response.content_type.encode("latin-1"))]
        await send({
            "type": "http.response.start",
            "status": response.status,
            "headers": headers,
        })
        if response.stream is not None:
            async for chunk in response.stream:
                await send({
                    "type": "http.response.body", "body": chunk,
                    "more_body": True,
                })
            await send({"type": "http.response.body", "body": b""})
        else:
            await send({
                "type": "http.response.body", "body": response.body,
            })


async def _serve_connection(app: App, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Parse one HTTP/1.1 request, dispatch, write, close."""
    try:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError, asyncio.LimitOverrunError):
            return
        request_line, _, header_blob = head.partition(b"\r\n")
        try:
            method, target, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            writer.write(b"HTTP/1.1 400 Bad Request\r\n\r\n")
            return
        headers: dict[str, str] = {}
        for line in header_blob.decode("latin-1").split("\r\n"):
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        response = await app.dispatch(method, unquote(path), query, body)
        reason = _REASONS.get(response.status, "Unknown")
        head_lines = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            "Connection: close\r\n"
        )
        if response.stream is None:
            head_lines += f"Content-Length: {len(response.body)}\r\n\r\n"
            writer.write(head_lines.encode("latin-1") + response.body)
            await writer.drain()
        else:
            writer.write(head_lines.encode("latin-1") + b"\r\n")
            await writer.drain()
            async for chunk in response.stream:
                writer.write(chunk)
                await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_app(app: App, host: str = "127.0.0.1",
                  port: int = 0) -> asyncio.AbstractServer:
    """Start serving ``app`` on ``host:port``; returns the server.

    ``port=0`` binds an ephemeral port; read the bound address from
    ``server.sockets[0].getsockname()``.  The caller owns shutdown
    (``server.close()`` + ``await server.wait_closed()``).
    """
    return await asyncio.start_server(
        lambda r, w: _serve_connection(app, r, w), host=host, port=port
    )


def create_app(manager: JobManager, cache: ArtifactCache) -> App:
    """Build the partitioning-service route table."""
    from repro.serve.handlers import register_routes

    app = App()
    register_routes(app, manager, cache)
    return app


async def serve_forever(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8642,
    queue_size: int = 16,
    lru: int = 4,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Shutdown guarantees (see ``docs/serve.md``): the listener closes
    first (no new submits), queued jobs flip to ``cancelled``, a
    running job is cancelled at its next stage boundary (where no BSP
    worker or shared segment is left), the runner thread is joined,
    and only then does the process exit.
    """
    from repro.runtime.store import ArtifactStore

    loop = asyncio.get_running_loop()
    store = ArtifactStore(store_root)
    manager = JobManager(store, queue_size=queue_size, loop=loop)
    cache = ArtifactCache(store, capacity=lru)
    app = create_app(manager, cache)
    await manager.start()
    server = await run_app(app, host=host, port=port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        print(
            f"repro serve: listening on http://{bound_host}:{bound_port} "
            f"(cache: {store_root})",
            flush=True,
        )
        await stop.wait()
        print("repro serve: draining", flush=True)
        server.close()
        await server.wait_closed()
        await manager.shutdown()
    finally:
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(ValueError, RuntimeError):
                loop.remove_signal_handler(sig)
    print("repro serve: shutdown complete", flush=True)
    return 0
