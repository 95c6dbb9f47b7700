"""Blocking client for a running ``repro serve`` daemon.

The submit/await API promised by the service layer::

    import repro

    with repro.connect("unix:/tmp/repro.sock") as client:
        job_id = client.submit(source, inputs={"A": a, "B": b},
                               params={"m": 8}, deadline=5.0)
        record = client.wait(job_id)          # raises typed ServeError
        streams = record["result"]["streams"]

or in one round trip ``client.submit_and_wait(...)``.  Typed job
failures (:class:`~repro.serve.protocol.ServerOverloaded`,
``JobDeadlineExceeded``, ``JobRetriesExhausted``, ...) re-raise on the
client as the same exception type the server recorded, so retry loops
can catch precisely.

Transport is one NDJSON frame per request over a unix or TCP socket;
replies are the CLI's stable ``--json`` envelope.
"""

from __future__ import annotations

import socket
import uuid
from typing import Any, Optional

from .serve.protocol import (
    JobSpec,
    ServeError,
    decode_line,
    encode_line,
    error_from_dict,
)

__all__ = ["ServeClient", "connect"]


class ServeClient:
    """One connection to a serve daemon; safe for sequential use."""

    def __init__(self, *, path: Optional[str] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 timeout: float = 120.0) -> None:
        if path is None and port is None:
            raise ServeError("client needs a socket path or a port")
        self._path = path
        self._host = host
        self._port = port
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._fh = None

    # -- plumbing ------------------------------------------------------
    def _ensure(self) -> None:
        if self._sock is not None:
            return
        if self._path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(self._path)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._sock = sock
        self._fh = sock.makefile("rb")

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        self._ensure()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """One raw request/reply; returns the envelope ``result`` and
        raises the typed error when the envelope says ``ok: false``
        with an error payload."""
        self._ensure()
        payload = {"op": op}
        payload.update(fields)
        self._sock.sendall(encode_line(payload))
        line = self._fh.readline()
        if not line:
            raise ServeError("server closed the connection")
        reply = decode_line(line)
        result = reply.get("result", {})
        if not reply.get("ok") and isinstance(result, dict) \
                and "error" in result:
            raise error_from_dict(result["error"])
        return result

    # -- the submit/await API ------------------------------------------
    @staticmethod
    def _spec(source: str, *, inputs: dict[str, list],
              params: Optional[dict[str, int]] = None,
              kind: str = "foriter", tenant: str = "default",
              deadline: Optional[float] = None,
              options: Optional[dict[str, Any]] = None,
              faults: Optional[dict[str, Any]] = None,
              job_id: Optional[str] = None) -> dict[str, Any]:
        spec = JobSpec(
            id=job_id or uuid.uuid4().hex,
            source=source,
            kind=kind,
            tenant=tenant,
            params=dict(params or {}),
            inputs=inputs,
            options=dict(options or {}),
            deadline=deadline,
            faults=faults,
        )
        return spec.to_dict()

    def submit(self, source: str, **kwargs: Any) -> str:
        """Admit one job; returns its id (raises
        :class:`ServerOverloaded` when shed)."""
        job = self._spec(source, **kwargs)
        result = self.request("submit", job=job)
        return result["id"]

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> dict[str, Any]:
        """Block until the job's terminal record; a failed job
        re-raises its typed error, a successful one returns the
        record (``record["result"]["streams"]`` holds the values)."""
        fields: dict[str, Any] = {"id": job_id}
        if timeout is not None:
            fields["timeout"] = timeout
        record = self.request("wait", **fields)
        return self._unwrap(record)

    def submit_and_wait(self, source: str, **kwargs: Any) -> dict[str, Any]:
        """Admit + await in one round trip."""
        job = self._spec(source, **kwargs)
        record = self.request("submit_wait", job=job)
        return self._unwrap(record)

    @staticmethod
    def _unwrap(record: dict[str, Any]) -> dict[str, Any]:
        if not record.get("ok") and isinstance(record.get("error"), dict):
            raise error_from_dict(record["error"])
        return record

    # -- observability --------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self.request("healthz")

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")


def connect(address: str, *, timeout: float = 120.0) -> ServeClient:
    """Open a client from an address string.

    ``"unix:/path/to.sock"`` (or a bare path containing ``/``) for a
    unix socket; ``"host:port"`` or ``":port"`` for TCP.
    """
    if address.startswith("unix:"):
        return ServeClient(path=address[len("unix:"):], timeout=timeout)
    if "/" in address:
        return ServeClient(path=address, timeout=timeout)
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ServeError(
            f"cannot parse address {address!r}; expected "
            f"'unix:/path', '/path', 'host:port' or ':port'"
        )
    return ServeClient(host=host or "127.0.0.1", port=int(port),
                       timeout=timeout)
