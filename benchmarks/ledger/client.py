"""A minimal keep-alive HTTP/1.1 client (one socket, GET only).

The load generator's own cost is part of every measured round trip, so
it is kept to a ``sendall`` of pre-encoded bytes and a buffered read of
a ``Content-Length`` or chunked body — ``http.client`` spends several
times longer per request building and parsing header objects.
"""

from __future__ import annotations

import socket


class KeepAliveClient:
    """One persistent connection to ``host:port``."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._host = f"{host}:{port}".encode("ascii")

    def get(self, target: bytes) -> tuple[int, bytes]:
        """Send ``GET target`` and return ``(status, body)``."""
        self._sock.sendall(
            b"GET " + target + b" HTTP/1.1\r\nHost: " + self._host + b"\r\n\r\n"
        )
        reader = self._reader
        status_line = reader.readline()
        if not status_line:
            raise ConnectionError("server closed the keep-alive connection")
        status = int(status_line.split(b" ", 2)[1])
        length = None
        chunked = False
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"transfer-encoding":
                chunked = b"chunked" in value.lower()
        if not chunked:
            return status, reader.read(length or 0)
        parts: list[bytes] = []
        while True:
            size = int(reader.readline().split(b";", 1)[0], 16)
            if size == 0:
                # Trailer section (empty here) ends with a blank line.
                while reader.readline() not in (b"\r\n", b"\n", b""):
                    pass
                return status, b"".join(parts)
            parts.append(reader.read(size))
            reader.readline()  # the CRLF closing the chunk

    def close(self) -> None:
        self._reader.close()
        self._sock.close()
