"""A reference HTTP server that is not the program.

Usage: ``python3 perfbench/perf_refserver.py``; it prints
``http://127.0.0.1:<port>`` once listening and serves until killed.

Every request, whatever its path, is read like ``repro serve`` reads one
(``asyncio`` streams, a JSON body), costs a fixed piece of pure-Python work
(:func:`perf_common.reference_body`, sized so that a round trip takes
about as long as a warm read of ``repro serve``), and is answered with a small JSON
document on a closed connection.  The http_serve clients time one such
round trip after every warm read, so both see the same state of the host;
see :data:`perf_http.PROBE_REFERENCE_MS`.
"""

from __future__ import annotations

import asyncio
import json

from perf_common import reference_body

#: Iterations of the reference loop per request.
ITERATIONS = 14000
RESPONSE = json.dumps({"result": {"cache_tier": "reference"}}).encode("utf-8")


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    json.loads(await reader.readexactly(length) or b"{}")
    reference_body(ITERATIONS)
    writer.write(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(RESPONSE) + RESPONSE
    )
    await writer.drain()
    writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
