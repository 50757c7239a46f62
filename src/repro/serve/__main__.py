"""Serve CLI.

``python -m repro.serve`` (no subcommand) runs a server:

* ``--host`` / ``--port`` — bind address (``REPRO_SERVE_PORT`` sets the
  default port; ``0`` asks the OS and prints the pick).
* ``--jobs`` — worker processes for this instance's ``SimRunner``.
* ``--max-batch`` — queue drain bound per runner batch.

``python -m repro.serve ping [URL]`` health-checks an instance (URL
defaults to ``REPRO_SERVE_URL``), optionally waiting for it to come up
— which is how the CI smoke step synchronizes with a server it just
backgrounded.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from ..envknobs import env_int, env_url
from ..runner.runner import SimRunner
from .broker import JobBroker
from .client import ServeClient, ServeUnavailable
from .server import Server

#: Default port when neither --port nor REPRO_SERVE_PORT says otherwise.
DEFAULT_PORT = 8023


def cmd_serve(args) -> int:
    runner = SimRunner(jobs=args.jobs)
    broker = JobBroker(runner=runner, max_batch=args.max_batch)
    server = Server(broker, host=args.host, port=args.port)

    async def main() -> None:
        await server.start()
        print(f"repro.serve listening on {server.url} "
              f"({runner.workers} worker(s), cache "
              f"{broker.cache.directory})", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro.serve: shutting down", flush=True)
    return 0


def cmd_ping(args) -> int:
    url = args.url or env_url("REPRO_SERVE_URL")
    if not url:
        print("ping: no URL given and REPRO_SERVE_URL unset",
              file=sys.stderr)
        return 2
    client = ServeClient(url, timeout=5.0)
    deadline = time.monotonic() + args.wait
    while True:
        try:
            payload = client.healthz()
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        except ServeUnavailable as exc:
            if time.monotonic() >= deadline:
                print(f"ping: {exc}", file=sys.stderr)
                return 1
            time.sleep(0.2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run (or probe) the simulation job server.")
    sub = parser.add_subparsers(dest="command")

    p_serve = sub.add_parser("serve", help="run a server (the default)")
    for p in (parser, p_serve):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument(
            "--port", type=int,
            default=env_int("REPRO_SERVE_PORT", DEFAULT_PORT,
                            minimum=0, maximum=65535),
            help=f"bind port (default: REPRO_SERVE_PORT or "
                 f"{DEFAULT_PORT}; 0 = OS-assigned)")
        p.add_argument("--jobs", type=int, default=None,
                       help="SimRunner worker processes "
                            "(default: REPRO_JOBS / all cores)")
        p.add_argument("--max-batch", type=int, default=64,
                       help="max jobs per runner batch (default 64)")

    p_ping = sub.add_parser("ping", help="health-check an instance")
    p_ping.add_argument("url", nargs="?", default=None,
                        help="base URL (default: REPRO_SERVE_URL)")
    p_ping.add_argument("--wait", type=float, default=0.0,
                        help="keep retrying for up to this many seconds")

    args = parser.parse_args(argv)
    if args.command == "ping":
        return cmd_ping(args)
    return cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
