"""``repro-node``: run one peer sampling daemon from the command line.

Boot a node, point it at any live contact, and it joins the overlay::

    # first node of a group (nothing to contact yet)
    repro-node --bind 127.0.0.1:9000

    # every further node bootstraps from any live address
    repro-node --bind 127.0.0.1:9001 --contact 127.0.0.1:9000

or bootstrap through a ``repro-seed`` introduction endpoint instead of a
hand-picked contact -- the seed answers with a random sample of live
peers, and the join is retried with capped exponential backoff until an
introducer answers (so daemons may boot before their seed)::

    repro-node --bind 127.0.0.1:0 --introducer 127.0.0.1:9900

The daemon gossips forever (or for ``--cycles N``), printing a status
line every ``--report-every`` seconds: view fill, exchange counters,
timeout/late-reply counts.  ``Ctrl-C`` stops it cleanly -- there is no
leave protocol; the node simply stops gossiping and its descriptors age
out of the group's views (paper Section 2).

The protocol instance is selected with the paper's tuple notation, e.g.
``--protocol "(rand,head,pushpull)"`` (Newscast, the default).
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
from typing import List, Optional, Sequence

from repro.core.config import NetworkConfig, ProtocolConfig
from repro.core.errors import ReproError
from repro.core.protocol import GossipNode
from repro.control.client import IntroducerClient
from repro.control.metrics import MetricsServer, daemon_metrics
from repro.net.daemon import GossipDaemon
from repro.net.transport import TransportError, UdpTransport, parse_address

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-node",
        description="Run a gossip-based peer sampling daemon "
        "(Jelasity et al., Middleware 2004) over UDP.",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="host:port to bind (port 0 = ephemeral; default %(default)s)",
    )
    parser.add_argument(
        "--contact",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="bootstrap contact address (repeatable)",
    )
    parser.add_argument(
        "--introducer",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="repro-seed introduction endpoint to join through "
        "(repeatable; tried in rotation with capped exponential "
        "backoff, so the seed may come up after the daemon)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus metrics over HTTP on this port "
        "(0 = ephemeral; default: no metrics endpoint)",
    )
    parser.add_argument(
        "--protocol",
        default="(rand,head,pushpull)",
        help="protocol instance in the paper's tuple notation "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--view-size", type=int, default=30, help="view capacity c (default 30)"
    )
    parser.add_argument(
        "--cycle", type=float, default=1.0, metavar="SECONDS",
        help="gossip cycle length (default 1.0)",
    )
    parser.add_argument(
        "--jitter", type=float, default=0.1,
        help="cycle jitter as a fraction of the cycle length (default 0.1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.5, metavar="SECONDS",
        help="pull-reply timeout (default 0.5)",
    )
    parser.add_argument(
        "--cycles", type=int, default=None, metavar="N",
        help="stop after N gossip cycles (default: run until interrupted)",
    )
    parser.add_argument(
        "--report-every", type=float, default=5.0, metavar="SECONDS",
        help="status line interval (default 5.0; 0 disables)",
    )
    parser.add_argument(
        "--advertise", default=None, metavar="HOST",
        help="host to advertise in descriptors (required when binding a "
        "wildcard interface such as 0.0.0.0)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="seed the node's RNG"
    )
    return parser


def _status_line(daemon: GossipDaemon) -> str:
    stats = daemon.stats
    return (
        f"[{daemon.address}] view={len(daemon.node.view)}"
        f"/{daemon.node.view.capacity} cycles={stats.cycles} "
        f"ok={stats.exchanges_completed} timeouts={stats.timeouts} "
        f"reqs={stats.requests_received} late={stats.late_replies} "
        f"bad={stats.invalid_messages}"
    )


def _parse_bind(bind: str) -> tuple:
    """Split ``--bind`` into ``(host, port)``, allowing port 0."""
    host, _, port_text = bind.rpartition(":") if ":" in bind else (bind, "", "0")
    try:
        port = int(port_text)
    except ValueError:
        raise TransportError(f"not a host:port bind address: {bind!r}") from None
    if not 0 <= port < 65536:
        raise TransportError(f"port out of range in bind address: {bind!r}")
    return host, port


async def _run_daemon(args: argparse.Namespace) -> int:
    host, port = _parse_bind(args.bind)
    transport = UdpTransport(host, port, advertise_host=args.advertise)
    await transport.start()
    config = ProtocolConfig.from_label(args.protocol, args.view_size)
    network = NetworkConfig(
        cycle_seconds=args.cycle,
        jitter=args.jitter,
        request_timeout=args.timeout,
        bind_host=host,
    )
    rng = random.Random(args.seed)
    node = GossipNode(transport.local_address, config, rng)
    daemon = GossipDaemon(node, transport, network, rng=rng)
    contacts = [c for c in args.contact]
    for contact in contacts + list(args.introducer):
        parse_address(contact)  # fail fast on typos
    daemon.service.init(contacts)
    print(f"repro-node listening on {transport.local_address} "
          f"running {config.label} (c={config.view_size})")
    if contacts:
        print(f"bootstrapping from {', '.join(contacts)}")
    await daemon.start(run_loop=True)
    loop = asyncio.get_running_loop()
    client: Optional[IntroducerClient] = None
    join_task: Optional[asyncio.Task] = None
    metrics_server: Optional[MetricsServer] = None
    try:
        if args.introducer:
            client = IntroducerClient(daemon, args.introducer, rng=rng)
            await client.start()
            print(f"joining via introducer(s) {', '.join(args.introducer)}")

            async def _join() -> None:
                peers = await client.join()
                print(f"joined: {len(peers)} bootstrap peer(s) adopted")

            # Background: the daemon answers gossip while the join retries
            # (the introducer may not even be up yet).
            join_task = loop.create_task(_join())
        if args.metrics_port is not None:
            metrics_server = MetricsServer(
                daemon_metrics(daemon, client),
                host=host,
                port=args.metrics_port,
            )
            metrics_server.start()
            print(f"metrics on {metrics_server.url}")
        poll = min(0.25, args.cycle / 2)
        next_report = loop.time() + args.report_every
        while args.cycles is None or daemon.stats.cycles < args.cycles:
            await asyncio.sleep(poll)
            if args.report_every > 0 and loop.time() >= next_report:
                print(_status_line(daemon))
                next_report += args.report_every
    finally:
        if join_task is not None:
            join_task.cancel()
            try:
                await join_task
            except asyncio.CancelledError:
                pass
        if client is not None:
            await client.stop()
        if metrics_server is not None:
            metrics_server.stop()
        await daemon.stop()
        print(_status_line(daemon))
        print("stopped (descriptors will age out of the group's views)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_run_daemon(args))
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        return 0  # stdout consumer went away (e.g. piped through head)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
