"""Server child of the service benchmark: gateway + ``NetServer``.

Run by ``perfbench/stack.py`` (``ServerChild``), never by hand::

    PYTHONPATH=src python3 perfbench/server.py --seed 1 --dir <dir> \
        --setups 5 --lrl 4000 --trace 0

It rebuilds the run's deployment from the seed, starts the gateway
``--setups`` times (each start timed from ``build_gateway`` through
``pool.wait_warmup()`` until the server listens; all but the last are
torn down again), then prepares the serving state off the setup clock:
the merchant accounts are opened and ``--lrl`` random ids are revoked.
It prints one JSON line with the address, the setup times and the pids,
serves until its stdin closes, and prints a closing JSON line with the
ledger's intent counts after a clean shutdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stack  # noqa: E402


def _emit(body: dict) -> None:
    sys.stdout.write(json.dumps(body) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setups", type=int, default=stack.SETUPS)
    parser.add_argument("--lrl", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deployment = stack.make_deployment(args.seed)
    gateway = server = None
    try:
        gateway, server, setup_s, directory = stack.start_stack(
            deployment, args.dir, trace=bool(args.trace), setups=args.setups,
            serve=True,
        )
        stack.prepare_serving(gateway, args.seed, args.lrl)
        host, port = server.address
        _emit(
            {
                "host": host,
                "port": port,
                "setup_s": setup_s,
                "server_pid": os.getpid(),
                "worker_pids": [p.pid for p in gateway.pool.processes],
                "directory": directory,
            }
        )
        sys.stdin.read()
        intents = gateway.ledger.intent_counts()
        server.close()
        gateway.close()
        server = gateway = None
        _emit({"intents": intents})
        return 0
    finally:
        if server is not None:
            server.close()
        if gateway is not None:
            gateway.close()


if __name__ == "__main__":
    sys.exit(main())
