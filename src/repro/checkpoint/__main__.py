"""Checkpoint CLI.

``python -m repro.checkpoint <command>``:

* ``inspect`` — one entry's metadata and state-tree summary.
* ``smoke``   — run a small save→restore→continue simulation and assert
  bit-identity against a straight run (the CI safety net).

``python -m repro.store checkpoints list|verify|gc`` maintains the
store.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .store import CheckpointStore


def _tree_summary(state: Any, depth: int = 0) -> str:
    """One-line shape description of a state tree node."""
    if isinstance(state, dict):
        return "{" + ", ".join(sorted(state)) + "}"
    if isinstance(state, list):
        return f"list[{len(state)}]"
    return type(state).__name__


def cmd_inspect(store: CheckpointStore, args) -> int:
    loaded = store.get_with_meta(args.key)
    if loaded is None:
        print(f"no (readable) checkpoint {args.key!r}", file=sys.stderr)
        return 1
    meta, state = loaded
    print(json.dumps(meta, indent=2, sort_keys=True))
    if isinstance(state, dict):
        for key in sorted(state):
            print(f"  state[{key!r}]: {_tree_summary(state[key])}")
    else:
        print(f"  state: {_tree_summary(state)}")
    return 0


def cmd_smoke(store: CheckpointStore, args) -> int:
    """Save→restore→continue must be bit-identical to a straight run."""
    import dataclasses

    from ..runner.specs import spec
    from ..runner.traces import get_trace
    from ..sim.config import SystemConfig
    from ..sim.engine import Engine
    from .serialize import state_equal

    config = dataclasses.replace(
        SystemConfig().scaled(num_cores=1), warmup_fraction=0.5)

    def build() -> Engine:
        trace = get_trace(args.workload, args.n, args.seed)
        return Engine([trace], config,
                      l2_prefetchers=[spec(args.prefetcher).build])

    straight = build().run().collect()[0]

    warm = build()
    warm.run_warmup()
    key = "smoke-test"
    store.put(key, warm.state_dict(), {"phase": "smoke"})
    state = store.get(key)
    store.remove(key)
    if state is None:
        print("smoke: snapshot did not survive the store", file=sys.stderr)
        return 1
    if not state_equal(warm.state_dict(), state):
        print("smoke: state tree changed across npz round-trip",
              file=sys.stderr)
        return 1
    resumed_engine = build()
    resumed_engine.load_state(state)
    resumed = resumed_engine.run().collect()[0]
    if resumed != straight:
        print("smoke: resumed result differs from straight run",
              file=sys.stderr)
        print(f"  straight: {straight}", file=sys.stderr)
        print(f"  resumed:  {resumed}", file=sys.stderr)
        return 1
    print(f"smoke ok: {args.prefetcher} on {args.workload} "
          f"(n={args.n}) save→restore→continue is bit-identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checkpoint",
        description="Inspect checkpoints and smoke-test resume.")
    parser.add_argument(
        "--dir", default=None,
        help="store directory (default: REPRO_CKPT_DIR or "
             "benchmarks/.ckpt)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="show one entry's metadata")
    p_inspect.add_argument("key")

    p_smoke = sub.add_parser(
        "smoke", help="assert save→restore→continue bit-identity")
    p_smoke.add_argument("--workload", default="gap.pr")
    p_smoke.add_argument("--prefetcher", default="streamline")
    p_smoke.add_argument("--n", type=int, default=20_000)
    p_smoke.add_argument("--seed", type=int, default=42)

    args = parser.parse_args(argv)
    store = CheckpointStore(args.dir)
    handlers = {"inspect": cmd_inspect, "smoke": cmd_smoke}
    return handlers[args.command](store, args)


if __name__ == "__main__":
    sys.exit(main())
