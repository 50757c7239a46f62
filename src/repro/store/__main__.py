"""Store maintenance CLI.

``python -m repro.store <store> <command>`` for every on-disk store —
``results`` (the result cache), ``checkpoints``, ``plans`` (sampling
plans) and ``traces``:

* ``list``   — entries, oldest first, with size or CORRUPT.
* ``verify`` — check one entry (or all) in full; exits 1 on any missing
  or corrupt entry.
* ``gc``     — remove corrupt entries and stale temporaries, and with
  ``--keep N`` all but the N most recent entries.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Dict, Optional

from . import Store, StoreCorrupt


def _results(directory: Optional[pathlib.Path]) -> Store:
    from ..runner.cache import ResultCache
    return ResultCache(directory, persistent=True)


def _checkpoints(directory: Optional[pathlib.Path]) -> Store:
    from ..checkpoint.store import CheckpointStore
    return CheckpointStore(directory)


def _plans(directory: Optional[pathlib.Path]) -> Store:
    from ..sampling.plan import PlanStore
    return PlanStore(directory)


def _traces(directory: Optional[pathlib.Path]) -> Store:
    from ..tracestream.store import TraceStore
    return TraceStore(directory)


#: Store name -> constructor over a directory (None: the default).
STORES: Dict[str, Callable[[Optional[pathlib.Path]], Store]] = {
    "results": _results, "checkpoints": _checkpoints,
    "plans": _plans, "traces": _traces}


def cmd_list(store: Store, args) -> int:
    keys = store.entries()
    print(f"{len(keys)} {store.name} entr{'y' if len(keys) == 1 else 'ies'}"
          f" under {store.directory}")
    for key in keys:
        try:
            status = f"{store.verify(key) / 1024.0:10.1f} KiB"
        except FileNotFoundError:
            status = "MISSING"
        except StoreCorrupt as exc:
            status = f"CORRUPT ({exc})"
        print(f"  {key}  {status}")
    return 0


def cmd_verify(store: Store, args) -> int:
    keys = [args.key] if args.key else store.entries()
    bad = 0
    for key in keys:
        try:
            store.verify(key)
        except FileNotFoundError:
            print(f"  missing {key}", file=sys.stderr)
            bad += 1
        except StoreCorrupt as exc:
            print(f"  CORRUPT {key}: {exc}", file=sys.stderr)
            bad += 1
        else:
            print(f"  ok      {key}")
    print(f"{len(keys) - bad} of {len(keys)} {store.name} entries ok "
          f"under {store.directory}")
    return 1 if bad else 0


def cmd_gc(store: Store, args) -> int:
    removed = store.gc(keep=args.keep)
    print(f"removed {len(removed)} from {store.name} under "
          f"{store.directory}")
    for name in removed:
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="List, verify and garbage-collect the on-disk stores.")
    parser.add_argument("store", choices=sorted(STORES))
    parser.add_argument("--dir", type=pathlib.Path, default=None,
                        help="store directory (default: the store's "
                             "REPRO_*_DIR knob or benchmarks/.<name>)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list entries, oldest first")
    p_verify = sub.add_parser("verify", help="check entries in full")
    p_verify.add_argument("key", nargs="?", default=None,
                          help="one key (default: every entry)")
    p_gc = sub.add_parser("gc", help="remove corrupt and old entries")
    p_gc.add_argument("--keep", type=int, default=None,
                      help="also remove all but the N most recent "
                           "entries")
    args = parser.parse_args(argv)
    store = STORES[args.store](args.dir)
    handlers = {"list": cmd_list, "verify": cmd_verify, "gc": cmd_gc}
    return handlers[args.command](store, args)


if __name__ == "__main__":
    sys.exit(main())
