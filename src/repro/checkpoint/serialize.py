"""Versioned, pickle-free ``.npz`` serialization for simulator state.

A state tree is a nested structure of ``dict`` (string keys), ``list`` /
``tuple``, scalars (``int``/``float``/``bool``/``str``/``None``) and
``numpy.ndarray`` leaves — exactly what :meth:`Snapshottable.state_dict`
produces.  The tree is split into a JSON *manifest* (structure and
scalars, with each array replaced by an ``{"__nd__": i}`` placeholder)
plus the arrays themselves, and the whole bundle is encoded as one
compressed ``.npz`` archive:

* ``__format__``  — :data:`FORMAT_VERSION` (reject anything else),
* ``__manifest__`` / ``__meta__`` — JSON as 0-d unicode arrays,
* ``a0`` .. ``aN`` — the array leaves, in manifest placeholder order.

Integrity is the store's job: :class:`repro.checkpoint.CheckpointStore`
keeps each archive in a digest-checked :mod:`repro.store` entry.

Nothing here round-trips arbitrary objects: components encode their own
state into this vocabulary (tuples come back as lists; non-string dict
keys are encoded as list-of-pairs by the component).  ``allow_pickle``
is never enabled, so a checkpoint can't execute code on load.

Any unreadable, mis-versioned or malformed archive surfaces as
:class:`CheckpointCorrupt`; the store evicts it and callers fall back
to re-simulation rather than crashing a sweep.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List, Tuple

import numpy as np

#: On-disk checkpoint format.  Bump when the archive layout or the
#: engine state-tree schema changes incompatibly; the store treats a
#: mismatched version as corrupt (→ re-simulate), never as readable.
FORMAT_VERSION = 1

#: Reserved manifest key marking an ndarray placeholder.
_ND = "__nd__"


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file exists but cannot be trusted or decoded."""


def _encode(node: Any, arrays: List[np.ndarray]) -> Any:
    """Replace ndarray leaves with placeholders, validating the tree."""
    if isinstance(node, np.ndarray):
        arrays.append(node)
        return {_ND: len(arrays) - 1}
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"state dict keys must be str, got {key!r} "
                    "(encode non-string keys as list-of-pairs)")
            if key == _ND:
                raise TypeError(f"{_ND!r} is reserved for array markers")
            out[key] = _encode(value, arrays)
        return out
    if isinstance(node, (list, tuple)):
        return [_encode(item, arrays) for item in node]
    if isinstance(node, (np.integer, np.floating, np.bool_)):
        return node.item()
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise TypeError(f"unserializable state leaf of type {type(node)!r}")


def _decode(node: Any, arrays: List[np.ndarray]) -> Any:
    if isinstance(node, dict):
        if set(node) == {_ND}:
            return arrays[node[_ND]]
        return {key: _decode(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(item, arrays) for item in node]
    return node


def dumps(state: Any, meta: Dict[str, Any]) -> bytes:
    """``state`` (+ JSON-able ``meta``) as one compressed archive."""
    arrays: List[np.ndarray] = []
    manifest = json.dumps(_encode(state, arrays), sort_keys=True)
    payload = {
        "__format__": np.array(FORMAT_VERSION, dtype=np.int64),
        "__manifest__": np.array(manifest),
        "__meta__": np.array(json.dumps(meta, sort_keys=True)),
    }
    for i, arr in enumerate(arrays):
        payload[f"a{i}"] = arr
    buf = io.BytesIO()
    np.savez_compressed(buf, **payload)
    return buf.getvalue()


def loads(blob: bytes) -> Tuple[Dict[str, Any], Any]:
    """Decode an archive back into ``(meta, state)``.

    Raises :class:`CheckpointCorrupt` on any defect — missing keys,
    undecodable JSON, version mismatch, a truncated zip.
    """
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
            version = int(archive["__format__"][()])
            if version != FORMAT_VERSION:
                raise CheckpointCorrupt(
                    f"format version {version}, expected {FORMAT_VERSION}")
            manifest = str(archive["__manifest__"][()])
            meta_json = str(archive["__meta__"][()])
            names = sorted(
                (n for n in archive.files if n.startswith("a")),
                key=lambda n: int(n[1:]))
            arrays = [archive[name] for name in names]
    except CheckpointCorrupt:
        raise
    except Exception as exc:  # zipfile/numpy raise many things on garbage
        raise CheckpointCorrupt(f"unreadable archive ({exc})") from exc
    try:
        meta = json.loads(meta_json)
        state = _decode(json.loads(manifest), arrays)
    except (ValueError, IndexError) as exc:
        raise CheckpointCorrupt(f"bad manifest ({exc})") from exc
    return meta, state


def dumps_size(state: Any) -> int:
    """Serialized size of ``state`` in bytes (for overhead reporting)."""
    return len(dumps(state, {}))


def state_equal(a: Any, b: Any) -> bool:
    """Structural equality over state trees.

    Tuples and lists compare equal (serialization turns tuples into
    lists); arrays compare exactly (dtype, shape, every element).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return (a.dtype == b.dtype and a.shape == b.shape
                and bool(np.array_equal(a, b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(state_equal(v, b[k]) for k, v in a.items()))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(state_equal(x, y) for x, y in zip(a, b)))
    if type(a) is bool or type(b) is bool:
        return a is b
    return bool(a == b)
