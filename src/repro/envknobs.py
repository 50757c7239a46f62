"""Validated environment knobs, shared across subsystems.

Every ``REPRO_*`` knob is parsed through these helpers so a malformed
value fails immediately with an error naming the variable and the
accepted forms — never as a bare ``int()`` traceback deep inside a
sweep, and never by silently treating junk as "on".  This is the only
module under ``repro`` that reads ``os.environ``
(``tests/test_envknobs.py`` enforces it).
"""

from __future__ import annotations

import os


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """An integer knob; unset/empty means ``default``.

    Values below ``minimum`` and non-integers raise ``ValueError`` with
    the variable named.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return default
    message = f"{name} must be an integer >= {minimum}, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if value < minimum:
        raise ValueError(message)
    return value


def env_dir(name: str):
    """A directory-path knob: unset/empty -> ``None`` (caller default).

    The path need not exist yet (stores create their roots lazily), but
    a value naming an existing *non-directory* is rejected immediately
    with the variable named — writing a store "into" a regular file
    would otherwise surface as a confusing ``mkdir`` traceback mid-run.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return None
    if os.path.exists(raw) and not os.path.isdir(raw):
        raise ValueError(
            f"{name} must name a directory (existing or creatable), "
            f"got non-directory {raw!r}")
    return raw


def env_url(name: str):
    """An HTTP base-URL knob: unset/empty/``0`` -> ``None`` (off).

    This is the serve-client convention (``REPRO_SERVE_URL``): by
    default everything executes in-process, ``0`` forces that
    explicitly, and a value must be a well-formed ``http(s)://host[:port]``
    base URL — anything else raises ``ValueError`` naming the variable,
    instead of surfacing as a ``urllib`` traceback mid-experiment.
    Trailing slashes are stripped so path joins are uniform.
    """
    from urllib.parse import urlsplit
    raw = os.environ.get(name, "")
    if raw in ("", "0"):
        return None
    parts = urlsplit(raw)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(
            f"{name} must be unset, '0', or an http(s)://host[:port] "
            f"base URL, got {raw!r}")
    return raw.rstrip("/")


def env_flag(name: str, default: bool = False) -> bool:
    """A strict boolean knob: unset/empty -> ``default``, ``0``/``1``
    -> off/on, anything else -> ``ValueError``.

    Strictness matters for flags: ``REPRO_QUICK=yes`` silently meaning
    "on" (or, worse, a typo like ``REPRO_PROFILE=l`` meaning "on") hides
    the user's intent; rejecting junk surfaces it.
    """
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise ValueError(
        f"{name} must be unset, '', '0', or '1', got {raw!r}")
