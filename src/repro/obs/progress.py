"""Live sweep progress: one ``\\r``-refreshed stderr line.

:class:`repro.runner.SimRunner` drives this while a batch executes::

    [run 42%] 5/12 jobs | memo 3 disk 1 ckpt 2 | eta 0:41

Display policy mirrors every polite CLI tool: the line renders only
when stderr is a TTY, so piped/redirected runs (CI, ``2>log``) stay
byte-clean.  Rendering is throttled to ~10 Hz so a memo-hit-heavy sweep
doesn't spend its time painting the terminal.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional


def wanted(stream: Optional[IO[str]] = None) -> bool:
    """Should a progress line render on ``stream`` (default stderr)?"""
    stream = stream if stream is not None else sys.stderr
    isatty = getattr(stream, "isatty", None)
    return bool(isatty and isatty())


def format_eta(seconds: float) -> str:
    """``m:ss`` / ``h:mm:ss`` for human ETAs (negative clamps to 0)."""
    total = max(0, int(seconds + 0.5))
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class ProgressLine:
    """Renders sweep progress in place; a no-op when not wanted.

    The ETA comes from the *executed*-job rate only — cache hits are
    resolved before the pool spins up, so counting them would make the
    estimate collapse toward zero on warm sweeps.
    """

    def __init__(self, total: int, done: int = 0,
                 stream: Optional[IO[str]] = None,
                 min_interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = total > 0 and wanted(self.stream)
        self.total = total
        self.done = done
        self.done0 = done  # cache-served baseline, excluded from the rate
        self.memo_hits = 0
        self.disk_hits = 0
        self.ckpt_hits = 0
        self._t0 = time.monotonic()
        self._last_render = 0.0
        self._min_interval = min_interval
        self._dirty = False

    def update(self, done: Optional[int] = None, memo_hits: int = 0,
               disk_hits: int = 0, ckpt_hits: int = 0) -> None:
        """Advance counters and render (throttled)."""
        if done is not None:
            self.done = done
        self.memo_hits += memo_hits
        self.disk_hits += disk_hits
        self.ckpt_hits += ckpt_hits
        if not self.enabled:
            return
        self._dirty = True
        now = time.monotonic()
        if now - self._last_render >= self._min_interval:
            self._render(now)

    def render_line(self, now: Optional[float] = None) -> str:
        now = time.monotonic() if now is None else now
        pct = 100 * self.done // self.total if self.total else 100
        parts = [f"[run {pct:3d}%] {self.done}/{self.total} jobs"]
        extras = []
        if self.memo_hits:
            extras.append(f"memo {self.memo_hits}")
        if self.disk_hits:
            extras.append(f"disk {self.disk_hits}")
        if self.ckpt_hits:
            extras.append(f"ckpt {self.ckpt_hits}")
        if extras:
            parts.append(" ".join(extras))
        executed = self.done - self.done0
        if executed > 0 and self.done < self.total:
            rate = executed / max(now - self._t0, 1e-9)
            parts.append(f"eta {format_eta((self.total - self.done) / rate)}")
        return " | ".join(parts)

    def _render(self, now: float) -> None:
        line = self.render_line(now)
        # Pad over any longer previous line before the carriage return.
        self.stream.write("\r" + line + " " * 8 + "\r" + line)
        self.stream.flush()
        self._last_render = now
        self._dirty = False

    def finish(self) -> None:
        """Final render + newline so the shell prompt lands cleanly."""
        if not self.enabled:
            return
        if self._dirty or self.done:
            self._render(time.monotonic())
        self.stream.write("\n")
        self.stream.flush()
