"""The report every command prints: pass/fail checks plus free-form info,
rendered as plain text or JSON."""

from __future__ import annotations

import json
import time


class Report:
    """Pass/fail lines plus free-form info, printable as text or JSON."""

    def __init__(self, command):
        self.command = command
        self.checks = []  # (name, ok, detail)
        self.info = []
        self.started = time.monotonic()

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def note(self, text):
        self.info.append(text)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def render(self, as_json=False, timings=False):
        elapsed = time.monotonic() - self.started
        if as_json:
            payload = {
                "command": self.command,
                "checks": [
                    {"check": name, "ok": ok, "detail": detail}
                    for name, ok, detail in self.checks
                ],
                "info": self.info,
                "passed": self.passed,
            }
            if timings:
                payload["elapsed_seconds"] = round(elapsed, 3)
            return json.dumps(payload, indent=2)
        lines = [f"command: {self.command}"]
        lines += self.info
        for name, ok, detail in self.checks:
            line = f"{'PASS' if ok else 'FAIL'}  {name}"
            if detail:
                line += f"  ({detail})"
            lines.append(line)
        if timings:
            lines.append(f"elapsed: {elapsed:.3f}s")
        return "\n".join(lines)

    def __str__(self):
        return self.render()
