"""Output checks applied to every invocation.

An invocation fails when its exit code is not 0, when a JSON output does not
re-parse strictly (``NaN`` and ``Infinity`` are not JSON), when a verdict in
its primary JSON is wrong, or when an output's bytes differ from those of an
earlier repeat of the same invocation in the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _reject_constant(token: str):
    raise ValueError(f"non-JSON number {token}")


def strict_json(data: bytes) -> dict:
    return json.loads(data, parse_constant=_reject_constant)


def _verdict(name: str, doc: dict) -> str | None:
    if name == "verify.json" and doc.get("passed") is not True:
        return "verify.json: passed is not true"
    if name == "count.json" and doc.get("count_estimate") != doc.get("true_count"):
        return f"count.json: count_estimate {doc.get('count_estimate')} != true_count {doc.get('true_count')}"
    if name == "estimate.json" and not abs(doc["y_hat"] - doc["true_y"]) <= doc["resolution"]:
        return f"estimate.json: |y_hat - true_y| = {abs(doc['y_hat'] - doc['true_y'])} > resolution"
    return None


class OutputChecker:
    """Checks outputs and remembers each invocation's output hashes, so that
    repeats must be byte-identical.  Bytes already checked are not parsed
    again: identical bytes give identical verdicts."""

    def __init__(self) -> None:
        self.digests: dict[str, dict[str, str]] = {}
        self.verdicts: dict[str, list[str]] = {}

    def check(self, key: str, exit_code: int, out_dir: Path) -> list[str]:
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        if not outputs:
            return problems + ["no output files"]
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        if key not in self.digests:
            self.digests[key] = digests
            self.verdicts[key] = _content_problems(outputs)
        elif digests != self.digests[key]:
            return problems + _content_problems(outputs) + [
                "outputs differ from an earlier repeat of the same invocation"
            ]
        return problems + self.verdicts[key]


def _content_problems(outputs: dict[str, bytes]) -> list[str]:
    problems = []
    for name, data in outputs.items():
        if name.endswith(".json"):
            try:
                verdict = _verdict(name, strict_json(data))
            except (ValueError, KeyError, TypeError) as exc:
                verdict = f"{name}: {exc}"
            if verdict:
                problems.append(verdict)
    return problems
