"""Output-correctness gate shared by every benchmark run.

A run passes when it raised nothing, every number it emitted is an
integer, its output SHA-256s equal the reference recorded for its
workload at the default seed (seeds without a reference skip this), and
every later run in the same invocation hashes like the first.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

RUN_OUTPUTS = ("daily_csv", "market_csv", "analytics_csv", "summary_json",
               "events_jsonl")
REFERENCE = Path(__file__).with_name("reference.json")
_INT = re.compile(r"-?[0-9]+")


def render(output) -> dict:
    """The five outputs of one run, as the program renders them."""
    return {name: getattr(output, name)() for name in RUN_OUTPUTS}


def render_sweep(preset: str, report, matrix_csv: str) -> dict:
    """A sweep's rendered matrix plus each point's summary, keyed by preset."""
    texts = {f"{preset}/matrix_csv": matrix_csv}
    for point in report.points:
        texts[f"{preset}/point_{point.index:03d}"] = json.dumps(
            point.summary, sort_keys=True, indent=2) + "\n"
    return texts


def digests(texts: dict) -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sorted(texts.items())}


def non_integers(texts: dict) -> list:
    """Every emitted number that is not an integer, as "output: value".

    CSV fields must be integers, empty, or words that are not numbers;
    JSON numbers must be integers (NaN and infinities included).
    """
    bad: list = []

    def flag(name):
        def record(token):
            bad.append(f"{name}: {token}")
            return 0
        return record

    for name, text in sorted(texts.items()):
        if name.endswith("_csv"):
            for row in csv.reader(io.StringIO(text)):
                for value in row:
                    if value and not _INT.fullmatch(value) and _is_number(value):
                        bad.append(f"{name}: {value}")
        elif name.endswith("_jsonl"):
            body = "[" + ",".join(text.splitlines()) + "]"
            json.loads(body, parse_float=flag(name), parse_constant=flag(name))
        else:
            json.loads(text, parse_float=flag(name), parse_constant=flag(name))
    return bad


def _is_number(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference digests for (workload, seed), or None if none recorded."""
    if not REFERENCE.exists():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digests"]


class Gate:
    """Checks each run of one invocation; never raises on a bad output."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict | None = None
        self.problems: dict = {}          # message -> times seen

    def _problem(self, message: str) -> None:
        self.problems[message] = self.problems.get(message, 0) + 1

    def check(self, texts: dict) -> set:
        """Names of the outputs of this run that fail; empty when it passes."""
        got = digests(texts)
        if self.first is None:
            self.first = got
        found = non_integers(texts)
        for item in found[:20]:
            self._problem(f"non-integer number in {item}")
        failed = {item.split(":", 1)[0] for item in found}
        for name, digest in got.items():
            if digest != self.first.get(name):
                self._problem(f"{name} differs between runs of one invocation")
                failed.add(name)
            if self.reference is not None and digest != self.reference.get(name):
                self._problem(f"{name} differs from the reference digest")
                failed.add(name)
        if self.reference is not None:
            for name in sorted(set(self.reference) - set(got)):
                self._problem(f"{name} missing")
                failed.add(name)
        return failed
