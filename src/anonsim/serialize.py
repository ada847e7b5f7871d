"""Stable on-disk formats for run records and reports.

`run_record` is the one place a protocol Run becomes record JSON.  All
writers are atomic (temp file then rename) and deterministic: the same
record object always serializes to the same bytes, so identical
configuration and seed reproduce identical files.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .protocols import Run


def run_record(
    protocol: str,
    n: int,
    seed: int,
    stream_id: int,
    run: Run,
    verdicts: dict,
    config: dict | None = None,
) -> dict:
    """Assemble the canonical JSON structure for one protocol run.

    Each broadcast bit is written as 0/1 text and each draw with its
    name.  `format` is 3; it grows when seeded record bytes change
    meaning.
    """
    record = {
        "format": 3,
        "protocol": protocol,
        "n": n,
        "seed": seed,
        "stream_id": stream_id,
        "rounds": [
            [{"player": p, "bits": str(bit)} for p, bit in rnd] for rnd in run.rounds
        ],
        "aborted": run.aborted,
        "ledger": {
            str(p): [{"name": name, "value": bit} for name, bit in draws]
            for p, draws in run.ledger.items()
        },
        "verdicts": verdicts,
    }
    if config is not None:
        record["config"] = config
    return record


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_text(path: str, text: str) -> None:
    """Atomic text write: never leaves a partial file behind.  The file
    gets the mode a plain open() would, 0666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
    # 0666, not tempfile.mkstemp's 0600, so the umask decides
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj: dict) -> None:
    write_text(path, dumps(obj))
