"""Whole-file cache reads and writes as they were before the replay
streamed, kept as an oracle for the entry file format.

`cache_put` writes one file of an entry from a payload in memory: MAGIC,
the payload's sha256 in hex, a newline, then the payload.  `cache_get`
reads one file whole and checks it.  `cache_get_entry` reads every file
of an entry into one dict, and `cache_put_entry` writes a dict of files
with their manifest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from mtower.cache import MAGIC, MANIFEST
from mtower.errors import CorruptCache


def cache_put(cache_dir: Path, key: str, name: str, payload: bytes) -> Path:
    d = Path(cache_dir) / key
    d.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(payload).hexdigest().encode()
    path = d / name
    with open(path, "wb") as fh:
        fh.write(MAGIC + digest + b"\n")
        fh.write(payload)
    return path


def cache_put_entry(cache_dir: Path, key: str, files: dict[str, bytes]) -> None:
    for name, payload in files.items():
        cache_put(cache_dir, key, name, payload)
    (Path(cache_dir) / key / MANIFEST).write_text(json.dumps(sorted(files)))


def cache_get(cache_dir: Path, key: str, name: str) -> bytes | None:
    path = Path(cache_dir) / key / name
    if not path.exists():
        return None
    raw = path.read_bytes()
    if not raw.startswith(MAGIC):
        raise CorruptCache(f"bad header in {path}")
    rest = raw[len(MAGIC):]
    digest, _, payload = rest.partition(b"\n")
    if hashlib.sha256(payload).hexdigest().encode() != digest:
        raise CorruptCache(f"hash mismatch in {path}")
    return payload


def cache_get_entry(cache_dir: Path, key: str) -> dict[str, bytes] | None:
    """Every file of the entry `key`, or None when there is no entry.

    Raises CorruptCache when the manifest or a file it lists is missing or
    does not match its hash."""
    d = Path(cache_dir) / key
    if not d.is_dir():
        return None
    try:
        names = json.loads((d / MANIFEST).read_text())
    except (OSError, ValueError) as e:
        raise CorruptCache(f"no readable manifest in {d}") from e
    files = {}
    for name in names:
        payload = cache_get(cache_dir, key, name)
        if payload is None:
            raise CorruptCache(f"{name} listed but missing in {d}")
        files[name] = payload
    return files
