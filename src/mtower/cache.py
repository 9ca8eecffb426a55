"""Content-addressed artifact cache.

Keys are sha256 hashes of canonical JSON job descriptors; values are files
with a versioned header carrying their own payload hash, so corruption is
detected on read.  Cached reports are returned byte-identical.

A report is one entry: a directory of files plus a manifest of their names,
built under a temporary name and renamed into place, so an entry is either
complete or absent.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from .errors import CorruptCache

MAGIC = b"MTCACHE1\n"
MANIFEST = ".manifest.json"


def job_key(descriptor: dict) -> str:
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("MT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mt"


def cache_put(cache_dir: Path, key: str, name: str, payload: bytes) -> Path:
    d = Path(cache_dir) / key
    d.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(payload).hexdigest().encode()
    path = d / name
    with open(path, "wb") as fh:     # header, then payload: no joined copy
        fh.write(MAGIC + digest + b"\n")
        fh.write(payload)
    return path


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


def cache_put_entry(cache_dir: Path, key: str, source_dir: Path, names) -> None:
    """Publish the files `names` of `source_dir` as the entry `key`,
    replacing any earlier entry.  Each file is hashed, then copied under
    cache_put's header, and never read into memory whole."""
    root = Path(cache_dir)
    root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=root))
    try:
        for name in names:
            with open(Path(source_dir) / name, "rb") as src, open(tmp / name, "wb") as fh:
                h = hashlib.sha256()
                for chunk in iter(lambda: src.read(1 << 20), b""):
                    h.update(chunk)
                fh.write(MAGIC + h.hexdigest().encode() + b"\n")
                src.seek(0)
                shutil.copyfileobj(src, fh, 1 << 20)
        (tmp / MANIFEST).write_text(json.dumps(sorted(names)))
        shutil.rmtree(root / key, ignore_errors=True)
        with contextlib.suppress(OSError):  # another writer published first
            os.replace(tmp, root / key)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


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

