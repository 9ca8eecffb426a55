"""Content-addressed artifact cache.

Keys are sha256 hashes of canonical JSON job descriptors; values are files
with a versioned header carrying their own payload hash, so corruption is
detected on read.  Cached reports are restored byte-identical, a file and a
chunk at a time, so a replay never holds a whole file in memory, and all
or nothing: into a temporary directory first, then moved into place.

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
CHUNK = 1 << 20


def job_key(descriptor: dict) -> str:
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("MT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mt"


def cache_put_entry(cache_dir: Path, key: str, source_dir: Path, names) -> None:
    """Publish the files `names` of `source_dir` as the entry `key`,
    replacing any earlier entry.  Each file is hashed, then copied under
    its header (MAGIC, the payload's sha256 in hex, a newline), and never
    read into memory whole."""
    root = Path(cache_dir)
    root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=root))
    try:
        for name in names:
            with open(Path(source_dir) / name, "rb") as src, open(tmp / name, "wb") as fh:
                h = hashlib.sha256()
                for chunk in iter(lambda: src.read(CHUNK), b""):
                    h.update(chunk)
                fh.write(MAGIC + h.hexdigest().encode() + b"\n")
                src.seek(0)
                shutil.copyfileobj(src, fh, CHUNK)
        (tmp / MANIFEST).write_text(json.dumps(sorted(names)))
        shutil.rmtree(root / key, ignore_errors=True)
        with contextlib.suppress(OSError):  # another writer published first
            os.replace(tmp, root / key)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cache_get(cache_dir: Path, key: str, name: str, dest_dir: Path) -> None:
    """Copy the file `name` of the entry `key` into the existing directory
    `dest_dir`, hashing the payload a chunk at a time as it is copied.

    Raises CorruptCache, and leaves no file `name` behind, when the file
    is missing, its header is bad or its payload does not match the
    header's hash."""
    path = Path(cache_dir) / key / name
    try:
        src = open(path, "rb")
    except FileNotFoundError as e:
        raise CorruptCache(f"{name} listed but missing in {path.parent}") from e
    dest = Path(dest_dir) / name
    with src:
        header = src.read(len(MAGIC) + 64 + 1)    # MAGIC, sha256 hex, newline
        if header[:len(MAGIC)] != MAGIC or header[-1:] != b"\n":
            raise CorruptCache(f"bad header in {path}")
        try:
            h = hashlib.sha256()
            with open(dest, "wb") as dst:
                for chunk in iter(lambda: src.read(CHUNK), b""):
                    h.update(chunk)
                    dst.write(chunk)
            if h.hexdigest().encode() != header[len(MAGIC):-1]:
                raise CorruptCache(f"hash mismatch in {path}")
        except BaseException:
            dest.unlink(missing_ok=True)
            raise


def cache_restore_entry(cache_dir: Path, key: str, dest_dir: Path) -> bool:
    """Write every file of the entry `key` into `dest_dir`; False when
    there is no entry.

    The files are copied one at a time (cache_get) into a temporary
    directory beside `dest_dir`, and moved into `dest_dir` only when every
    one of them has checked out.  Raises CorruptCache, with nothing written
    into `dest_dir`, when the manifest or a file it lists is missing or
    does not match its hash."""
    d = Path(cache_dir) / key
    if not d.is_dir():
        return False
    try:
        names = json.loads((d / MANIFEST).read_text())
    except (OSError, ValueError) as e:
        raise CorruptCache(f"no readable manifest in {d}") from e
    dest = Path(dest_dir)
    dest.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{dest.name}.restore-", dir=dest.parent))
    try:
        for name in names:
            cache_get(cache_dir, key, name, staging)
        dest.mkdir(exist_ok=True)
        for name in names:
            os.replace(staging / name, dest / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return True
