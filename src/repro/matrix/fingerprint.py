"""Code fingerprinting for cache invalidation.

A cached result is only as trustworthy as the code that produced it: any
edit to the simulator can change the numbers. The fingerprint is a
SHA-256 digest over every ``*.py`` source file of the installed
``repro`` package (relative path + contents, in sorted path order).
Every stored run is stamped with it and the result-cache lookup matches
on it, so every stored result stops being served the moment any
simulation code changes.
"""

from __future__ import annotations

import hashlib
import pathlib

import repro

_cached: str | None = None


def code_fingerprint() -> str:
    """Digest of the installed ``repro`` source tree (memoized).

    The tree cannot change underneath a running process (imports are
    already bound), so one scan per process is both safe and cheap.
    """
    global _cached
    if _cached is None:
        _cached = fingerprint_tree(pathlib.Path(repro.__file__).parent)
    return _cached


def fingerprint_tree(root: pathlib.Path) -> str:
    """Digest ``root``'s ``*.py`` files by relative path and contents."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:20]
