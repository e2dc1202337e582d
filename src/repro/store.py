"""The one persistent-JSON store every tuner file goes through.

The evaluation cache, the serve result store (which warm-start lookups
also read), batch checkpoints and experiment result rows share two
rules.  **One write path:** :func:`write_json` dumps to a fresh
``mkstemp`` file beside the target, then ``os.replace`` moves it in,
so a reader sees nothing or a complete entry, concurrent writers never
share a temp file, and a crashed writer leaves only a ``.tmp-*`` file
no reader looks at.  **One read rule:** :func:`read_json` answers None
for anything but a complete JSON object (missing, unreadable,
truncated, not UTF-8, not a dict); callers recompute on None, so a
store file never raises into a search.  :class:`DigestDir` is the
lock-free one-file-per-digest layout the eval cache and serve store
share.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Iterator, List, Optional, Tuple


def read_json(path) -> Optional[dict]:
    """The JSON object stored at ``path``, or None when the file is
    missing, unreadable, undecodable or not a dict."""
    try:
        data = json.loads(pathlib.Path(path).read_bytes())
    except (OSError, ValueError, RecursionError):
        return None
    return data if isinstance(data, dict) else None


def write_json(path, data) -> bool:
    """Atomically replace ``path`` with ``data`` as JSON.  False when
    the filesystem refuses (a store that cannot write is merely cold);
    any other exception, such as unserializable data, propagates.  The
    temp file never outlives the call."""
    path = pathlib.Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    except OSError:
        return False
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            return False
        raise
    return True


class DigestDir:
    """A directory of JSON objects named by hex digest:
    ``root/<digest[:2]>/<digest>.json``."""

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict]:
        return read_json(self.path(digest))

    def put(self, digest: str, data: dict) -> bool:
        return write_json(self.path(digest), data)

    def paths(self) -> List[pathlib.Path]:
        """Every entry file, sorted; a ``.tmp-*`` file is never one."""
        return sorted(self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.paths())

    def entries(self) -> Iterator[Tuple[pathlib.Path, dict]]:
        """Every readable entry as ``(path, data)``, in sorted-path
        order; unreadable files are skipped by the read rule."""
        for path in self.paths():
            data = read_json(path)
            if data is not None:
                yield path, data
