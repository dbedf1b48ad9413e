"""Atomic file writes: interrupted runs never leave partial artifacts."""

import os
import tempfile


def atomic_write_pieces(path, pieces):
    """Stream the byte strings of `pieces` to a temporary file, then rename it
    over `path`; on any error the temporary file is removed."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_pieces(path, [text.encode("utf-8")])
