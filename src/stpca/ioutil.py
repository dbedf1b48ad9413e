"""Atomic file writes: interrupted runs never leave partial artifacts."""

import os
import tempfile


def atomic_write_pieces(path, pieces):
    """Stream the byte strings of `pieces` to a temporary file, then rename it
    over `path`; on any error the temporary file is removed. The file gets
    the mode that `open(path, "wb")` gives a new file, 0o666 less the umask,
    not the 0o600 of `tempfile.mkstemp`."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)  # the one way to read it is to set it
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_pieces(path, [text.encode("utf-8")])
