"""Atomic artifact writes: a crash mid-write never leaves a truncated file."""

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path):
    """Write text to a temp file beside ``path`` that replaces it once the block completes."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)
