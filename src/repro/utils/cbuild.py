"""Compile-on-first-use for the library's small C kernels.

Each kernel is one ``.c`` file beside the module that calls it.
:func:`load_kernel` compiles it with ``sysconfig``'s ``CC`` and
``-O2 -ffp-contract=off`` into the ``__pycache__`` beside the source, named
by a hash of the source and the command, via a temporary file and
:func:`os.replace`; later imports load the cached library.  If that
directory is not writable the build goes to a fresh private temporary
directory: a library found in a shared directory is never loaded.

The flags carry no ``-ffast-math`` or ``-march``: a fused multiply-add
changes the rounding, and every kernel must agree bitwise with the
pure-Python (or SciPy) fallback its module keeps.  The function is loaded
with :mod:`ctypes`, which releases the GIL for the call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build(command: list[str], source: Path, target: Path) -> None:
    """Compile into a temporary file beside ``target``, then rename it."""
    fd, partial = tempfile.mkstemp(suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        build = [*command, "-o", partial, str(source)]
        subprocess.run(build, check=True, capture_output=True)
        os.replace(partial, target)
    finally:
        Path(partial).unlink(missing_ok=True)


def load_kernel(
    source: Path,
    symbol: str,
    argtypes: tuple,
    restype: type | None,
    cache_dir: Path | None = None,
):
    """Build (or reuse) ``source`` and return its function ``symbol``.

    Returns ``None`` when no usable compiler builds it, so the caller can
    select its fallback.  The cached library is
    ``<cache_dir>/<source stem>.<hash>.so``; ``cache_dir`` defaults to the
    ``__pycache__`` beside ``source``.
    """
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_CFLAGS]
    digest = hashlib.sha256(source.read_bytes() + "\0".join(command).encode())
    cache_dir = cache_dir or source.parent / "__pycache__"
    private = None
    try:
        cache_dir.mkdir(exist_ok=True)
        writable = os.access(cache_dir, os.W_OK)
    except OSError:
        writable = False
    if not writable:
        cache_dir = private = Path(tempfile.mkdtemp(prefix=f"repro-{source.stem}-"))
    target = cache_dir / f"{source.stem}.{digest.hexdigest()[:16]}.so"
    try:
        if not target.exists():
            _build(command, source, target)
        kernel = getattr(ctypes.CDLL(str(target)), symbol)
    except (OSError, subprocess.CalledProcessError):
        return None
    finally:
        if private is not None:  # the loaded mapping outlives the file
            shutil.rmtree(private, ignore_errors=True)
    kernel.argtypes = argtypes
    kernel.restype = restype
    return kernel
