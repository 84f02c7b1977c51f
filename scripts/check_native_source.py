"""Compile the native C unit with every warning an error.

The native module is built with ``-w`` (see ``_COMPILE_ARGS`` in
``repro.kernel.native``), so a warning in the C text would never show.
This script compiles ``src/repro/kernel/native.c`` alone, without
cffi's wrappers, under

    cc -std=c99 -O2 -Wall -Wextra -Werror -I<python include> -c -o /dev/null

exiting with the compiler's status.  The unit includes ``Python.h``
(its row readers take Python objects), so the running interpreter's
header directory (``sysconfig.get_paths()["include"]``) is on the
include path.  ``CC`` names another compiler.

    python scripts/check_native_source.py
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import sysconfig

SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src", "repro", "kernel",
    "native.c",
)
FLAGS = [
    "-std=c99", "-O2", "-Wall", "-Wextra", "-Werror",
    "-I" + sysconfig.get_paths()["include"], "-c", "-o", os.devnull,
]


def main() -> int:
    compiler = shlex.split(os.environ.get("CC") or "cc")
    command = [*compiler, *FLAGS, os.path.normpath(SOURCE)]
    print(" ".join(command))
    status = subprocess.run(command).returncode
    print("ok: the native C unit compiles warning-free" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main())
