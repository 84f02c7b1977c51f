"""Compile the native C unit with every warning an error.

The native module is built with ``-w`` (see ``_COMPILE_ARGS`` in
``repro.kernel.native``), so a warning in the C text would never show.
This script writes :data:`repro.kernel.codegen.NATIVE_SOURCE` to a
temporary file and compiles it alone, without cffi's wrappers, under

    cc -std=c99 -O2 -Wall -Wextra -Werror -c -o /dev/null

exiting with the compiler's status.  ``CC`` names another compiler.

    PYTHONPATH=src python scripts/check_native_source.py
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile

from repro.kernel.codegen import NATIVE_SOURCE

FLAGS = ["-std=c99", "-O2", "-Wall", "-Wextra", "-Werror", "-c", "-o", os.devnull]


def main() -> int:
    compiler = shlex.split(os.environ.get("CC") or "cc")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "repro_native.c")
        with open(path, "w") as out:
            out.write(NATIVE_SOURCE)
        command = [*compiler, *FLAGS, path]
        print(" ".join(command))
        status = subprocess.run(command).returncode
    print("ok: the native C unit compiles warning-free" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main())
