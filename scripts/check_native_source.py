"""Compile the native C unit with every warning an error, and check the
surface it exports.

The native module is built with ``-w`` (see ``_COMPILE_ARGS`` in
``repro.kernel.native``), so a warning in the C text would never show.
This script compiles ``src/repro/kernel/native.c`` alone, without
cffi's wrappers, under

    cc -std=c99 -O2 -Wall -Wextra -Werror -I<python include> -c -o /dev/null

The unit includes ``Python.h`` (its row readers take Python objects),
so the running interpreter's header directory
(``sysconfig.get_paths()["include"]``) is on the include path.  ``CC``
names another compiler.

It then checks the exported surface, reading the texts alone: every
non-static ``repro_*`` function that ``native.c`` defines must be
declared in ``native.cdef`` or be one of the row readers that
``native.py`` binds with ctypes (``dll.repro_*``), and every function
the cdef declares, and every bound reader, must be defined.  An export
nobody declares is a second entry point that no test reaches through
the module; a declaration without a definition fails the module build.
The exit status is non-zero when either check fails.

    python scripts/check_native_source.py
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import sysconfig

KERNEL = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src", "repro", "kernel"
)
SOURCE = os.path.join(KERNEL, "native.c")
FLAGS = [
    "-std=c99", "-O2", "-Wall", "-Wextra", "-Werror",
    "-I" + sysconfig.get_paths()["include"], "-c", "-o", os.devnull,
]

#: a top-level definition of a non-static repro_* function: return type,
#: name, parameter list, then the opening brace
DEFINITION = re.compile(
    r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(repro_\w+)\s*\([^;{]*\)\s*\{", re.M
)
#: a top-level function declaration of the cdef
DECLARATION = re.compile(r"^[A-Za-z_][\w \t*]*?\b(repro_\w+)\s*\(", re.M)
#: a row reader native.py binds on the module's file
BOUND = re.compile(r"\bdll\.(repro_\w+)")


def _text(name: str) -> str:
    with open(os.path.join(KERNEL, name), encoding="utf-8") as handle:
        return handle.read()


def surface_errors(source: str, cdef: str, loader: str):
    """The surface check's failures, and the counts it checked."""
    defined = set(DEFINITION.findall(source))
    declared = set(DECLARATION.findall(cdef))
    bound = set(BOUND.findall(loader))
    errors = [
        f"{name} is exported by native.c but neither declared in native.cdef "
        "nor a row reader of native.py"
        for name in sorted(defined - declared - bound)
    ]
    errors += [
        f"{name} is declared in native.cdef but not defined in native.c"
        for name in sorted(declared - defined)
    ]
    errors += [
        f"{name} is bound by native.py but not defined in native.c"
        for name in sorted(bound - defined)
    ]
    return errors, len(declared), len(bound)


def main() -> int:
    compiler = shlex.split(os.environ.get("CC") or "cc")
    command = [*compiler, *FLAGS, os.path.normpath(SOURCE)]
    print(" ".join(command))
    status = subprocess.run(command).returncode
    print("ok: the native C unit compiles warning-free" if status == 0 else "FAILED")
    errors, n_declared, n_bound = surface_errors(
        _text("native.c"), _text("native.cdef"), _text("native.py")
    )
    for message in errors:
        print(f"FAILED: {message}")
    if not errors:
        print(
            f"ok: native.c exports exactly the {n_declared} cdef functions "
            f"and the {n_bound} row readers"
        )
    return status or int(bool(errors))


if __name__ == "__main__":
    sys.exit(main())
