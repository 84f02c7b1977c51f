"""Run the native test suites on an ASan + UBSan build of the C unit.

The C walks and the TPG engine index caller-sized buffers unchecked,
so an off-by-one in a buffer size reads or writes past it without a
test noticing.  This script starts one child interpreter that

* preloads gcc's AddressSanitizer and UndefinedBehaviorSanitizer
  runtimes (``gcc -print-file-name=libasan.so`` and ``libubsan.so``)
  with ``ASAN_OPTIONS=detect_leaks=0`` (the interpreter itself leaks
  by design),
* points ``REPRO_NATIVE_CACHE`` at a private temporary directory, so
  the sanitized module is built fresh and never cached next to the
  normal one,
* sets the module's compile and link flags to
  :data:`SANITIZE_COMPILE`/:data:`SANITIZE_LINK` before the module
  first loads (the flags are hashed into its name), and
* runs pytest on :data:`SUITES`.

A sanitizer report aborts the child (``-fno-sanitize-recover``), so the
exit status is the suite's or the sanitizer's.  ``CC`` names another
compiler for the build; the runtimes are looked up with ``gcc``.

    python scripts/check_native_sanitizers.py [extra pytest args]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

SANITIZE_COMPILE = [
    "-O1",
    "-g",
    "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
]
SANITIZE_LINK = ["-fsanitize=address,undefined"]

#: The suites that drive the C unit: the TPG engine, the polarity
#: screen, the passes and walks, the fault table and the campaign's
#: shards and drop bus, the hostile-input boundary tests, and the
#: simulators and packers that reach the tuple reader through their
#: public calls.
SUITES = [
    "tests/test_state.py",
    "tests/test_polarity_screen.py",
    "tests/test_kernel.py",
    "tests/test_fusion.py",
    "tests/test_fault_table.py",
    "tests/test_campaign.py",
    "tests/test_native_boundary.py",
    "tests/test_chaos.py",
    "tests/test_delay_sim.py",
    "tests/test_patterns.py",
    "tests/test_logic_sim.py",
    "tests/test_stuck_at.py",
]

_CHILD = """
import sys
from repro.kernel import native
native._COMPILE_ARGS = {compile!r}
native._LINK_ARGS = {link!r}
assert native.native_available(), native.native_unavailable_reason()
import pytest
sys.exit(pytest.main({args!r}))
"""


def runtime(name: str) -> str:
    path = subprocess.run(
        ["gcc", f"-print-file-name={name}"], capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    if not os.path.isabs(path):
        raise SystemExit(f"gcc has no {name}")
    return path


def main(argv) -> int:
    preload = [runtime("libasan.so"), runtime("libubsan.so")]
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as cache:
        os.chmod(cache, 0o700)
        env = dict(os.environ)
        env.update(
            LD_PRELOAD=" ".join(preload),
            ASAN_OPTIONS="detect_leaks=0",
            REPRO_NATIVE_CACHE=cache,
            PYTHONPATH=os.pathsep.join(
                p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
            ),
        )
        code = _CHILD.format(
            compile=SANITIZE_COMPILE,
            link=SANITIZE_LINK,
            # --capture=sys: a sanitizer report goes to the real stderr,
            # which pytest's fd capture would lose when the child aborts
            args=[
                "-x", "-q", "-p", "no:cacheprovider", "--capture=sys",
                *SUITES, *argv,
            ],
        )
        status = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env).returncode
    print("ok: the native suites pass under ASan and UBSan" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
