"""Start ``tip serve`` with the tracing wrappers installed.

Arguments are passed to ``repro.cli.main_serve``.  The server drains on
SIGTERM and returns; the spans it recorded are then written to the path
in ``PERFBENCH_SPANS``.
"""

import os
import sys

import tracing


def main() -> int:
    from repro.cli import main_serve

    tracer = tracing.Tracer(run_id=f"serve-{os.getpid()}")
    tracing.install(tracer)
    try:
        return main_serve(sys.argv[1:])
    finally:
        tracer.write(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
