"""Process entry point: `python -m hollowsimplex` and the `hollowsimplex` script."""

import gc
import os
import sys

from .cli import main


def run() -> None:
    """Run main() as the whole process and exit with its code.

    An OSError while writing the output (a closed pipe, a full disk) exits 2
    with one error line. The process-wide steps live here rather than in
    main(), which tests and the benchmark's traced run call many times in one
    process.
    """
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()
    except OSError as exc:
        # As in the Python docs' note on SIGPIPE: with stdout on devnull, the
        # interpreter's final flush of the unwritten rest cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    # Every object alive now lives until exit; frozen, the interpreter's
    # final garbage collections skip them instead of walking them all.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
