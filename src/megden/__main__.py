"""The process entry of ``python -m megden`` and of the ``megden`` console script."""

import os
import sys

from .cli import main


def run() -> None:
    """Run ``main()``, flush stdout and stderr, then end the process without teardown.

    Every file megden writes is closed before ``main()`` returns, so the
    interpreter's final collection and module teardown would cost time and
    write no byte. A flush that fails, such as into a pipe whose reader has
    gone, ends in one ``megden: error:`` line and exit 1. An exception or
    ``SystemExit`` out of ``main()`` leaves the usual way.
    """
    code = main()
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name)
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError) as exc:  # a closed pipe, or a stream closed in process
            code = 1
            try:  # stderr's own buffer may be what failed, so write past it
                os.write(2, f"megden: error: {name}: {exc}\n".encode("ascii", "replace"))
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
