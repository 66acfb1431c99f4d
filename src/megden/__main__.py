"""The process entry of ``python -m megden`` and of the ``megden`` console script."""

import os

from .cli import main


def run() -> None:
    """Run ``main()``, then end the process without the interpreter's teardown.

    ``main()`` has closed every file megden writes, flushed the report and
    written any error line to the line-buffered stderr, so the final
    collection and module teardown would cost time and write no byte. An
    exception or ``SystemExit`` out of ``main()`` leaves the usual way.
    """
    os._exit(main())


if __name__ == "__main__":
    run()
