"""Child process for ``setup_s``: import the CLI, validate one config, print the clock.

    python3 perfbench/setup_probe.py <cli argv...>

Prints ``time.monotonic()`` once the ``RunConfig`` is validated; the parent
subtracts the moment it spawned this interpreter.  The monotonic clock is
system-wide on Linux, so the difference covers interpreter start, imports
and config parsing, and excludes interpreter teardown.
"""

import sys
import time

import benchenv

cli = benchenv.import_program()
cli.config_from_argv(sys.argv[1:])
print(repr(time.monotonic()))
