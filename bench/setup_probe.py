"""Time one cold set-up of the library and print it in seconds.

Set-up is what a user pays before the first request: importing
``invwalk.cli`` (which pulls in every module, numpy and mpmath) and one
tiny call per route.  ``run.py`` starts this script several times and
reports the median as ``setup_s``.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import invwalk.cli  # noqa: E402,F401
import routes  # noqa: E402

routes.warm_up()
print(repr(time.perf_counter() - start))
