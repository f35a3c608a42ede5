"""``python3 perfbench/clirun.py ARGS...`` runs ``python3 -m affweyl.cli ARGS...``
under a reference-speed clock (perfbench/speed.py) started before affweyl is
imported.

stdout and the exit code are the command's own.  The last line of stderr is
``#refclock {"raw_s": ..., "ref_s": ...}``: wall and reference-speed seconds
from the clock's start to the command's end, so that the parent can rescale
the rest of the time it measured (interpreter start and exit) by the same
factor.
"""

import json
import runpy
import sys
import time

from speed import RefClock  # the clock starts before affweyl is imported

clock = RefClock().start()
t0 = time.perf_counter()
code = 0
try:
    runpy.run_module("affweyl.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    ref_s = clock.stop()
    raw_s = time.perf_counter() - t0
    sys.stdout.flush()
    sys.stderr.write("\n#refclock " + json.dumps({"raw_s": raw_s, "ref_s": ref_s}) + "\n")
sys.exit(code)
