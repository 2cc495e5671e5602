"""Time what every CLI start pays: import numpy, import tritangle.cli, build_parser().

Usage: probe.py SRC — run in a fresh interpreter; prints one JSON object.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
before = len(sys.modules)
t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import tritangle.cli  # noqa: E402

t2 = time.perf_counter()
tritangle.cli.build_parser()
t3 = time.perf_counter()
print(json.dumps({
    "setup_s": t3 - t0,
    "import_numpy_s": t1 - t0,
    "import_tritangle_s": t2 - t1,
    "build_parser_s": t3 - t2,
    "modules_loaded": len(sys.modules) - before,
}))
