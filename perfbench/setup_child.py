"""One cold set-up of a library workload, in a fresh interpreter.

``python3 perfbench/setup_child.py <workload> <seed> <workdir>`` times
``import repro`` and the first ``contract()`` call (kernel compiles
included), leaving input generation out, and prints one JSON line with
both times and the fingerprint of Z. ``run.py`` starts several of these
between host-speed probes and reports the median as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    name, seed, workdir = argv[1], int(argv[2]), argv[3]
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.core import contract  # noqa: F401

    import_s = time.perf_counter() - t0
    from libwork import LibraryWorkload

    w = LibraryWorkload(name, seed, workdir)
    t1 = time.perf_counter()
    res = w.call()
    cold_s = time.perf_counter() - t1
    print(json.dumps({
        "import_s": import_s,
        "cold_s": cold_s,
        "digest": res.tensor.fingerprint(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
