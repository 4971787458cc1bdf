"""One fresh-process set-up measurement: what every CLI invocation pays.

Usage: python3 setup_child.py SRC_DIR SCENARIO_JSON

Times ``import isoresolvent.cli`` and ``parse_scenario`` on the scenario,
then the reference kernel in the same process, and prints one JSON line.
"""

import json
import sys
import time


def main() -> None:
    src, scenario = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    with open(scenario, "rb") as fh:
        text = fh.read()

    t0 = time.perf_counter()
    import isoresolvent.cli

    t1 = time.perf_counter()
    isoresolvent.cli.parse_scenario(text)
    t2 = time.perf_counter()

    import calib

    ref = calib.ReferenceKernel().seconds(5)
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "ref_s": ref,
                      "blas_threads": calib.blas_threads()}))


if __name__ == "__main__":
    main()
