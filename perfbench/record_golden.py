"""Record the golden stdout digest and exit code of every CLI case.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``.  Run it only at a commit whose outputs
are known to be right: the benchmark counts every later mismatch as a
failed case.  The golden file in the repository was recorded at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from worker import import_bfcorr
from workloads import GOLDEN_PATH, all_cases, digest


def main() -> int:
    bfcorr = import_bfcorr()
    os.environ.pop("BFCORR_CUTOFF", None)
    golden = {}
    for quick in (False, True):
        for case in all_cases(quick):
            if case.control:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = bfcorr.cli.main(case.argv)
            golden[case.key] = {"sha256": digest(out.getvalue()), "exit": code}
            print(f"{code} {case.key}")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
