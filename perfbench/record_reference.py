"""Record the reference outputs the exact workloads are checked against.

    python3 perfbench/record_reference.py

Runs ``verify-4x4`` and ``coexist-4x5`` once with the checked-out code and
rewrites ``reference.json``.  The committed file was recorded from the
package as first imported; rerecord only when a change to the results is
intended and verified some other way.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import (REFERENCE, WORKLOADS, read_csv,  # noqa: E402
                       verify_reference_entry, verify_rows)


def record_reference(out_root: Path) -> dict:
    """Run the exact workloads once and return their reference values."""
    from peierls.cli import main

    outputs = {}
    for name in ("verify-4x4", "coexist-4x5"):
        for cmd in WORKLOADS[name].commands(0):
            outputs[cmd.label] = out_root / cmd.label
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(list(cmd.argv) + ["--out", str(outputs[cmd.label])])
            if code != 0:
                raise RuntimeError(f"{cmd.argv} exited {code}")
    by_beta, _ = verify_rows(outputs["verify"] / "peierls_bounds.csv")
    coexist = [[r["box"], float(r["beta"]), float(r["gap"])]
               for r in read_csv(outputs["coexist"] / "coexistence.csv")]
    return {
        "verify-4x4": {format(beta, "g"): verify_reference_entry(rows)
                       for beta, rows in sorted(by_beta.items())},
        "coexist-4x5": coexist,
    }


if __name__ == "__main__":
    work = HERE / ".work" / "reference"
    try:
        REFERENCE.write_text(json.dumps(record_reference(work), indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {REFERENCE}")
