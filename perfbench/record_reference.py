"""Record the reference stdout hash of every benchmark job.

    python3 perfbench/record_reference.py

Runs each distinct job of every workload (full and toy size) once, without a
cache, and writes ``{job key: sha256 of stdout}`` to ``reference.json``.
Record it from a commit whose outputs are trusted; the benchmark then counts
any later difference as a failed job.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from weylzeta import cli  # noqa: E402


def main() -> int:
    reference = {}
    for argv in workloads.all_jobs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            print(f"{workloads.key(argv)} exited {code}", file=sys.stderr)
            return 1
        reference[workloads.key(argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} reference hashes written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
