"""Peak memory of three spectra, each in a fresh interpreter, and their stdout.

Each run goes through cli.main and reports the growth of its peak resident
size (VmHWM) over the peak right after import, with stdout hashed as it is
written, so no copy of the table outlives the write.  ru_maxrss would not
do: Linux carries it across exec, so a child of a large test process would
start at that process's peak and read no growth.  The sha256 values are
those of the tables as they were printed before the series were stored by
density.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import hashlib, sys
from weylzeta import cli


def peak():  # KiB
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


imported = peak()
digest = hashlib.sha256()


class Sink:
    def write(self, text):
        digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


sys.stdout, real = Sink(), sys.stdout
code = cli.main(sys.argv[1:])
sys.stdout = real
print(code, peak() - imported, digest.hexdigest())
"""

CASES = [
    ("zeta --group E8xE8:sc --max-dim 10000000", 4,
     "c8daaa11303e2486732ffde5384428a6d3ac2af1a75eea2a81fe8da6795dd7c1"),
    ("zeta --group A1:sc --max-dim 1000000", 44,
     "f7de9be88cc0f16c5d56a8c2b46e4818d9df0723d2f2436ddfd317f0caad80ff"),
    # the odd dimensions only (15.4 MiB); building the even class's list
    # beside them, unread, took 23.0
    ("zeta --group A1:adjoint --max-dim 1000000", 19,
     "38a2b0e8ef6b720ca4602fd74a9065b0120a8a2d871edbf245bde2fd88a9dc8f"),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM of /proc/self/status")
@pytest.mark.parametrize("argv,mib,sha256", CASES, ids=[c[0].split()[2] for c in CASES])
def test_peak_memory_and_stdout(argv, mib, sha256):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROGRAM, *argv.split()], env=env,
                          capture_output=True, text=True, check=True)
    code, growth_kib, digest = proc.stdout.split()
    assert (code, digest) == ("0", sha256)
    assert int(growth_kib) <= mib * 1024, f"{int(growth_kib) / 1024:.1f} MiB"
