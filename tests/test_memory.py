"""Peak memory of two spectra, each in a fresh interpreter, and their stdout.

Each run goes through cli.main and reports its ru_maxrss growth over the
peak right after import, with stdout hashed as it is written, so no copy of
the table outlives the write.  The sha256 values are those of the tables as
they were printed before the series were stored by density.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import hashlib, resource, sys
from weylzeta import cli

imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
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
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - imported, digest.hexdigest())
"""

CASES = [
    ("zeta --group E8xE8:sc --max-dim 10000000", 4,
     "c8daaa11303e2486732ffde5384428a6d3ac2af1a75eea2a81fe8da6795dd7c1"),
    ("zeta --group A1:sc --max-dim 1000000", 44,
     "f7de9be88cc0f16c5d56a8c2b46e4818d9df0723d2f2436ddfd317f0caad80ff"),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
@pytest.mark.parametrize("argv,mib,sha256", CASES, ids=[c[0].split()[2] for c in CASES])
def test_peak_memory_and_stdout(argv, mib, sha256):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROGRAM, *argv.split()], env=env,
                          capture_output=True, text=True, check=True)
    code, growth_kib, digest = proc.stdout.split()
    assert (code, digest) == ("0", sha256)
    assert int(growth_kib) <= mib * 1024, f"{int(growth_kib) / 1024:.1f} MiB"
