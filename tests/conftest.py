"""Suite-wide test settings.

Property tests draw the same examples on every run and keep no example
database, so a run is reproducible and writes nothing to .hypothesis/.
Each test's own @settings still chooses its example count and deadline.
BLAS runs on one thread unless the environment says otherwise, as in the
benchmark: the oracle's small complex products, split over two threads
on a shared host, took anywhere from 0.5 to 4.9 ms each, and the timed
acceptance lines took their time from that.
"""

import os
import tempfile

# read once, when numpy first loads its BLAS; nothing has imported numpy yet
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# Hypothesis also caches the constants it reads from the source in its home
# directory; keep that cache in a directory removed when the run ends.
_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)
