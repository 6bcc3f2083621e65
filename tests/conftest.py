"""Suite-wide test settings.

Property tests draw the same examples on every run and keep no example
database, so a run is reproducible and writes nothing to .hypothesis/.
Each test's own @settings still chooses its example count and deadline.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# Hypothesis also caches the constants it reads from the source in its home
# directory; keep that cache in a directory removed when the run ends.
_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)
