"""Suite-wide test settings.

Property tests draw their examples from a fixed seed with no time limit,
so every run of the suite checks the same examples and a slow machine
does not fail them.

The vector cache lives in a directory made for this session, set before
any test runs and removed after the last, so the suite (subprocesses
included, which inherit the environment) never reads or writes the
user's cache.
"""

import os
import shutil
import tempfile

from hypothesis import settings

settings.register_profile("embedstab", derandomize=True, deadline=None)
settings.load_profile("embedstab")

_CACHE = tempfile.mkdtemp(prefix="embedstab-cache-")
os.environ["EMBEDSTAB_CACHE"] = _CACHE


def pytest_unconfigure(config):
    shutil.rmtree(_CACHE, ignore_errors=True)
