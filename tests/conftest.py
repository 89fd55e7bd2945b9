"""Suite-wide test settings.

Property tests draw their examples from a fixed seed with no time limit,
so every run of the suite checks the same examples and a slow machine
does not fail them.
"""

from hypothesis import settings

settings.register_profile("embedstab", derandomize=True, deadline=None)
settings.load_profile("embedstab")
