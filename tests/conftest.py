"""Suite-wide settings.  Hypothesis derives its examples from each test
function alone, so every run of the suite sees the same data and takes
about the same time."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
