"""One hypothesis profile for every property test: reproducible draws, no deadline."""

from hypothesis import settings

settings.register_profile("pointerlab", derandomize=True, deadline=None)
settings.load_profile("pointerlab")
