"""Suite-wide test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run (no example database
# replays earlier failures first), and no example fails for running slowly on
# a loaded machine.
settings.register_profile("banditlab", derandomize=True, deadline=None, database=None)
settings.load_profile("banditlab")
