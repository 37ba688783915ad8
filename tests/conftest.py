import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow or loaded machine cannot turn them red.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
