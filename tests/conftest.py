import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests run the same examples on every run and stay within the
# suite's time budget; exact arithmetic makes per-example time vary widely.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("tier1")
