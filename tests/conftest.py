import os
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# HYPOTHESIS_PROFILE=ci prints a failing example's reproduction blob.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
