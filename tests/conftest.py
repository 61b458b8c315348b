"""Shared test settings: a reproducible hypothesis profile for CI.

With ``CI`` set (GitHub Actions sets it), the property tests draw their
examples deterministically, so a red run can be reproduced exactly.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
