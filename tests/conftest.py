"""Hypothesis settings: under CI (GitHub Actions sets ``CI``) every run draws
the same examples, so a failure there reproduces; local runs draw fresh ones."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
