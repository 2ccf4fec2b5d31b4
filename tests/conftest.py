"""Hypothesis settings for the suite.  Where the CI environment variable
is set, as on GitHub Actions, the "ci" profile applies: a failing
property prints a @reproduce_failure blob to replay it locally, and no
example has a deadline."""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
