"""Shared test configuration: one hypothesis profile for every test module.

No timing deadline, so a slow CI runner cannot flake a property test, and
failing examples print a reproduction blob.
"""

from hypothesis import settings

settings.register_profile("repro", deadline=None, print_blob=True)
settings.load_profile("repro")
