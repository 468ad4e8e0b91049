"""Shared pytest configuration.

The ``ci`` hypothesis profile (``--hypothesis-profile=ci``) turns off the
per-example deadline, which a slow shared runner can exceed, and draws
examples from a fixed seed so a run can be repeated exactly. Without
hypothesis installed only the property-test modules fail to collect; the
other tests still run.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", deadline=None, derandomize=True)
