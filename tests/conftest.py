import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Reproducible draws, and no per-example deadline: timings on a shared
# machine drift too much for one.
settings.register_profile("default", derandomize=True, deadline=None)
# Fresh draws on each run, for the scheduled CI job:
# pytest --hypothesis-profile=random --hypothesis-seed=N
settings.register_profile("random", derandomize=False, deadline=None)


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {verdict}", file=sys.stderr)
