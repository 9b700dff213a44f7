import time

import pytest

from entrolab.checks import GridContext
from entrolab.suite import config_from_dict, run_suite


@pytest.fixture(scope="session")
def ctx():
    """Shared grid context at default numerics; caches discretizations."""
    return GridContext()


@pytest.fixture(scope="session")
def default_suite():
    """(report, elapsed seconds) of the default suite at seed 20240501, run once."""
    config = config_from_dict({"seed": 20240501, "corpus_size": 100, "workers": 1})
    t0 = time.perf_counter()
    suite = run_suite(config)
    return suite, time.perf_counter() - t0
