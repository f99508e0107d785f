"""A time limit for every test, so a regressed guard fails a test instead of
spinning until the whole run is killed.

pytest rewrites asserts only in test modules and conftest files, and
``python -O`` strips every other assert.  The test-support modules under
``tests/`` hold reference checks of their own, so they are registered for
rewriting here, before any test module imports them, and their asserts run
under ``-O`` too."""

import signal

import pytest

pytest.register_assert_rewrite("helpers", "format1")

TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past the {TEST_TIME_LIMIT_S} s time limit",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
