"""A time limit for every test, so a regressed guard fails a test instead of
spinning until the whole run is killed."""

import signal

import pytest

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
