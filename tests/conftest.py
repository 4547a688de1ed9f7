"""A per-test watchdog: a test that runs past a minute fails instead of
hanging the suite, so a propagation loop that never ends shows up as a
failing test.  The slowest test takes a few seconds."""

import signal

import pytest

_LIMIT_S = 60


class _Hung(BaseException):
    """Raised into a test that outran the watchdog.

    Not ``pytest.fail``: Hypothesis counts that as an ordinary failure and
    goes on to shrink, running more examples with the timer spent.  Neither
    Hypothesis nor an ``except Exception`` catches a BaseException, so it
    reaches pytest, which reports the test as failed.
    """


def _expired(signum, frame):
    raise _Hung(f"still running after {_LIMIT_S} s")


if hasattr(signal, "SIGALRM"):

    @pytest.fixture(autouse=True)
    def _watchdog():
        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, _LIMIT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
