import threading
import time

import pytest

# seconds a thread started during a test may take to finish after it
THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """Fail a test after which a thread it started is still alive.

    Every RK4 sweep and Monte Carlo call joins its helper threads
    before it returns or raises, so each test that runs one is checked
    for a leaked helper.  A thread the test started gets a short grace
    to finish, for one that is ending as the test returns.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE_S
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not left, f"threads alive after the test: {left}"
