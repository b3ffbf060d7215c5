import contextlib
import signal

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def brute_1e4():
    import oracles

    return oracles.brute_force_triples(10**4)


@pytest.fixture(scope="session")
def table_60():
    from markovnorm import markov_table

    return markov_table(60)


@pytest.fixture
def deadline():
    """deadline(seconds) bounds a block: past it, TimeoutError is raised
    inside the block, so a regression to a hang fails instead of blocking."""

    def expire(signum, frame):
        raise TimeoutError("deadline passed")

    @contextlib.contextmanager
    def within(seconds):
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within


@pytest.fixture
def walk_repeats_29(monkeypatch):
    """The value walk yields the node (5, 2, 29) of slope 2/3 a second time,
    a duplicate no real input produces."""
    import markovnorm.conjectures as conjectures

    real_walk = conjectures._walk_values

    def walk_with_a_repeat(bound):
        yield from real_walk(bound)
        yield (5, 2, 29)

    monkeypatch.setattr(conjectures, "_walk_values", walk_with_a_repeat)
