"""The deadline guard of norm-real: norm_real calls in a killable helper.

worker.py imports this module before it reports ready, so it loads nothing
but markovnorm and small built-in modules: set-up time is the time to start
an interpreter, import markovnorm and fork the helper, not the harness's
own imports.  Messages go over two pipes as length-prefixed marshal data.
"""

import marshal
import os
import select
import signal
import sys
from time import perf_counter

import markovnorm
from markovnorm.errors import AccuracyLimitError

# The cached descent, captured before any tracing wrapper, for cache_info().
CACHED = markovnorm.indexing.markov_of_slope
# A norm_real call still running after this long is killed and counts as
# failed.  Stratum-3 calls either answer within ~50 ms or run for seconds.
DEADLINE_S = 0.1


def _send(fd: int, obj):
    data = marshal.dumps(obj)
    data = len(data).to_bytes(4, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError("the other end of the pipe closed")
        buf += chunk
    return buf


def _recv(fd: int):
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 4), "little")))


def _helper(requests: int, replies: int, tracer):
    """norm_real server in the helper process; times each call itself.
    The request "clear" empties the markov_of_slope cache."""
    norm_real = markovnorm.norm_real
    CACHED.cache_clear()  # cold, whatever the forking process had cached
    if tracer is not None:
        tracer.take()  # drop what the forking process had gathered
    _send(replies, "ready")
    while (msg := _recv(requests)) is not None:
        if msg == "clear":
            CACHED.cache_clear()
            _send(replies, "cleared")
            continue
        x, y, tol = msg
        before = CACHED.cache_info()
        start = perf_counter()
        try:
            enc = norm_real(x, y, tol=tol)
            status, value = "ok", (enc.lo, enc.hi)
        except AccuracyLimitError:
            status, value = "accuracy_limit", None
        except Exception as ex:  # reported, then counted as a wrong answer
            status, value = "error", repr(ex)
        elapsed = perf_counter() - start
        after = CACHED.cache_info()
        taken = None
        if tracer is not None:
            totals, kept = tracer.take()
            taken = (totals, [tuple(s) for s in kept])
        _send(replies, (status, value, elapsed, after.hits - before.hits,
                        after.misses - before.misses, taken))


class Guard:
    """Runs norm_real calls in a helper process, killed at the deadline.

    The helper is forked from this process, which has markovnorm (and the
    tracer) loaded and runs no threads, so a restart costs a fork rather
    than a fresh interpreter and import.  Restart time is kept apart from
    every operation.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.restart_s = 0.0
        self._start()

    def _start(self):
        sys.stdout.flush()  # the child must not inherit unflushed output
        requests, self.requests = os.pipe()
        self.replies, replies = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self.requests)
            os.close(self.replies)
            # The forked child reports any exception and exits; it must never
            # return into the code of the process it was forked from.
            try:
                _helper(requests, replies, self.tracer)
            except BaseException:
                sys.excepthook(*sys.exc_info())
                os._exit(1)
            os._exit(0)
        os.close(requests)
        os.close(replies)
        _recv(self.replies)

    def _stop(self):
        os.waitpid(self.pid, 0)
        os.close(self.requests)
        os.close(self.replies)

    def restart(self):
        """Kill the helper and fork a fresh one, adding to restart_s."""
        began = perf_counter()
        os.kill(self.pid, signal.SIGKILL)
        self._stop()
        self._start()
        self.restart_s += perf_counter() - began

    def call(self, x: float, y: float, tol: float):
        """(status, value, seconds, hits, misses, spans); status "deadline"
        with seconds = the time waited when the call was killed."""
        _send(self.requests, (x, y, tol))
        sent = perf_counter()
        if select.select([self.replies], [], [], DEADLINE_S)[0]:
            return _recv(self.replies)
        waited = perf_counter() - sent
        self.restart()
        return "deadline", None, waited, 0, 0, None

    def new_pass(self):
        """Move the helper to this process's CPUs and empty its
        markov_of_slope cache."""
        os.sched_setaffinity(self.pid, os.sched_getaffinity(0))
        _send(self.requests, "clear")
        _recv(self.replies)

    def close(self):
        _send(self.requests, None)
        self._stop()
