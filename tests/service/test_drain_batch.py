"""The worker's batch drain rule.

``_drain_batch`` blocks for the first queue item, then takes only what
is already queued — never a timed ``get`` — up to ``max_batch``.  The
queue here is a recording fake, so every test is deterministic: no
sleeps, no processes, no timing asserts.
"""

import queue

from repro.service.workers import _drain_batch


class RecordingQueue:
    """A ``queue.Queue`` stand-in that logs every call made on it.

    Each entry of ``script`` is either an item to hand back or an
    exception instance to raise; once the script runs dry, ``get_nowait``
    raises :class:`queue.Empty` (``get`` on an empty script is a test
    bug, since the real call would block forever).
    """

    def __init__(self, *script):
        self.script = list(script)
        self.calls = []

    def _next(self):
        entry = self.script.pop(0)
        if isinstance(entry, BaseException):
            raise entry
        return entry

    def get(self, block=True, timeout=None):
        self.calls.append(("get", block, timeout))
        assert self.script, "blocking get on an empty queue would hang"
        return self._next()

    def get_nowait(self):
        self.calls.append(("get_nowait",))
        if not self.script:
            raise queue.Empty
        return self._next()


def _item(n):
    return (n, b"request-%d" % n)


def test_lone_item_returns_at_once_without_a_timed_get():
    q = RecordingQueue(_item(1))
    drained = _drain_batch(q, max_batch=32)
    assert drained.items == [_item(1)]
    assert not drained.shutdown
    # One blocking get for the first item, one non-blocking probe that
    # finds the queue empty — and nothing that waits on a clock.
    assert q.calls == [("get", True, None), ("get_nowait",)]


def test_takes_min_of_queued_and_max_batch_and_leaves_the_rest():
    for queued, max_batch in [(5, 32), (32, 32), (40, 32), (7, 3), (1, 1)]:
        q = queue.Queue()
        for n in range(queued):
            q.put(_item(n))
        drained = _drain_batch(q, max_batch=max_batch)
        taken = min(queued, max_batch)
        assert drained.items == [_item(n) for n in range(taken)]
        assert not drained.shutdown
        assert q.qsize() == queued - taken
        assert [q.get_nowait() for _ in range(q.qsize())] == [
            _item(n) for n in range(taken, queued)
        ]


def test_full_batch_stops_probing_the_queue():
    q = RecordingQueue(_item(1), _item(2), _item(3))
    drained = _drain_batch(q, max_batch=2)
    assert drained.items == [_item(1), _item(2)]
    assert q.script == [_item(3)]
    assert q.calls == [("get", True, None), ("get_nowait",)]


def test_sentinel_mid_drain_sets_shutdown_and_keeps_drained_items():
    q = RecordingQueue(_item(1), _item(2), None, _item(3))
    drained = _drain_batch(q, max_batch=32)
    assert drained.items == [_item(1), _item(2)]
    assert drained.shutdown
    assert q.script == [_item(3)]  # nothing read past the sentinel


def test_sentinel_first_is_shutdown_with_no_items():
    drained = _drain_batch(RecordingQueue(None), max_batch=32)
    assert drained.items == []
    assert drained.shutdown


def test_torn_down_queue_on_first_get_is_shutdown():
    for exc in (EOFError(), OSError("handle closed")):
        q = RecordingQueue(exc)
        drained = _drain_batch(q, max_batch=32)
        assert drained.items == []
        assert drained.shutdown
        assert q.calls == [("get", True, None)]


def test_torn_down_queue_mid_drain_keeps_drained_items():
    q = RecordingQueue(_item(1), EOFError())
    drained = _drain_batch(q, max_batch=32)
    assert drained.items == [_item(1)]
    assert drained.shutdown
