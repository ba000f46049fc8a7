"""The forked worker pool behind `--workers`: errors, dead workers, clean-up, read-ahead, large messages."""

import os
import pickle
import signal
import time
from contextlib import contextmanager

import pytest

from szlab import _pool, enumeration
from szlab.cli import main
from szlab.enumeration import examine
from szlab.errors import InvariantViolation
from szlab.formats import to_graph6
from szlab.graphs import cycle_graph, star_graph


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this thread if the block is still running after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    # Neither a running worker nor an unreaped one.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _graphs(count: int):
    return [cycle_graph(4 + 2 * (i % 3)) for i in range(count)]


def test_worker_exception_reaches_the_parent(monkeypatch):
    def fail(g):
        raise InvariantViolation(f"forged failure on n={g.n}")

    monkeypatch.setattr(enumeration, "compute_invariants", fail)
    with _deadline(60), pytest.raises(InvariantViolation, match="^forged failure on n=4$"):
        list(examine(_graphs(100), 2))
    _assert_no_child_left()


def test_dead_worker_is_named_not_waited_on(monkeypatch):
    compute = enumeration.compute_invariants

    def die_on_c8(g):
        if g.n == 8:
            os.kill(os.getpid(), signal.SIGKILL)
        return compute(g)

    monkeypatch.setattr(enumeration, "compute_invariants", die_on_c8)
    with _deadline(60), pytest.raises(RuntimeError, match=r"pool worker \d+ .*exit status -9"):
        list(examine(_graphs(100), 2))
    _assert_no_child_left()


def test_closing_early_reaps_every_worker():
    records = examine(_graphs(200), 2)
    with _deadline(60):
        assert next(records)["ok"]
        records.close()
    _assert_no_child_left()


def test_read_ahead_is_bounded():
    pulled = 0

    def items():
        nonlocal pulled
        for g in _graphs(500):
            pulled += 1
            yield g

    records = examine(items(), 2)
    with _deadline(60):
        next(records)
        records.close()
    # One chunk held by each of the 2 workers, and worker 0's next dealt before its records are yielded.
    assert 0 < pulled <= (2 + 1) * 16


def _serve_one_chunk(reply_bytes):
    """A stand-in for `_pool._serve` that answers one chunk with `reply_bytes(reply)` and returns."""

    def serve(fn, tasks, results):
        chunk = pickle.load(tasks)
        results.write(reply_bytes(pickle.dumps((True, [fn(item) for item in chunk]))))
        results.flush()

    return serve


def test_worker_gone_before_its_next_chunk(monkeypatch):
    monkeypatch.setattr(_pool, "_serve", _serve_one_chunk(lambda reply: reply))
    fork, pids = os.fork, []

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)

    def items():
        for i, g in enumerate(_graphs(100)):
            if i == 32:  # the third chunk: each worker has answered one and exited by now
                time.sleep(0.5)
            yield g

    with _deadline(60), pytest.raises(RuntimeError, match=r"^pool worker \d+ .*\(exit status 0\)$") as raised:
        list(examine(items(), 2))
    assert str(raised.value).startswith(f"pool worker {pids[0]} ")  # worker 0 is dealt the third chunk
    _assert_no_child_left()


def test_truncated_reply_is_a_dead_worker(monkeypatch):
    monkeypatch.setattr(_pool, "_serve", _serve_one_chunk(lambda reply: reply[:50]))
    with _deadline(60), pytest.raises(RuntimeError, match=r"^pool worker \d+ .*\(exit status 0\)$"):
        list(examine(_graphs(100), 2))
    _assert_no_child_left()


def test_exception_that_does_not_pickle_goes_back_by_name():
    class Local(Exception):
        def __reduce__(self):
            raise TypeError("not picklable")

    def fail(item):
        raise Local(f"bad {item}")

    with _deadline(60), _pool.ForkPool(2) as pool:
        with pytest.raises(RuntimeError, match="^Local: bad 0$") as raised:
            list(pool.imap(fail, range(40), chunksize=16))
    assert isinstance(raised.value.__cause__, _pool.WorkerTraceback)
    assert "Local: bad 0" in str(raised.value.__cause__)
    _assert_no_child_left()


class Needs(Exception):
    """Pickles by its args, the one message, but its __init__ wants two arguments to rebuild it."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_exception_that_cannot_be_rebuilt_goes_back_by_name():
    def fail(item):
        raise Needs(item, "more")

    with _deadline(60), _pool.ForkPool(2) as pool:
        with pytest.raises(RuntimeError, match="^Needs: 0 and more$") as raised:
            list(pool.imap(fail, range(40), chunksize=16))
    assert isinstance(raised.value.__cause__, _pool.WorkerTraceback)
    assert "Needs: 0 and more" in str(raised.value.__cause__)
    _assert_no_child_left()


def test_messages_beyond_a_pipe_buffer_both_ways():
    # Chunks and records of 256 KiB each: a parent blocked on writing a chunk
    # while its worker is blocked on writing records would never return.
    items = [str(i) * (1 << 18) for i in range(10)]
    with _deadline(60), _pool.ForkPool(2) as pool:
        assert list(pool.imap(str.upper, items, chunksize=2)) == items
    _assert_no_child_left()


def test_verify_with_a_line_beyond_a_pipe_buffer(tmp_path, capsys):
    # K_{1,1199}: a 119,900-byte graph6 line, rejected as a tree without any distance work.
    big = to_graph6(star_graph(1199))
    assert len(big) > 1 << 16
    stream = tmp_path / "big.g6"
    stream.write_text("\n".join([to_graph6(cycle_graph(4)), big] * 3 + [to_graph6(cycle_graph(6))]) + "\n")
    runs = []
    with _deadline(120):
        for workers in ("1", "2"):
            for fmt in ("json", "csv"):
                code = main(["verify", "--file", str(stream), "--format", fmt, "--workers", workers])
                runs.append((code, capsys.readouterr().out))
    assert runs[:2] == runs[2:]
    assert runs[0][0] == 0 and '"rejected": 3' in runs[0][1]
    _assert_no_child_left()
