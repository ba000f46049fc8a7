"""A process pool of forked workers, each fed over its own pair of pipes.

`enumeration.Pool` imports this module on first use, so only runs with more
than one worker load it.  Workers are forked when `imap` starts and inherit
the function they serve, so no function is pickled.  The parent deals chunks
out round-robin and reads them back in the order dealt.  It starts no
thread, and it blocks only on a pipe read or write: a task pipe is written
without blocking until the worker owes the parent nothing earlier, so a
worker blocked on writing large records can never wait on a parent blocked on
writing it a large chunk.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections import deque
from itertools import count, islice
from struct import Struct

_HEADER = Struct("!Q")  # the byte length of the pickle that follows
# Chunks dealt to each worker and not yet read back: enough to keep a worker
# busy while the parent folds records, and the bound on what a streamed
# input is read ahead.
IN_FLIGHT = 2


def _message(obj) -> bytes:
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


def _receive(stream):
    """The next object on a buffered pipe, or None at its end."""
    head = stream.read(_HEADER.size)
    if len(head) == _HEADER.size:
        (size,) = _HEADER.unpack(head)
        body = stream.read(size)
        if len(body) == size:
            return pickle.loads(body)
    return None


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception a worker raised: the cause of the one raised again."""


def _failure(exc: Exception) -> bytes:
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        return _message((False, (exc, text)))
    except Exception:  # an exception that does not pickle goes back by type name and message
        return _message((False, (RuntimeError(f"{type(exc).__name__}: {exc}"), text)))


def _serve(fn, tasks, results) -> None:
    """A worker's loop: (True, records) or (False, (exception, traceback)) per chunk, until the task pipe ends."""
    while (chunk := _receive(tasks)) is not None:
        try:
            reply = _message((True, [fn(item) for item in chunk]))
        except Exception as exc:
            reply = _failure(exc)
        results.write(reply)
        results.flush()


class _Worker:
    def __init__(self, pid: int, tasks: int, results):
        self.pid, self.tasks, self.results = pid, tasks, results
        self.backlog: deque[tuple[int, memoryview]] = deque()  # (chunk number, bytes not yet written)
        self.reaped = False

    def deal(self, number: int, chunk: list) -> None:
        self.backlog.append((number, memoryview(_message(chunk))))
        self.flush()

    def flush(self, due: int = -1) -> None:
        """Write what the task pipe takes without blocking, and chunks up to `due` in full.

        A chunk whose records are due may block: the worker has sent every
        earlier record and been read, so it is reading.
        """
        while self.backlog:
            number, view = self.backlog[0]
            blocking = number <= due
            if blocking:
                os.set_blocking(self.tasks, True)
            try:
                while view:
                    view = view[os.write(self.tasks, view):]
            except BlockingIOError:
                self.backlog[0] = number, view
                return
            except BrokenPipeError:
                self.died()
            finally:
                if blocking:
                    os.set_blocking(self.tasks, False)
            self.backlog.popleft()

    def collect(self, number: int) -> list:
        """The records of chunk `number`, the oldest this worker owes."""
        self.flush(due=number)
        reply = _receive(self.results)
        if reply is None:
            self.died()
        ok, value = reply
        if not ok:
            exc, text = value
            raise exc from WorkerTraceback(text)
        return value

    def died(self):
        _, status = os.waitpid(self.pid, 0)
        self.reaped = True
        raise RuntimeError(
            f"pool worker {self.pid} ended before sending its records "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        )


class ForkPool:
    """`processes` forked workers behind the `multiprocessing.Pool` calls `_in_order` makes.

    `imap` forks the workers and yields records in item order.  `__exit__`
    closes the pipes, kills every worker not yet reaped and reaps it, on a
    normal end, an exception or a generator closed early alike.  A fork
    copies only the thread that calls it, so the pool is for processes that
    run no other thread, as the szlab command does.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self._workers: list[_Worker] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for worker in self._workers:
            os.close(worker.tasks)
            worker.results.close()
        for worker in self._workers:
            if not worker.reaped:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
        self._workers.clear()
        return False

    def _fork(self, fn) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            # The worker leaves only through os._exit: no atexit handler runs,
            # and none of the parent's stdio buffers is flushed twice.
            code = 1
            try:
                os.close(task_w)
                os.close(result_r)
                for worker in self._workers:  # so each earlier worker sees its task pipe end
                    os.close(worker.tasks)
                    os.close(worker.results.fileno())
                _serve(fn, os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        os.set_blocking(task_w, False)
        self._workers.append(_Worker(pid, task_w, os.fdopen(result_r, "rb")))

    def imap(self, fn, items, chunksize: int = 1):
        """fn over items, in order: chunks of `chunksize` dealt round-robin, IN_FLIGHT per worker."""
        for _ in range(self.processes):
            self._fork(fn)
        workers, k = self._workers, self.processes
        it = iter(items)
        chunks = iter(lambda: list(islice(it, chunksize)), [])
        dealt = 0
        for number in count():
            for chunk in islice(chunks, number + IN_FLIGHT * k - dealt):
                workers[dealt % k].deal(dealt, chunk)
                dealt += 1
            if number == dealt:
                return
            # Before blocking on one worker, give each the part of its chunks its pipe now takes.
            for worker in workers:
                worker.flush()
            yield from workers[number % k].collect(number)
