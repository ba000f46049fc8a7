"""A process pool of forked workers, each fed over its own pair of pipes.

`enumeration.Pool` imports this module on first use, so only runs with more
than one worker load it.  Workers are forked when `imap` starts and inherit
the function they serve, so no function is pickled.  The parent deals chunks
out round-robin and reads them back in the order dealt.  It starts no thread,
and it blocks only on a pipe read or write.  Each worker holds at most one
chunk: it gets the next only after the parent has read all its records, so
it can then only be reading its task pipe, and a blocking write of any size
to that pipe finishes.  Pickle's own format marks where each message ends.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections import deque
from itertools import islice


def _dumps(obj) -> bytes:
    # Pickled whole before any byte is written, so a message that fails to pickle writes nothing.
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception a worker raised: the cause of the one raised again."""


def _failure(exc: Exception) -> bytes:
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:  # sent as the parent would rebuild it, so one that pickles but cannot be rebuilt fails here
        return _dumps((False, (pickle.loads(_dumps(exc)), text)))
    except Exception:  # an exception that does not make the round trip goes back by type name and message
        return _dumps((False, (RuntimeError(f"{type(exc).__name__}: {exc}"), text)))


def _serve(fn, tasks, results) -> None:
    """A worker's loop: (True, records) or (False, (exception, traceback)) per chunk, until the task pipe ends."""
    while True:
        try:
            chunk = pickle.load(tasks)
        except EOFError:
            return
        try:
            reply = _dumps((True, [fn(item) for item in chunk]))
        except Exception as exc:
            reply = _failure(exc)
        results.write(reply)
        results.flush()


class _Worker:
    def __init__(self, pid: int, tasks: int, results):
        # The task pipe stays a raw fd: a buffered file would try again, on
        # close, to write what a broken pipe refused.
        self.pid, self.tasks, self.results = pid, tasks, results
        self.reaped = False

    def deal(self, chunk: list) -> None:
        """Write a chunk in full; the worker owes no records, so it is reading its task pipe."""
        view = memoryview(_dumps(chunk))
        try:
            while view:
                view = view[os.write(self.tasks, view):]
        except BrokenPipeError:
            self.died()

    def collect(self) -> list:
        """The records of the chunk this worker holds."""
        try:
            ok, value = pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            self.died()
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
        self._workers.append(_Worker(pid, task_w, os.fdopen(result_r, "rb")))

    def imap(self, fn, items, chunksize: int):
        """fn over items, in order: chunks of `chunksize` dealt round-robin, one per worker at a time.

        A worker's next chunk is dealt before its records are yielded, so the
        items are read at most one chunk per worker, plus one, ahead.
        """
        for _ in range(self.processes):
            self._fork(fn)
        it = iter(items)
        chunks = iter(lambda: list(islice(it, chunksize)), [])
        busy: deque[_Worker] = deque()  # the workers holding a chunk, in the order dealt
        for worker, chunk in zip(self._workers, chunks):
            worker.deal(chunk)
            busy.append(worker)
        while busy:
            worker = busy.popleft()
            records = worker.collect()
            if (chunk := next(chunks, None)) is not None:
                worker.deal(chunk)
                busy.append(worker)
            yield from records
