"""The one place that decides how vannodes uses the CPUs: numpy's OpenBLAS
thread count and the forked fan-out of independent calls (``fan_out``).

A fan-out splits its calls over ``_cpus()``, with BLAS pinned to one thread
(``one_blas_thread``), so that no output's bits depend on the number of CPUs
or on ``OPENBLAS_NUM_THREADS``; where numpy's OpenBLAS is not found or the
platform reports no affinity (macOS, Windows), nothing is split.  Vannodes
starts no thread: another CPU is reached only by a forked child.
"""

import ctypes
import functools
import os
import pickle
from contextlib import contextmanager

import numpy as np

__all__ = ["one_blas_thread", "fan_out"]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    or None where it is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        lib = ctypes.CDLL(os.path.join(libs, next(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread inside the block and restore the
    caller's count after it, also when the block raises.  Where OpenBLAS is
    not found, it leaves the count alone."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _cpus() -> int:
    """The CPUs work may be split over: the process's affinity where the
    platform reports it and numpy's OpenBLAS is found, else 1."""
    if _openblas_threads() is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


# Estimated layer-steps (``experiments._train_work``, ``_probe_work``) that
# the smallest share of a fan-out must exceed for forked workers to pay.  A
# fork costs a short pass 15-30 ms (copy-on-write faults and cold caches:
# split over two workers, `orth-householder`'s shares of 160 and 320 took
# its 0.084 s pass to 0.10 s), and batch-1 SGD at N = 32 takes 10-50 us per
# layer-step, so below about 1000 layer-steps a share finishes sooner in the
# parent.  `grid-tanh`'s smaller share is 2223.
_FAN_OUT_FLOOR = 1000


def fan_out(calls: list):
    """Yield the results of ``calls``, (estimated work, zero-argument
    callable) pairs, in order, and then raise the exception of the first
    call that raised, as the calls made one after another would.

    The calls run inside ``one_blas_thread``, so their bits do not depend on
    how many CPUs share them.  They are split into one share per CPU of
    ``_cpus()`` (at most one per call), longest first.  When the smallest
    share's work exceeds ``_FAN_OUT_FLOOR``, the parent computes one share
    and a child started by ``os.fork`` each other; a child sends its results
    back as one pickle and ends with ``os._exit``, running no handler of the
    parent's.  Otherwise, as for calls of work 0, the calls are made
    in-process, one after another, each result yielded as it comes (where
    OpenBLAS is not found, at its own thread count).  Fork, not a spawned
    pool: starting a spawned worker takes about 0.5 s, longer than a whole
    `grid-tanh` pass.  The threads of OpenBLAS's pool are idle at the fork,
    and vannodes starts no other thread.

    A share's calls run in order and stop at the first that raises, so every
    call before the first failure has a result.  An exception keeps its type
    where it pickles, with the child's traceback as a note; otherwise it
    arrives as a RuntimeError holding that traceback.  Every child has been
    reaped before the first result is yielded."""
    shares = [[] for _ in range(min(_cpus(), len(calls)))]
    loads = [0] * len(shares)
    for i in sorted(range(len(calls)), key=lambda i: -calls[i][0]):  # longest first, ties in order
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += calls[i][0]
    with one_blas_thread():
        if len(shares) < 2 or min(loads) <= _FAN_OUT_FLOOR:
            yield from (call() for _, call in calls)
            return
        results, failures = _forked([sorted(share) for share in shares], calls)
        first = min(failures, default=len(calls))
        yield from (results[i] for i in range(first))
        if failures:
            raise failures[first]


def _run_share(calls: list, share: list) -> tuple:
    """{index: result} of the calls ``share`` made in order, and
    {index: exception} of the first that raised, after which none is made."""
    results = {}
    for i in share:
        try:
            results[i] = calls[i][1]()
        except Exception as e:
            return results, {i: e}
    return results, {}


def _child_payload(calls: list, share: list) -> bytes:
    """``_run_share``'s pickle, with an exception that does not survive a
    pickle round trip replaced by a RuntimeError holding its traceback."""
    import traceback

    results, failures = _run_share(calls, share)
    for i, e in failures.items():
        text = "".join(traceback.format_exception(e))
        try:
            failures[i] = pickle.loads(pickle.dumps(e))
        except Exception:
            failures[i] = RuntimeError(f"a forked worker raised an exception that does not pickle:\n{text}")
        else:
            if hasattr(e, "add_note"):  # Python 3.11+
                failures[i].add_note(f"raised in a forked worker:\n{text}")
    try:
        return pickle.dumps((results, failures), pickle.HIGHEST_PROTOCOL)
    except Exception:
        error = RuntimeError(f"a forked worker's results do not pickle:\n{traceback.format_exc()}")
        return pickle.dumps(({}, {share[0]: error}))


def _forked(shares: list, calls: list) -> tuple:
    """``_run_share`` of ``shares[0]`` in the parent and of each other share
    in a forked child; merged results and failures.  A child whose calls all
    come after a failure known when it is collected is killed: none of its
    results is used.  Every child is reaped on any exit."""
    import signal

    children = []  # (pid, read end of its pipe, its share) of each child not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never returns into the parent's code
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as f:
                        f.write(_child_payload(calls, share))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r, share))
        results, failures = _run_share(calls, shares[0])
        while children:
            pid, r, share = children[0]
            if share[0] > min(failures, default=len(calls)):
                os.kill(pid, signal.SIGKILL)
            with open(r, "rb", closefd=False) as f:
                data = f.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            os.close(r)
            try:
                got, lost = pickle.loads(data)
            except Exception:
                got, lost = {}, {share[0]: RuntimeError(f"forked worker {pid} sent no results (exit code {code})")}
            results.update(got)
            failures.update(lost)
        return results, failures
    finally:
        for pid, r, _ in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
