"""The one place that decides how vannodes uses the CPUs: numpy's OpenBLAS
thread count, the forked fan-out of independent training calls
(``fan_out``) and the row blocks of a streamed probe pass (``row_blocked``).

Both split work over ``_cpus()``, with BLAS pinned to one thread
(``one_blas_thread``), so that no output's bits depend on the number of CPUs
or on ``OPENBLAS_NUM_THREADS``; where numpy's OpenBLAS is not found or the
platform reports no affinity (macOS, Windows), nothing is split.
"""

import ctypes
import functools
import os
import pickle
from contextlib import contextmanager

import numpy as np

__all__ = ["one_blas_thread", "fan_out", "row_blocked"]


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


# Estimated layer-steps (``experiments._train_work``) that the smallest share
# of a fan-out must exceed for forked workers to pay.  A fork costs a short
# pass 15-30 ms (copy-on-write faults and cold caches: split over two
# workers, `orth-householder`'s shares of 160 and 320 took its 0.084 s pass
# to 0.10 s), and batch-1 SGD at N = 32 takes 10-50 us per layer-step, so
# below about 1000 layer-steps a share finishes sooner in the parent.
# `grid-tanh`'s smaller share is 2223.
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
    and the only other threads a vannodes process starts, ``row_blocked``'s,
    end with their pass.

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


# A probe layer's rows (float32, an sgemm) are split into blocks only when
# each block makes at least _ROW_BLOCK_FLOOR multiply-adds (rows x N x
# fan_in), and every block but the last is a whole number of _ROW_QUANTUM
# rows, so that each block's product has the bits of the whole product's
# rows.  Measured with OpenBLAS 0.3.31 on one thread:
# - on its SkylakeX kernels, float32 blocks cut at any row kept every bit
#   for N = fan_in in 8..599 at 2000 rows split in 2, 3 and 4.  On its
#   Haswell kernels (OPENBLAS_CORETYPE=Haswell, the ones a CPU without
#   AVX-512 gets), cuts at multiples of 16 rows changed bits at N = 64..512
#   and cuts at multiples of 12 or 48 did not; 48 rows also kept every bit
#   of a float64 product on SkylakeX, where cuts off multiples of 12 did not;
# - a product of at most 10^6 multiply-adds may take a small-matrix path
#   whose bits differ (float64: blocks of up to 37 rows at N = 32);
# - at 2000 rows, a float32 hard-tanh layer split in 2 took, while both
#   CPUs were free (the fastest tenth of 60 alternating pairs), 1.16x the
#   time of one block at N = 40 (1.6M multiply-adds a block), 0.68x at
#   N = 50 (2.5M), 0.72x at N = 64 (4.1M) and 0.54-0.60x from N = 92
#   (8.5M); in the median 1.01x, 0.86x and 0.69-0.78x.  While the second
#   CPU was busy every split took 1.06-1.22x.  Below about 4M the gain is
#   not steady enough to pay for the handoff.
_ROW_BLOCK_FLOOR = 1 << 22
_ROW_QUANTUM = 48


def _row_blocks(rows: int, madds_per_row: int, cpus: int) -> list:
    """(start, stop) of the row blocks a layer step over ``rows`` rows is
    split into: the most, up to ``cpus``, of near-equal size that keep the
    rules above, or the one block (0, rows)."""
    for k in range(min(cpus, rows // _ROW_QUANTUM), 1, -1):
        cuts = [round(i * rows / (k * _ROW_QUANTUM)) * _ROW_QUANTUM for i in range(k)] + [rows]
        if min(b - a for a, b in zip(cuts, cuts[1:])) * madds_per_row >= _ROW_BLOCK_FLOOR:
            return list(zip(cuts, cuts[1:]))
    return [(0, rows)]


def row_blocked(x: np.ndarray, weights, step):
    """Yield x_1, x_2, ...: x_l is a fresh array, of x's dtype, whose rows
    ``step(rows of x_{l-1}, w_l, the same rows of x_l)`` fills, for each
    weight w_l (out x in) the iterator ``weights`` yields.  Its one caller,
    ``network.streamed_layers``, steps in float32, for which the rules above
    were measured.  Each layer and the draw of the next weight run inside
    ``one_blas_thread``, where one pool thread steps each row block
    (``_row_blocks``) but the first, while this thread steps the first and
    then draws; a block writes only its rows of x_l, so no activation is
    copied.  The caller's BLAS thread count is
    back at each yield, and the pool's threads end with the pass, also when
    the caller closes it early."""
    from concurrent.futures import ThreadPoolExecutor  # about 10 ms, so imported on first use, not with the module

    cpus = _cpus()
    with ThreadPoolExecutor(max(1, cpus - 1)) as pool:  # starts a thread only when a block is submitted
        with one_blas_thread():
            w = next(weights, None)
        while w is not None:
            with one_blas_thread():
                (a, b), *others = _row_blocks(len(x), w.size, cpus)
                out = np.empty((len(x), w.shape[0]), x.dtype)
                steps = [pool.submit(step, x[c:d], w, out[c:d]) for c, d in others]
                step(x[a:b], w, out[a:b])
                del w  # so that this thread holds one weight when it draws the next
                w = next(weights, None)
                for s in steps:
                    s.result()
            x = out
            yield x
