"""Per-field work in one process per CPU of the affinity mask: map_fields."""

from __future__ import annotations

import os
import signal
import threading

from .field import get_field


def _width(fields: int) -> int:
    """One process per CPU of the mask and at most one per field; 1 without os.fork
    or masks, and while other threads run (a fork copies their locks, not them)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), fields))


def _share(fn, specs):
    """(done, error): done holds (fn(ctx), the op_count ctx gained) for each
    spec in turn up to the first that raised, error that exception or None."""
    done = []
    try:
        for spec in specs:
            ctx = get_field(*spec)
            before = ctx.op_count
            done.append((fn(ctx), ctx.op_count - before))
    except Exception as exc:
        return done, exc
    return done, None


def _fork_share(fn, specs):
    """Fork a worker that pickles _share(fn, specs) into a pipe and leaves by
    os._exit; return its pid and the pipe's read end.  An unpicklable error
    goes as a RuntimeError of its type and message, the traceback as a note."""
    import pickle  # before the fork: a fresh worker imports it several times slower

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        done, exc = _share(fn, specs)
        if exc is not None:
            import traceback

            where = "".join(traceback.format_exception(exc))
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            if hasattr(exc, "add_note"):
                exc.add_note(f"raised in a worker process:\n{where}")
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump((done, exc), pipe)
        status = 0
    finally:
        os._exit(status)


def map_fields(fn, specs: list, key=None, meanwhile=lambda: None) -> list:
    """[fn(get_field(*spec)) for spec in specs], op_count and the first error
    as in one process, in W = _width processes: the caller forks W - 1
    workers, calls meanwhile(), then runs its own share.  By key(spec)
    (stable; spec order without a key) the j-th field goes to process j mod
    W, the caller being 0; each runs its share in spec order up to its first
    error.  Every worker is reaped (killed first if its results are not
    wanted) before this returns or raises."""
    width = _width(len(specs))
    order = sorted(range(len(specs)), key=lambda i: key(specs[i])) if key else range(len(specs))
    shares = [sorted(order[w::width]) for w in range(width)]
    workers = {}  # pid -> the read end of its pipe, until reaped
    try:
        for share in shares[1:]:
            pid, pipe = _fork_share(fn, [specs[i] for i in share])
            workers[pid] = pipe
        meanwhile()
        outcomes = [_share(fn, [specs[i] for i in shares[0]])]
        for pid in list(workers):  # its pipe read to the end, then reaped
            import pickle
            with workers[pid] as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if status or not data:
                raise RuntimeError(f"worker {pid} exited with status {status} and no results")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for i, w, j in sorted((i, w, j) for w, share in enumerate(shares) for j, i in enumerate(share)):
        done, exc = outcomes[w]
        if j == len(done):
            raise exc
        results.append(done[j][0])
        if w:
            get_field(*specs[i]).op_count += done[j][1]
    return results
