"""run_verify's worker processes: the per-field claims of field i run in
process i mod W, W = min(CPUs of the affinity mask, fields), the caller being
process 0.  The ledger and the op_count totals equal those of a one-CPU run,
no worker outlives the call, and a worker's exception reaches the caller."""

import os
import threading

import pytest

from pnfield import claims
from pnfield.errors import ConsistencyError
from pnfield.field import get_field

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2 or not hasattr(os, "fork"),
                                    reason="the affinity mask has one CPU")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch) -> list:
    forks, real = [], os.fork

    def counted():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _failing_check(monkeypatch, fail):
    """Append a check to _FIELD_CHECKS that calls fail(f) on every field."""
    def check(f):
        fail(f)
        return iter(())

    monkeypatch.setattr(claims, "_FIELD_CHECKS", claims._FIELD_CHECKS + ((None, check),))


def _run_with_ops(seed, lo=4, hi=256):
    """run_verify on fresh contexts, and Σ op_count over its fields after it."""
    get_field.cache_clear()
    results = claims.run_verify(lo, hi, seed)
    return results, sum(get_field(*spec).op_count for spec in claims.enumerate_field_specs(lo, hi))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks here")
@pytest.mark.parametrize("seed", [1, 7])
def test_one_cpu_and_every_cpu_give_the_same_ledger_and_op_count(seed, monkeypatch):
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "fork", lambda: pytest.fail("a one-CPU run forked"))
            serial, serial_ops = _run_with_ops(seed)
    finally:
        os.sched_setaffinity(0, mask)
    forks = _counted_forks(monkeypatch)
    parallel, parallel_ops = _run_with_ops(seed)
    assert len(forks) == min(CPUS, len(claims.enumerate_field_specs(4, 256))) - 1
    assert parallel == serial
    assert parallel_ops == serial_ops
    _assert_no_child()


def test_width_is_one_without_affinity_masks(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert claims._verify_width(20) == 1
    forks = _counted_forks(monkeypatch)
    assert claims.summarize(claims.run_verify(4, 16, 1))[claims.FAIL] == 0
    assert forks == []


def test_width_is_one_while_another_thread_runs(monkeypatch):
    forks, stop = _counted_forks(monkeypatch), threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        assert claims._verify_width(20) == 1
        assert claims.summarize(claims.run_verify(4, 16, 1))[claims.FAIL] == 0
    finally:
        stop.set()
        thread.join(30)
    assert not thread.is_alive()
    assert forks == []


@needs_two_cpus
def test_workers_are_reaped_after_a_run(monkeypatch):
    forks = _counted_forks(monkeypatch)
    results = claims.run_verify(4, 64, 1)
    assert forks and claims.summarize(results)[claims.FAIL] == 0
    _assert_no_child()


@needs_two_cpus
def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    specs = claims.enumerate_field_specs(4, 64)
    target = specs[1]  # field 1 goes to worker 1

    def fail(f):
        if (f.ctx.p, f.ctx.k, f.ctx.n) == target:
            raise ConsistencyError(f"planted failure on {f.subject}")

    _failing_check(monkeypatch, fail)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(ConsistencyError) as err:
        claims.run_verify(4, 64, 1)
    assert str(err.value) == f"planted failure on {get_field(*target).spec_string()}"
    if hasattr(err.value, "add_note"):  # the worker's traceback, as a note
        assert "in fail" in err.value.__notes__[-1]
    assert forks
    _assert_no_child()


@needs_two_cpus
def test_the_first_failing_field_raises_as_in_a_serial_run(monkeypatch):
    # fields 1 (worker 1) and 2 (the caller's share when W = 2, else another
    # worker's) both fail; a serial run would stop at field 1
    specs = claims.enumerate_field_specs(4, 64)

    def fail(f):
        if (f.ctx.p, f.ctx.k, f.ctx.n) in specs[1:3]:
            raise ConsistencyError(f"planted failure on {f.subject}")

    _failing_check(monkeypatch, fail)
    with pytest.raises(ConsistencyError, match="planted failure on") as err:
        claims.run_verify(4, 64, 1)
    assert str(err.value).endswith(get_field(*specs[1]).spec_string())
    _assert_no_child()


class _TwoArgError(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@needs_two_cpus
def test_an_unpicklable_worker_error_arrives_by_type_and_message(monkeypatch):
    target = claims.enumerate_field_specs(4, 64)[1]

    def fail(f):
        if (f.ctx.p, f.ctx.k, f.ctx.n) == target:
            raise _TwoArgError("planted", f.subject)

    _failing_check(monkeypatch, fail)
    with pytest.raises(RuntimeError) as err:
        claims.run_verify(4, 64, 1)
    assert str(err.value) == f"_TwoArgError: planted at {get_field(*target).spec_string()}"
    _assert_no_child()


@needs_two_cpus
def test_a_worker_that_dies_is_reported_and_reaped(monkeypatch):
    caller, target = os.getpid(), claims.enumerate_field_specs(4, 64)[1]

    def die(f):
        if os.getpid() != caller and (f.ctx.p, f.ctx.k, f.ctx.n) == target:
            os._exit(3)

    _failing_check(monkeypatch, die)
    with pytest.raises(RuntimeError, match="exited with status"):
        claims.run_verify(4, 64, 1)
    _assert_no_child()


@needs_two_cpus
def test_an_error_in_the_caller_kills_and_reaps_the_workers(monkeypatch):
    # integer_claims runs after the fork, before the caller's fields
    forks = _counted_forks(monkeypatch)

    def fail(*args, **kwargs):
        raise ConsistencyError("planted failure in the integer claims")

    monkeypatch.setattr(claims, "integer_claims", fail)
    with pytest.raises(ConsistencyError, match="integer claims"):
        claims.run_verify(4, 4096, 1)
    assert forks
    _assert_no_child()
