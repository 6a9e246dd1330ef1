"""_pool.map_fields, the worker processes of run_verify and density_sweep:
W = min(CPUs of the affinity mask, fields) processes, the caller being
process 0.  run_verify deals field i to process i mod W, density_sweep deals
its fields largest q^n first.  Outputs and op_count totals equal those of a
one-CPU run, no worker outlives the call, and the first failing field in spec
order raises as it would in one process."""

import contextlib
import os
import threading

import pytest

from pnfield import _pool, claims
from pnfield import counting as ct
from pnfield.cli import main
from pnfield.errors import ConsistencyError, FieldSpecError
from pnfield.field import get_field

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2 or not hasattr(os, "fork"),
                                    reason="the affinity mask has one CPU")
needs_masks = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks here")


@contextlib.contextmanager
def _one_cpu(monkeypatch):
    """Run the block on one CPU of the affinity mask, failing on any fork."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "fork", lambda: pytest.fail("a one-CPU run forked"))
            yield
    finally:
        os.sched_setaffinity(0, mask)


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


@needs_masks
@pytest.mark.parametrize("seed", [1, 7])
def test_one_cpu_and_every_cpu_give_the_same_ledger_and_op_count(seed, monkeypatch):
    with _one_cpu(monkeypatch):
        serial, serial_ops = _run_with_ops(seed)
    forks = _counted_forks(monkeypatch)
    parallel, parallel_ops = _run_with_ops(seed)
    assert len(forks) == min(CPUS, len(claims.enumerate_field_specs(4, 256))) - 1
    assert parallel == serial
    assert parallel_ops == serial_ops
    _assert_no_child()


def test_width_is_one_without_affinity_masks(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _pool._width(20) == 1
    forks = _counted_forks(monkeypatch)
    assert claims.summarize(claims.run_verify(4, 16, 1))[claims.FAIL] == 0
    assert forks == []


def test_width_is_one_while_another_thread_runs(monkeypatch):
    forks, stop = _counted_forks(monkeypatch), threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        assert _pool._width(20) == 1
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


def test_a_field_spec_error_round_trips_through_pickle():
    import pickle

    err = pickle.loads(pickle.dumps(FieldSpecError("bad digit", text="2^x:3", position=2)))
    assert type(err) is FieldSpecError
    assert (str(err), err.text, err.position) == ("bad digit (at position 2 in '2^x:3')", "2^x:3", 2)


@needs_two_cpus
def test_a_field_spec_error_from_a_worker_keeps_its_text_and_position():
    def fn(ctx):
        if ctx.n == 3:  # field 1 goes to worker 1
            raise FieldSpecError("planted", text="2^1:3", position=4)
        return ctx.n

    with pytest.raises(FieldSpecError) as err:
        _pool.map_fields(fn, [(2, 1, 2), (2, 1, 3)])
    assert (str(err.value), err.value.text, err.value.position) == \
        ("planted (at position 4 in '2^1:3')", "2^1:3", 4)
    _assert_no_child()


# -- density_sweep -------------------------------------------------------------

# by q^n: 4096, 1024 twice, 729 twice, 625, 343; the ties go by (p, k, n)
SWEEP_SPECS = [(3, 1, 6), (2, 1, 10), (5, 1, 4), (2, 2, 5), (7, 1, 3), (3, 2, 3), (2, 1, 12)]
LARGEST_FIRST = [(2, 1, 12), (2, 1, 10), (2, 2, 5), (3, 1, 6), (3, 2, 3), (5, 1, 4), (7, 1, 3)]


def _sweep_with_ops(specs):
    """density_sweep on fresh contexts, and Σ op_count over its fields after it."""
    get_field.cache_clear()
    records = ct.density_sweep(specs)
    return records, sum(get_field(*spec).op_count for spec in specs)


@needs_masks
def test_sweep_on_one_cpu_and_every_cpu_gives_the_same_bytes_and_op_count(monkeypatch):
    with _one_cpu(monkeypatch):
        serial, serial_ops = _sweep_with_ops(SWEEP_SPECS)
    forks = _counted_forks(monkeypatch)
    parallel, parallel_ops = _sweep_with_ops(SWEEP_SPECS)
    assert len(forks) == min(CPUS, len(SWEEP_SPECS)) - 1
    assert parallel == serial
    assert ct.sweep_to_csv(parallel) == ct.sweep_to_csv(serial)
    assert ct.sweep_to_json(parallel) == ct.sweep_to_json(serial)
    assert parallel_ops == serial_ops > 0
    _assert_no_child()


@needs_two_cpus
def test_sweep_deals_its_fields_largest_first(monkeypatch):
    # the process that ran each field, by a second map_fields with the deal
    # density_sweep asked for: the j-th largest field goes to process j mod W
    pids, real = {}, _pool.map_fields

    def spy(fn, specs, **kwargs):
        pids.update(zip(specs, real(lambda ctx: os.getpid(), specs, **kwargs)))
        return real(fn, specs, **kwargs)

    monkeypatch.setattr(ct, "map_fields", spy)
    ct.density_sweep(SWEEP_SPECS)
    width = min(CPUS, len(SWEEP_SPECS))
    assert pids[LARGEST_FIRST[0]] == os.getpid()
    assert len(set(pids.values())) == width
    for j, spec in enumerate(LARGEST_FIRST):
        assert pids[spec] == pids[LARGEST_FIRST[j % width]], spec
    _assert_no_child()


@needs_masks
def test_sweep_raises_the_first_failing_field_as_a_serial_run(monkeypatch):
    # 5^1:4 comes before the larger 2^1:12 in spec order and both fail; dealt
    # largest first, 2^1:12 is the caller's and 5^1:4 another process's
    specs, real = [(3, 1, 6), (5, 1, 4), (2, 1, 10), (2, 1, 12)], ct.exact_counts

    def planted(ctx, budget):
        if (ctx.p, ctx.k, ctx.n) in ((5, 1, 4), (2, 1, 12)):
            raise ConsistencyError(f"planted failure on {ctx.spec_string()}")
        return real(ctx, budget=budget)

    monkeypatch.setattr(ct, "exact_counts", planted)
    with _one_cpu(monkeypatch), pytest.raises(ConsistencyError) as serial:
        ct.density_sweep(specs)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(ConsistencyError) as parallel:
        ct.density_sweep(specs)
    assert str(parallel.value) == str(serial.value) == f"planted failure on {get_field(5, 1, 4).spec_string()}"
    assert len(forks) == min(CPUS, len(specs)) - 1
    _assert_no_child()


@needs_masks
def test_sweep_above_the_cap_exits_2_with_the_serial_text(monkeypatch, capsys):
    # both fields are above the table cap; 2^1:21, the first in spec order,
    # is not the caller's on two CPUs
    args = ["sweep", "--range", "2..2,21..22"]
    with _one_cpu(monkeypatch), pytest.raises(SystemExit) as serial:
        main(args)
    serial_err = capsys.readouterr().err
    forks = _counted_forks(monkeypatch)
    with pytest.raises(SystemExit) as parallel:
        main(args)
    assert serial.value.code == parallel.value.code == 2
    assert capsys.readouterr().err == serial_err == \
        "error: F_2^21 has 2097152 elements, above the table cap 2^20 for whole-field data\n"
    assert len(forks) == min(CPUS, 2) - 1
    _assert_no_child()


def test_sweep_is_serial_while_another_thread_runs(monkeypatch):
    forks, stop = _counted_forks(monkeypatch), threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        records = ct.density_sweep(SWEEP_SPECS)
    finally:
        stop.set()
        thread.join(30)
    assert not thread.is_alive()
    assert forks == [] and len(records) == len(SWEEP_SPECS)
