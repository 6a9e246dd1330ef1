"""_pool.map_fields, the worker processes of run_verify and density_sweep:
W = min(CPUs of the affinity mask, fields) processes, the caller being
process 0.  _pool._deal gives each field, largest q^n first, to the process
with the fewest elements so far, the same way in every run, so a test that
needs a field outside the caller asks the deal for one (_worker_specs).
Outputs and op_count totals equal those of a one-CPU run, no worker outlives
the call, and the first failing field in spec order raises as it would in
one process."""

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


def _worker_specs(specs) -> list:
    """The specs that _pool._deal gives to workers at this mask's width, in spec order."""
    shares = _pool._deal(specs, min(CPUS, len(specs)))
    return [specs[i] for i in sorted(i for share in shares[1:] for i in share)]


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


@needs_masks
@needs_two_cpus
def test_a_worker_that_runs_f4_reuses_the_counts_made_before_the_fork(monkeypatch):
    # the global claim example-f4-normal-count counts F4 in the caller; with
    # 2^1:2 and 2^1:3 both dealt to a worker, it must not count F4 again
    with _one_cpu(monkeypatch):
        serial, serial_ops = _run_with_ops(1, 4, 8)
    monkeypatch.setattr(_pool, "_deal", lambda specs, width: [[]] * (width - 1) + [list(range(len(specs)))])
    forks = _counted_forks(monkeypatch)
    parallel, parallel_ops = _run_with_ops(1, 4, 8)
    assert len(forks) == 1
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
    target = _worker_specs(claims.enumerate_field_specs(4, 64))[0]

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
    # the first worker field and the caller's first field after it both
    # fail; a serial run would stop at the worker's
    specs = claims.enumerate_field_specs(4, 64)
    first = _worker_specs(specs)[0]
    later = next(spec for spec in specs[specs.index(first):] if spec not in _worker_specs(specs))

    def fail(f):
        if (f.ctx.p, f.ctx.k, f.ctx.n) in (first, later):
            raise ConsistencyError(f"planted failure on {f.subject}")

    _failing_check(monkeypatch, fail)
    with pytest.raises(ConsistencyError, match="planted failure on") as err:
        claims.run_verify(4, 64, 1)
    assert str(err.value).endswith(get_field(*first).spec_string())
    _assert_no_child()


class _TwoArgError(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@needs_two_cpus
def test_an_unpicklable_worker_error_arrives_by_type_and_message(monkeypatch):
    target = _worker_specs(claims.enumerate_field_specs(4, 64))[0]

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
    caller, target = os.getpid(), _worker_specs(claims.enumerate_field_specs(4, 64))[0]

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
        if ctx.n == 3:  # 2^1:3, the larger field, goes to worker 1
            raise FieldSpecError("planted", text="2^1:3", position=4)
        return ctx.n

    with pytest.raises(FieldSpecError) as err:
        _pool.map_fields(fn, [(2, 1, 2), (2, 1, 3)])
    assert (str(err.value), err.value.text, err.value.position) == \
        ("planted (at position 4 in '2^1:3')", "2^1:3", 4)
    _assert_no_child()


# -- density_sweep -------------------------------------------------------------

# q^n: 729, 1024, 625, 1024, 343, 729, 4096
SWEEP_SPECS = [(3, 1, 6), (2, 1, 10), (5, 1, 4), (2, 2, 5), (7, 1, 3), (3, 2, 3), (2, 1, 12)]


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


def test_the_deal_gives_each_field_largest_first_to_the_process_with_the_fewest_elements():
    assert _pool._deal(SWEEP_SPECS, 1) == [[0, 1, 2, 3, 4, 5, 6]]
    # 4096 to process 1 (the caller is last among equals); 1024, 1024, 729,
    # 729 and 625 to the caller, which holds 3506 < 4096 before the 625;
    # then 343 to process 1, as 4096 < 4131
    assert _pool._deal(SWEEP_SPECS, 2) == [[0, 1, 2, 3, 5], [4, 6]]
    assert _pool._deal(SWEEP_SPECS, 3) == [[3, 4, 5], [6], [0, 1, 2]]
    # sweep --range 2..2,14..20: 2^20 alone against 2^14..2^19
    assert _pool._deal([(2, 1, n) for n in range(14, 21)], 2) == [[0, 1, 2, 3, 4, 5], [6]]


@needs_two_cpus
def test_sweep_deals_its_fields_largest_first(monkeypatch):
    # the process that ran each field, by a second map_fields on the same
    # specs: one process per share of the deal, the caller's share its own
    pids, real = {}, _pool.map_fields

    def spy(fn, specs, **kwargs):
        pids.update(zip(specs, real(lambda ctx: os.getpid(), specs, **kwargs)))
        return real(fn, specs, **kwargs)

    monkeypatch.setattr(ct, "map_fields", spy)
    ct.density_sweep(SWEEP_SPECS)
    shares = _pool._deal(SWEEP_SPECS, min(CPUS, len(SWEEP_SPECS)))
    assert [pids[SWEEP_SPECS[i]] for i in shares[0]] == [os.getpid()] * len(shares[0])
    assert len(set(pids.values())) == len(shares)
    for share in shares:
        assert len({pids[SWEEP_SPECS[i]] for i in share}) == 1
    _assert_no_child()


@needs_masks
def test_a_one_cpu_run_stops_at_its_first_failing_field(monkeypatch):
    specs, calls = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4)], []

    def fn(ctx):
        calls.append((ctx.p, ctx.k, ctx.n))
        if ctx.n == 3:
            raise ConsistencyError("planted failure")
        return ctx.order

    with _one_cpu(monkeypatch), pytest.raises(ConsistencyError):
        _pool.map_fields(fn, specs)
    assert calls == specs[:2]


@needs_two_cpus
def test_every_field_runs_exactly_once_in_more_processes_than_cpus(monkeypatch):
    # each call of fn writes a byte to a pipe that the test counts
    read_fd, write_fd = os.pipe()
    specs, forks = [(2, 1, n) for n in range(2, 9)] * 3, _counted_forks(monkeypatch)
    monkeypatch.setattr(_pool, "_width", lambda fields: CPUS + 2)

    def fn(ctx):
        os.write(write_fd, b"x")
        return ctx.order

    try:
        results = _pool.map_fields(fn, specs)
    finally:
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            calls = pipe.read()
    assert results == [2**n for _, _, n in specs]
    assert len(calls) == len(specs)
    assert len(forks) == CPUS + 1
    _assert_no_child()


@needs_masks
def test_sweep_raises_the_first_failing_field_as_a_serial_run(monkeypatch):
    # 5^1:4 comes before the larger 2^1:12 in spec order and both fail; dealt
    # largest first, 2^1:12 is a worker's and 5^1:4 the caller's
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
    # is the caller's on two CPUs and 2^1:22 a worker's
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
