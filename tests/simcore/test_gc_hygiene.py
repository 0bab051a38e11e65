"""Request-path objects die by reference counting, not by the cyclic GC.

Every finished process, settled race and completed flow must be freed as
soon as its last holder lets go; nothing on the per-operation path may
be left in a reference cycle.  Each case turns the collector off, runs
with the environment (or platform) still referenced, and requires that
a full collection then finds nothing: whatever a collection would free
here is a per-operation cycle.

A waiter that catches a failed contender's exception must not keep the
contender in a local: the exception's traceback holds the waiter's
frame, and the contender holds the exception.  ``race_timeout`` drops
its local for that reason, and ``_racer`` below does the same.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.client import ClientTimeoutError, TableClient, race_timeout
from repro.client.base import measured_call, with_retries
from repro.resilience.backoff import RetryPolicy
from repro.scenarios.driver import run_scenario
from repro.scenarios.registry import get_scenario
from repro.simcore import Environment, Interrupt, Race
from repro.storage.errors import EntityNotFoundError, ServerBusyError
from repro.workloads.harness import build_platform


@contextmanager
def _collector_off():
    """Start from a clean heap and keep the collector off inside."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _work(env, delay, fail=False):
    yield env.timeout(delay)
    if fail:
        raise ValueError("contender failed")
    return delay


def _racer(env, outcomes, delay, deadline, fail=False):
    proc = env.process(_work(env, delay, fail))
    try:
        value = yield Race(env, proc, deadline)
    except ValueError:
        del proc
        outcomes["failed"] += 1
        return
    if proc.processed:
        outcomes["won"] += value > 0
    else:
        proc.defuse()  # the orphan keeps running after the deadline
        outcomes["expired"] += 1


def _sleeper(env, outcomes):
    try:
        yield env.timeout(10.0)
    except Interrupt:
        outcomes["interrupted"] += 1


def _interrupter(env, victim):
    yield env.timeout(0.25)
    victim.interrupt("stop")


def test_kernel_races_leave_no_cyclic_garbage():
    outcomes = {"won": 0, "expired": 0, "failed": 0, "interrupted": 0}
    with _collector_off():
        env = Environment()
        for i in range(200):
            # Contender wins, deadline wins (orphan finishes later), and
            # contender fails, in turn.
            kind = i % 3
            delay = 0.5 if kind != 1 else 2.0
            env.process(
                _racer(env, outcomes, delay, 1.0, fail=(kind == 2))
            )
        for _ in range(50):
            env.process(_interrupter(env, env.process(_sleeper(env, outcomes))))
        env.run()
        assert gc.collect() == 0
    assert outcomes == {
        "won": 67, "expired": 67, "failed": 66, "interrupted": 50,
    }


def test_already_settled_contender_leaves_no_cyclic_garbage():
    with _collector_off():
        env = Environment()
        done = env.timeout(0.0)
        env.run()
        races = [Race(env, done, 1.0) for _ in range(20)]
        env.run()
        assert all(race.processed for race in races)
        assert gc.collect() == 0


def test_client_race_timeout_leaves_no_cyclic_garbage():
    outcomes = {"ok": 0, "timeout": 0, "failed": 0}

    def caller(env, delay, fail):
        try:
            yield from race_timeout(env, _work(env, delay, fail), 1.0)
        except ClientTimeoutError:
            outcomes["timeout"] += 1
        except ValueError:
            outcomes["failed"] += 1
        else:
            outcomes["ok"] += 1

    with _collector_off():
        env = Environment()
        for i in range(90):
            kind = i % 3
            env.process(caller(env, 2.0 if kind == 1 else 0.5, kind == 2))
        env.run()
        assert gc.collect() == 0
    assert outcomes == {"ok": 30, "timeout": 30, "failed": 30}


def test_client_retry_paths_leave_no_cyclic_garbage():
    """``with_retries`` hands failures back as values, and it and
    ``measured_call`` must not keep the failed attempt's frames alive
    through the error's traceback."""
    policy = RetryPolicy(max_retries=1, backoff_s=0.1)
    cases = [(0.5, None), (2.0, None), (0.5, ServerBusyError), (0.5, ValueError)]
    outcomes = {"ok": 0, "failed": 0}

    def op(env, delay, error):
        yield env.timeout(delay)
        if error is not None:
            raise error("attempt failed")
        return delay

    def caller(env, face, delay, error):
        make = lambda: op(env, delay, error)  # noqa: E731
        if face == "measured":
            _result, outcome = yield from measured_call(env, make, policy, 1.0)
            failed = not outcome.ok
        else:
            _result, error_value, _retries = yield from with_retries(
                env, make, policy, 1.0
            )
            failed = error_value is not None
        outcomes["failed" if failed else "ok"] += 1

    with _collector_off():
        env = Environment()
        for face in ("loop", "measured"):
            for delay, error in cases:
                env.process(caller(env, face, delay, error))
        env.run()
        assert gc.collect() == 0
    # Per face: one success; a timeout, a retried busy error and a
    # semantic error fail.
    assert outcomes == {"ok": 2, "failed": 6}


def test_failed_service_client_calls_leave_no_cyclic_garbage():
    """A typed client call that fails, raising or measured."""
    outcomes = {"raised": 0, "measured": 0}

    def caller(client, row):
        try:
            yield from client.query("t", "p", row)
        except EntityNotFoundError:
            outcomes["raised"] += 1
        _result, outcome = yield from client.query_measured("t", "p", row)
        outcomes["measured"] += not outcome.ok

    with _collector_off():
        platform = build_platform(seed=3, n_clients=4)
        tables = platform.account.tables
        tables.create_table("t")
        for i in range(4):
            platform.env.process(
                caller(TableClient(tables, timeout_s=30.0), f"missing-{i}")
            )
        platform.env.run()
        assert gc.collect() == 0
    assert outcomes == {"raised": 4, "measured": 4}


@pytest.mark.parametrize(
    "name",
    [
        "fig2-table",
        "fig3-queue-add",
        "fig3-queue-receive",
        "fig1-blob-download",
    ],
)
@pytest.mark.parametrize("scale", [0.05, 0.1])
def test_exact_scenarios_leave_no_cyclic_garbage(name, scale):
    spec = get_scenario(name).scaled(scale)
    with _collector_off():
        platform = build_platform(seed=3, n_clients=4)
        result = run_scenario(
            spec, n_clients=4, seed=3, mode="exact", platform=platform
        )
        assert gc.collect() == 0
    assert result.ops_completed > 0
