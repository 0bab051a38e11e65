"""Shared client plumbing: timeout racing and the retry loop.

``with_retries`` is the standard call path every typed client funnels
through (``measured_call`` wraps its result in an
:class:`OperationOutcome`).  Beyond the seed's timeout-race +
bounded-retry it now consults the optional resilience hooks from
:mod:`repro.resilience`:

* a **retry budget** (token bucket) is charged before every backoff
  sleep — when the group's budget is exhausted the retry is *shed* and
  the original error surfaces immediately, so storms are not amplified;
* a **circuit breaker** gates every attempt — an open breaker fails
  fast with :class:`~repro.resilience.breaker.CircuitOpenError` before
  any server work happens, and every attempt's outcome feeds the
  breaker's rolling error window.

Both hooks are duck-typed here (no import of :mod:`repro.resilience`)
so the client package and the resilience package stay cycle-free.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.resilience.backoff import RetryPolicy
from repro.simcore import Environment, Race
from repro.storage.errors import OperationTimeoutError


class ClientTimeoutError(OperationTimeoutError):
    """The client-side operation timeout elapsed before the response.

    Subclasses OperationTimeoutError so callers and the retry policy
    treat server- and client-side timeouts uniformly, as the real SDK
    surfaced them.
    """


def race_timeout(
    env: Environment,
    operation: Generator,
    timeout_s: Optional[float],
    description: str = "operation",
) -> Generator:
    """Run a service operation with a client-side timeout.

    If the timeout elapses first the operation is abandoned (it keeps
    consuming server resources, as an abandoned HTTP request would) and
    ClientTimeoutError is raised.

    The race uses the kernel's :class:`~repro.simcore.Race` primitive:
    when the operation wins (nearly every call), the deadline event is
    cancelled and the scheduler discards it unprocessed instead of
    popping a dead heap entry — one per client op, the single largest
    source of wasted kernel work in the profiled benches.
    """
    if timeout_s is None:
        result = yield from operation
        return result
    proc = env.process(operation)
    try:
        yield Race(env, proc, timeout_s)
    except BaseException:
        # The operation failed.  Its exception's traceback holds this
        # frame, so drop the process (which holds the exception) first:
        # otherwise every failed call leaves a cycle for the GC.
        del proc
        raise
    if proc._processed:
        if not proc._ok:
            raise proc._value
        return proc._value
    # Abandon: silence the eventual completion/failure of the orphan.
    proc.defuse()
    raise ClientTimeoutError(
        f"{description} exceeded client timeout of {timeout_s}s"
    )


def with_retries(
    env: Environment,
    make_operation: Callable[[], Generator],
    policy: RetryPolicy,
    timeout_s: Optional[float],
    description: str = "operation",
    budget: Optional[Any] = None,
    breaker: Optional[Any] = None,
) -> Generator:
    """The standard client call path: timeout racing plus bounded retry.

    Returns ``(result, error, retries)``: the final (post-retry)
    ``Exception`` (then ``result`` is None) or None, and the number of
    retries taken.  Errors come back as values, so callers count
    retries and fail over without a closure or a ``try`` per call.

    ``budget`` (a :class:`~repro.resilience.budget.RetryBudget`) and
    ``breaker`` (a :class:`~repro.resilience.breaker.CircuitBreaker`)
    are optional; an open breaker's error is returned at once, neither
    fed back to it nor retried.  Only ``Exception`` is caught for retry
    classification: kernel control-flow exceptions (``GeneratorExit``,
    ``KeyboardInterrupt``) propagate, whatever the policy says.
    """
    if budget is not None:
        budget.record_call()
    retries = 0
    while True:
        if breaker is not None:
            try:
                breaker.guard(description)
            except Exception as error:
                return None, error, retries
        try:
            result = yield from race_timeout(
                env, make_operation(), timeout_s, description
            )
        except Exception as error:
            if breaker is not None:
                breaker.on_failure(error)
            if not policy.should_retry(error, retries) or (
                # A shed retry: the group's budget is exhausted.
                budget is not None and not budget.try_spend()
            ):
                return None, error, retries
            yield env.timeout(policy.backoff(retries))
            retries += 1
        else:
            if breaker is not None:
                breaker.on_success()
            return result, None, retries


class OperationOutcome:
    """Measurement record: latency plus success/error classification."""

    __slots__ = ("started_at", "finished_at", "error", "retries")

    def __init__(
        self,
        started_at: float,
        finished_at: float,
        error: Optional[BaseException] = None,
        retries: int = 0,
    ) -> None:
        self.started_at = started_at
        self.finished_at = finished_at
        self.error = error
        self.retries = retries

    @property
    def latency_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        status = "ok" if self.ok else type(self.error).__name__
        return f"<Outcome {status} {self.latency_s * 1000:.1f}ms>"


def measured_call(
    env: Environment,
    make_operation: Callable[[], Generator],
    policy: RetryPolicy,
    timeout_s: Optional[float],
    description: str = "operation",
    budget: Optional[Any] = None,
    breaker: Optional[Any] = None,
) -> Generator:
    """Run a client call and return (result_or_None, OperationOutcome)."""
    start = env.now
    result, error, retries = yield from with_retries(
        env, make_operation, policy, timeout_s, description, budget, breaker
    )
    return result, OperationOutcome(start, env.now, error, retries)
