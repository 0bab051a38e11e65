"""The layer tracer observes without changing what the program does."""

import inspect

from repro.experiments.golden import digest_report
from repro.experiments.registry import run_experiment
from repro.simcore import Environment, Interrupt

import layers
from tracing import Tracer, import_all, is_wrapper


def _interrupted_log(wrap=None):
    """A waiter interrupted mid-sleep, with a ``yield from`` child whose
    return value and a thrown-in interrupt must both pass through."""
    wrap = wrap or (lambda fn: fn)
    log = []

    @wrap
    def child(env, n):
        for i in range(n):
            yield env.timeout(1.5)
            log.append(("child", env.now, i))
        return n * 10

    @wrap
    def waiter(env):
        try:
            got = yield from child(env, 5)
            log.append(("returned", env.now, got))
        except Interrupt as stop:
            log.append(("interrupted", env.now, stop.cause))
        got = yield from child(env, 2)
        log.append(("after", env.now, got))
        return "done"

    @wrap
    def interrupter(env, target):
        yield env.timeout(4.0)
        target.interrupt("wake")
        value = yield target
        log.append(("joined", env.now, value))

    env = Environment()
    target = env.process(waiter(env))
    env.process(interrupter(env, target))
    env.run()
    return log, target.value


def test_generator_proxy_keeps_interrupted_process_identical():
    plain = _interrupted_log()
    tracer = Tracer()

    def wrap(fn):
        return tracer._wrap(fn, f"test:{fn.__name__}", "other")

    traced = _interrupted_log(wrap)
    assert traced == plain
    assert ("interrupted", 4.0, "wake") in plain[0]
    # Every resume of the three generators left a closed span.
    assert tracer.span_count > 0
    assert all(end > 0.0 for end in tracer.span_end)
    assert tracer.calls[tracer.name_id("test:child")] == 2
    assert tracer._stack == [-1]


def test_proxy_passes_close_and_attributes_through():
    tracer = Tracer()

    def gen():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    closed = []
    proxy = tracer._wrap(gen, "test:gen", "other")()
    assert next(proxy) == 1
    assert proxy.__name__ == "gen"
    proxy.close()
    assert closed == [True]
    assert inspect.getgeneratorstate(proxy._gen) == "GEN_CLOSED"


def _attributes(modules):
    for mod in modules:
        for attr, obj in vars(mod).items():
            yield f"{mod.__name__}.{attr}", obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    yield f"{mod.__name__}.{attr}.{name}", member


def test_wrappers_are_gone_after_uninstall():
    modules = import_all()
    before = {name: obj for name, obj in _attributes(modules)}
    tracer = Tracer()
    layers.install(tracer)

    from repro.simcore.engine import Environment as Env
    from repro.storage import table

    assert is_wrapper(Env.run) and is_wrapper(table.make_entity)
    assert is_wrapper(vars(Env)["__init__"])
    assert is_wrapper(Environment().timeout)

    tracer.uninstall()
    after = {name: obj for name, obj in _attributes(modules)}
    assert [n for n, obj in after.items() if is_wrapper(obj)] == []
    assert all(after[n] is before[n] for n in before if n in after)
    assert not is_wrapper(Environment().timeout)


def _traced_fig1():
    tracer = Tracer()
    probes = layers.install(tracer)
    try:
        report = run_experiment("fig1", scale=0.05, seed=3, jobs=1)
    finally:
        tracer.uninstall()
    return digest_report(report), layers.collect(tracer, probes, 1.0)


def test_traced_run_only_observes_and_counts_repeat_exactly():
    plain = digest_report(run_experiment("fig1", scale=0.05, seed=3, jobs=1))
    digest_one, metrics_one = _traced_fig1()
    digest_two, metrics_two = _traced_fig1()
    assert digest_one == digest_two == plain
    counts = layers.count_metrics(metrics_one)
    assert counts == layers.count_metrics(metrics_two)
    assert counts["simcore.process.calls"] > 0
    assert counts["client.calls"] > 0
    assert set(metrics_one) == set(layers.metric_names())
