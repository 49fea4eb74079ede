"""Trial lifetime: a finished simulation is freed by reference counting, and
run_simulation pauses the cyclic collector only for the trial."""

import gc
import weakref

import pytest

from conftest import small_transform
from coinforge.config import parse_strategy_spec
from coinforge.simnet import AdversaryAction, RngStream, Simulation, StrategyViolation, mix64, run_simulation
from coinforge.strategies import RandomDelayStrategy, Strategy, build_strategy
from test_hotpath import _scenarios as _golden_scenarios


class ViewKeeper(Strategy):
    """Keeps the view it is handed, as a plugin may."""

    reactive = True

    def next_action(self, view):
        self.view = view
        self.reactive = False
        return None


def _scenarios():
    """The golden hot-path scenarios (built-ins, ScriptedByzantine, PublishCorrupter) plus a view keeper."""
    return {**_golden_scenarios(), "view_keeper": (small_transform()[-1], ViewKeeper, {})}


@pytest.fixture
def collector_paused():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_finished_simulation_is_freed_by_reference_counting(name, collector_paused):
    protocol, make_strategy, kw = _scenarios()[name]
    strategy = make_strategy()  # held past the run, as a caller may
    gc.collect()
    sim = Simulation(protocol, strategy, mix64(1, 1000), log=[], **kw)
    rep = sim.run()
    assert rep.events > 0
    ref = weakref.ref(sim)
    del sim
    assert ref() is None
    assert gc.collect() == 0


@pytest.mark.parametrize("spec,kw", [
    ("random_delay", {}),
    ("committee_targeter:0,2+publish_delayer:1.0", {"t_budget": 4}),
    ("fifo", {}),  # its strategy and setup_trial streams are never drawn from
])
def test_run_simulation_trial_leaves_no_cyclic_garbage(spec, kw, collector_paused):
    transform = small_transform()[-1]
    gc.collect()
    for seed in range(3):
        run_simulation(transform, build_strategy(parse_strategy_spec(spec)), mix64(seed, 1000), **kw)
    assert gc.collect() == 0


def test_a_drawn_stream_is_freed_by_reference_counting(collector_paused):
    gc.collect()
    stream = RngStream(3)
    stream.random(), stream.getrandbits(5), stream.randrange(1, 9)
    ref = weakref.ref(stream)
    del stream
    assert ref() is None
    assert gc.collect() == 0


def test_view_is_detached_after_run():
    strategy = ViewKeeper()
    sim = Simulation(small_transform()[-1], strategy, mix64(1, 1000))
    assert strategy.__dict__.get("view") is None and sim.view.now == 0.0
    sim.run()
    assert strategy.view is sim.view
    with pytest.raises(AttributeError):
        strategy.view.now


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_an_unrun_simulation_is_freed_by_reference_counting(name, collector_paused):
    # the view holds the simulation weakly, so no cycle runs through it before run()
    protocol, make_strategy, kw = _scenarios()[name]
    strategy = make_strategy()
    gc.collect()
    sim = Simulation(protocol, strategy, mix64(1, 1000), **kw)
    assert sim.view.now == 0.0
    ref = weakref.ref(sim)
    del sim
    assert ref() is None
    assert gc.collect() == 0


# --- run_simulation restores the caller's collector state ----------------------


class OverBudget(Strategy):
    reactive = True

    def next_action(self, view):
        return AdversaryAction.corrupt(0)


class CollectorProbe(RandomDelayStrategy):
    """Stays reactive, so it is polled after every event; records whether the collector is on."""

    reactive = True

    def __init__(self):
        super().__init__()
        self.seen = []

    def next_action(self, view):
        self.seen.append(gc.isenabled())
        return None


@pytest.mark.parametrize("enabled", [True, False])
def test_run_simulation_restores_collector_state(enabled):
    transform = small_transform()[-1]
    was_enabled = gc.isenabled()
    probe = CollectorProbe()
    try:
        (gc.enable if enabled else gc.disable)()
        rep = run_simulation(transform, probe, mix64(1, 1000))
        assert gc.isenabled() is enabled
        # polled once before the first event and after every event, paused at each
        assert len(probe.seen) == rep.events + 1 and not any(probe.seen)
        with pytest.raises(StrategyViolation):
            run_simulation(transform, OverBudget(), mix64(1, 1000), t_budget=0)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
