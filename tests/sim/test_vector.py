"""Tests for the vectorized deadline kernel (repro.sim.vector).

Two layers:

* kernel-level Hypothesis properties — arbitrary interleavings of
  set/extend/clear operations over many timers must fire the same timers
  at the same virtual times whether they run on :class:`PoolTimer` slots
  or private :class:`VariableTimer` heap entries;
* system-level bit-exactness — a full ``build_system`` simulation must
  produce an identical trace digest (and identical trace event stream)
  pooled and with :func:`force_scalar`, across algorithms, churn and
  seeds.  This is the property the bench digests pin for the five core
  cells; here Hypothesis varies the configuration.
"""

from contextlib import nullcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.timers import VariableTimer
from repro.sim.engine import Simulator
from repro.sim.vector import (
    DeadlinePool,
    PoolTimer,
    SlotOrderedTimer,
    deadline_timer,
    force_scalar,
)


class TestDeadlinePoolBasics:
    def test_slot_fires_at_exact_deadline(self):
        sim = Simulator()
        pool = DeadlinePool(sim)
        fired = []
        slot = pool.register(lambda: fired.append(sim.now))
        pool.set_deadline(slot, 2.5)
        sim.run()
        assert fired == [2.5]

    def test_extend_defers_firing(self):
        sim = Simulator()
        pool = DeadlinePool(sim)
        fired = []
        slot = pool.register(lambda: fired.append(sim.now))
        pool.set_deadline(slot, 1.0)
        sim.schedule(0.5, lambda: pool.extend_to(slot, 3.0))
        sim.run()
        assert fired == [3.0]

    def test_extend_never_moves_earlier(self):
        sim = Simulator()
        pool = DeadlinePool(sim)
        slot = pool.register(lambda: None)
        pool.set_deadline(slot, 5.0)
        pool.extend_to(slot, 1.0)
        assert pool.deadline_of(slot) == 5.0

    def test_set_deadline_moves_in_either_direction(self):
        sim = Simulator()
        pool = DeadlinePool(sim)
        fired = []
        slot = pool.register(lambda: fired.append(sim.now))
        pool.set_deadline(slot, 5.0)
        pool.set_deadline(slot, 1.0)
        sim.run()
        assert fired == [1.0]

    def test_cleared_slot_never_fires(self):
        sim = Simulator()
        pool = DeadlinePool(sim)
        fired = []
        slot = pool.register(lambda: fired.append(sim.now))
        pool.set_deadline(slot, 1.0)
        pool.clear(slot)
        sim.run()
        assert fired == []

    def test_released_slot_is_recycled(self):
        sim = Simulator()
        pool = DeadlinePool(sim)
        slot = pool.register(lambda: None)
        pool.release(slot)
        assert pool.register(lambda: None) == slot

    def test_pool_grows_past_initial_capacity(self):
        sim = Simulator()
        pool = DeadlinePool(sim)
        fired = []
        for i in range(200):  # > 64 initial slots, crosses _NUMPY_MIN_SLOTS
            slot = pool.register(lambda i=i: fired.append(i))
            pool.set_deadline(slot, 1.0 + i)
        sim.run()
        assert fired == list(range(200))

    def test_callback_rearming_inside_fire_is_honoured(self):
        """A fired callback immediately re-arming its own slot (the FD
        monitor's suspect->refute->re-arm shape) must fire again."""
        sim = Simulator()
        pool = DeadlinePool(sim)
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                pool.set_deadline(slot, sim.now + 1.0)

        slot = pool.register(on_fire)
        pool.set_deadline(slot, 1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_deadline_timer_pools_only_on_plain_simulator(self):
        sim = Simulator()
        assert isinstance(deadline_timer(sim, lambda: None), PoolTimer)
        with force_scalar():
            assert isinstance(deadline_timer(sim, lambda: None), VariableTimer)

    def test_scalar_timers_fire_one_instant_in_slot_order(self):
        """A tie fires in slot order on both paths, not in arming order."""
        for scalar in (False, True):
            sim = Simulator()
            fired = []
            with force_scalar() if scalar else nullcontext():
                first, second = (
                    deadline_timer(sim, (lambda i=i: fired.append(i)))
                    for i in range(2)
                )
            assert isinstance(first, SlotOrderedTimer) == scalar
            second.set_deadline(1.0)
            first.set_deadline(1.0)
            sim.run()
            assert fired == [0, 1]

    def test_moving_a_pending_expiry_withdraws_it(self):
        sim = Simulator()
        fired = []
        with force_scalar():
            timer = deadline_timer(sim, lambda: fired.append(sim.now))
        timer.set_deadline(1.0)
        # Runs at 1.0 after the timer's heap entry handed its slot to the
        # pool and before the pool fires it: the move must withdraw that
        # pending expiry, so the timer fires once, at its new deadline.
        sim.schedule_at(1.0, lambda: timer.extend_to(2.0))
        sim.run()
        assert fired == [2.0]

    def test_closed_scalar_timer_is_inert(self):
        sim = Simulator()
        with force_scalar():
            timer = deadline_timer(sim, lambda: None)
        timer.set_deadline(1.0)
        timer.close()
        timer.set_deadline(2.0)
        assert timer.deadline is None
        sim.run()

    def test_closed_pool_timer_is_inert(self):
        sim = Simulator()
        timer = deadline_timer(sim, lambda: None)
        timer.set_deadline(1.0)
        timer.close()
        timer.set_deadline(2.0)  # must not resurrect the released slot
        assert timer.deadline is None
        sim.run()


#: One scripted operation: (timer index, op, virtual time, deadline offset).
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.sampled_from(["set", "extend", "clear"]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=32),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False, width=32),
    ),
    max_size=60,
)


def _run_script(ops, scalar: bool):
    """Apply one op script to 8 timers; return the (time, index) fire log."""
    sim = Simulator()
    fired = []

    def build():
        return [
            deadline_timer(sim, (lambda i=i: fired.append((sim.now, i))))
            for i in range(8)
        ]

    if scalar:
        with force_scalar():
            timers = build()
    else:
        timers = build()

    def apply(index, op, offset):
        timer = timers[index]
        if op == "set":
            timer.set_deadline(sim.now + offset)
        elif op == "extend":
            timer.extend_to(sim.now + offset)
        else:
            timer.clear()

    for index, op, at, offset in ops:
        sim.schedule(at, lambda i=index, o=op, d=offset: apply(i, o, d))
    sim.run()
    return fired


class TestPooledScalarEquivalence:
    @given(_ops)
    @settings(max_examples=150, deadline=None)
    def test_same_timers_fire_at_same_times(self, ops):
        """Pooled and scalar paths agree on *which* timer fires *when* under
        arbitrary interleavings.  (Order within one instant is unspecified
        by both implementations, hence the sort.)"""
        pooled = sorted(_run_script(ops, scalar=False))
        scalar = sorted(_run_script(ops, scalar=True))
        assert pooled == scalar


class TestSystemBitExactness:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=3, max_value=5),
        st.booleans(),
        st.sampled_from(["omega_lc", "omega_id"]),
    )
    # Both survivors of node 0's crash time it out at the same instant
    # (their deadlines come off one frame): the tie must fire in slot order.
    @example(seed=16777215, n_nodes=3, churn=True, algorithm="omega_id")
    @settings(max_examples=8, deadline=None)
    def test_full_simulation_digest_is_bit_identical(
        self, seed, n_nodes, churn, algorithm
    ):
        """The tentpole contract: the batch engine changes *nothing* about
        simulated behaviour — same trace digest, same trace length."""
        from repro.experiments.runner import build_system
        from repro.experiments.scenario import ExperimentConfig

        config = ExperimentConfig(
            name="vector-prop",
            algorithm=algorithm,
            n_nodes=n_nodes,
            duration=8.0,
            warmup=2.0,
            seed=seed,
            node_churn=churn,
        )
        pooled = build_system(config)
        pooled.sim.run_until(config.duration)
        with force_scalar():
            scalar = build_system(config)
            scalar.sim.run_until(config.duration)
        assert pooled.trace.digest() == scalar.trace.digest()
        assert len(pooled.trace.events) == len(scalar.trace.events)
        # The pool exists precisely to execute fewer engine events.
        assert pooled.sim.events_executed <= scalar.sim.events_executed
