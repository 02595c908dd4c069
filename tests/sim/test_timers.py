"""Unit tests for PeriodicTimer and VariableTimer."""

from repro.runtime.timers import PeriodicTimer, VariableTimer


class TestPeriodicTimer:
    def test_fires_every_period(self, sim):
        fired = []
        timer = PeriodicTimer(sim, lambda: 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_initial_delay_overrides_first_period(self, sim):
        fired = []
        timer = PeriodicTimer(
            sim, lambda: 1.0, lambda: fired.append(sim.now), initial_delay=0.25
        )
        timer.start()
        sim.run_until(2.5)
        assert fired == [0.25, 1.25, 2.25]

    def test_stop_halts_firing(self, sim):
        fired = []
        timer = PeriodicTimer(sim, lambda: 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(2.0)
        timer.stop()
        sim.run_until(10.0)
        assert fired == [1.0, 2.0]
        assert not timer.running

    def test_variable_period_consulted_each_round(self, sim):
        fired = []
        periods = iter([1.0, 2.0, 4.0, 100.0])
        timer = PeriodicTimer(sim, lambda: next(periods), lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(8.0)
        assert fired == [1.0, 3.0, 7.0]

    def test_callback_may_stop_timer(self, sim):
        fired = []
        timer = PeriodicTimer(sim, lambda: 1.0, lambda: (fired.append(sim.now), timer.stop()))
        timer.start()
        sim.run_until(5.0)
        assert fired == [1.0]

    def test_restart_rearms(self, sim):
        fired = []
        timer = PeriodicTimer(sim, lambda: 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(1.5)
        timer.stop()
        timer.start()
        sim.run_until(3.0)
        assert fired == [1.0, 2.5]


class TestVariableTimer:
    def test_fires_at_deadline(self, sim):
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        timer.set_deadline(2.0)
        sim.run_until(5.0)
        assert fired == [2.0]
        assert not timer.armed

    def test_extension_defers_firing(self, sim):
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        timer.set_deadline(2.0)
        sim.run_until(1.0)
        timer.extend_to(4.0)
        sim.run_until(10.0)
        assert fired == [4.0]

    def test_extend_to_earlier_is_ignored(self, sim):
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        timer.set_deadline(3.0)
        timer.extend_to(2.0)
        sim.run_until(5.0)
        assert fired == [3.0]

    def test_set_deadline_earlier_moves_forward(self, sim):
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        timer.set_deadline(3.0)
        timer.set_deadline(1.0)
        sim.run_until(5.0)
        assert fired == [1.0]

    def test_clear_disarms(self, sim):
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        timer.set_deadline(2.0)
        timer.clear()
        sim.run_until(5.0)
        assert fired == []
        assert timer.deadline is None

    def test_rearm_after_fire(self, sim):
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        timer.set_deadline(1.0)
        sim.run_until(2.0)
        timer.set_deadline(3.0)
        sim.run_until(5.0)
        assert fired == [1.0, 3.0]

    def test_many_extensions_single_firing(self, sim):
        """The lazy-deadline pattern: heartbeat-like extension stream."""
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        for i in range(100):
            sim.schedule(i * 0.1, lambda i=i: timer.extend_to(i * 0.1 + 1.0))
        sim.run_until(20.0)
        assert fired == [9.9 + 1.0]
