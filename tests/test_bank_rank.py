"""Tests for per-bank state in the controller and the rank tFAW limiter."""

import pytest

from repro.core.policies import parse_policy
from repro.endurance.wear import WearTracker
from repro.memory.address import AddressMap
from repro.memory.bank import Bank
from repro.memory.controller import MemoryController
from repro.memory.rank import RankFawLimiter
from repro.sim.events import EventQueue

AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)


def make_controller(policy="Norm"):
    events = EventQueue()
    ctrl = MemoryController(
        events=events, policy=parse_policy(policy), address_map=AMAP,
        wear=WearTracker(AMAP.num_banks, AMAP.blocks_per_bank),
    )
    return events, ctrl


class TestBank:
    """Bank scheduling state lives in the controller's per-bank lists;
    the Bank object keeps the lifetime counters."""

    def test_initially_idle_no_open_row(self):
        bank = Bank(0)
        assert (bank.busy_time_ns, bank.ops_begun, bank.ops_cancelled,
                bank.lines_retired) == (0.0, 0, 0, 0)
        _events, ctrl = make_controller()
        assert ctrl._bank_busy_until == [0.0] * AMAP.num_banks
        assert ctrl._bank_open_row == [None] * AMAP.num_banks
        assert ctrl._bank_in_flight == [None] * AMAP.num_banks

    def test_begin_makes_busy_until_finish(self):
        events, ctrl = make_controller()
        ctrl.submit_write(AMAP.encode(0, 32))
        op = ctrl._bank_in_flight[0]
        assert op is not None
        assert ctrl._bank_busy_until[0] == op.finish_ns   # simlint: ignore[SIM004] -- the same float, stored twice
        busy = op.finish_ns - op.start_ns
        assert ctrl.banks[0].busy_time_ns == pytest.approx(busy)   # simlint: ignore[SIM004] -- pytest.approx carries the tolerance
        assert ctrl.banks[0].ops_begun == 1
        events.run_all()
        assert events.now >= ctrl._bank_busy_until[0]

    def test_row_hit_tracking(self):
        events, ctrl = make_controller()
        row_of = AMAP.decode(AMAP.encode(0, 0))[2]
        ctrl.submit_read(AMAP.encode(0, 0))
        events.run_all()
        assert ctrl._bank_open_row[0] == row_of
        ctrl.submit_read(AMAP.encode(0, 1))       # same row: a hit
        events.run_all()
        assert (ctrl.stats.read_row_misses, ctrl.stats.read_row_hits) == (1, 1)

    def test_cancel_frees_bank_and_trims_busy_time(self):
        events, ctrl = make_controller("Slow+SC")
        ctrl.submit_write(AMAP.encode(0, 32))
        events.run_until(100)                      # write in flight
        write = ctrl._bank_in_flight[0]
        assert write is not None and write.cancellable
        ctrl.submit_read(AMAP.encode(0, 0))        # cancels the write
        assert ctrl.banks[0].ops_cancelled == 1
        assert ctrl._bank_in_flight[0] is None
        # Busy time is trimmed back to the 100 ns actually spent.
        assert ctrl.banks[0].busy_time_ns == pytest.approx(100)   # simlint: ignore[SIM004] -- pytest.approx carries the tolerance

    def test_complete_clears_in_flight(self):
        events, ctrl = make_controller()
        ctrl.submit_write(AMAP.encode(0, 32))
        assert ctrl._bank_in_flight[0] is not None
        events.run_all()
        assert ctrl._bank_in_flight[0] is None


class TestRankFawLimiter:
    def test_allows_up_to_four_activates(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 1, 2, 3):
            assert limiter.earliest_activate(t) == t
            limiter.record_activate(t)

    def test_fifth_activate_delayed_to_window_edge(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 10, 20, 30):
            limiter.record_activate(t)
        # Oldest activate (t=0) leaves the window at t=50.
        assert limiter.earliest_activate(35) == 50

    def test_window_slides(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 10, 20, 30):
            limiter.record_activate(t)
        assert limiter.earliest_activate(60) == 60

    def test_violation_raises(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=2)
        limiter.record_activate(0)
        limiter.record_activate(1)
        with pytest.raises(RuntimeError):
            limiter.record_activate(2)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RankFawLimiter(t_faw_ns=0)
        with pytest.raises(ValueError):
            RankFawLimiter(max_activates=0)
