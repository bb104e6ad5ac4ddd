"""Tests for the controller request queues."""

import pytest

from repro.memory.queues import EAGER, READ, WRITE, Request, RequestQueue


def make_request(bank=0, kind=WRITE, block=None):
    if block is None:
        block = bank
    return Request(kind=kind, block=block, bank=bank, rank=0,
                   row=0, arrival_ns=0.0)


def test_push_and_pop_fifo_per_bank():
    q = RequestQueue(8, "write")
    first = make_request(bank=1)
    second = make_request(bank=1)
    q.push(first, 0.0)
    q.push(second, 0.0)
    assert q.pop_bank(1, 0.0) is first
    assert q.pop_bank(1, 0.0) is second


def test_per_bank_isolation():
    q = RequestQueue(8, "write")
    a = make_request(bank=0)
    b = make_request(bank=3)
    q.push(a, 0.0)
    q.push(b, 0.0)
    assert q.count_bank(0) == 1
    assert q.count_bank(3) == 1
    assert q.count_bank(1) == 0
    assert q.pop_bank(3, 0.0) is b


def test_capacity_enforced():
    q = RequestQueue(2, "write")
    q.push(make_request(), 0.0)
    q.push(make_request(), 0.0)
    assert q.full
    with pytest.raises(OverflowError):
        q.push(make_request(), 0.0)


def test_push_front_returns_cancelled_request_to_head():
    q = RequestQueue(4, "write")
    first = make_request(bank=2)
    second = make_request(bank=2)
    q.push(first, 0.0)
    q.push(second, 0.0)
    victim = q.pop_bank(2, 0.0)
    q.push_front(victim)
    assert q.pop_bank(2, 0.0) is victim


def test_peek_does_not_remove():
    q = RequestQueue(4, "read")
    r = make_request(bank=0, kind=READ)
    q.push(r, 0.0)
    assert q.peek_bank(0) is r
    assert len(q) == 1


def test_pop_empty_bank_returns_none():
    q = RequestQueue(4, "read")
    assert q.pop_bank(0, 0.0) is None


def test_pop_row_first_on_empty_bank_raises():
    q = RequestQueue(4, "read")
    with pytest.raises(LookupError):
        q.pop_bank_row_first(0, open_row=None)


def test_banks_with_requests():
    q = RequestQueue(8, "eager")
    q.push(make_request(bank=5, kind=EAGER), 0.0)
    q.push(make_request(bank=7, kind=EAGER), 0.0)
    q.pop_bank(5, 0.0)
    assert q.banks_with_requests() == [7]


def test_len_tracks_all_banks():
    q = RequestQueue(8, "write")
    for bank in range(4):
        q.push(make_request(bank=bank), 0.0)
    assert len(q) == 4
    q.pop_bank(2, 0.0)
    assert len(q) == 3


def test_request_is_write_flag():
    assert make_request(kind=WRITE).is_write
    assert make_request(kind=EAGER).is_write
    assert not make_request(kind=READ).is_write


def test_request_ids_unique():
    a, b = make_request(), make_request()
    assert a.req_id != b.req_id


def test_invalid_capacity():
    with pytest.raises(ValueError):
        RequestQueue(0, "bad")


class TestQueueDepthTracking:
    def test_average_depth_time_weighted(self):
        clock = {"now": 0.0}
        q = RequestQueue(8, "write", clock=lambda: clock["now"])
        q.push(make_request(bank=0), 0.0)     # depth 1 from t=0
        clock["now"] = 10.0
        q.push(make_request(bank=0), 10.0)    # depth 2 from t=10
        clock["now"] = 20.0
        q.pop_bank(0, 20.0)                    # depth 1 from t=20
        clock["now"] = 40.0
        # Integral: 1*10 + 2*10 + 1*20 = 50 over a 40 ns window.
        assert q.average_depth(40.0) == pytest.approx(1.25)

    def test_average_depth_without_clock_is_zero(self):
        q = RequestQueue(8, "write")
        q.push(make_request(), 0.0)
        assert q.average_depth(100.0) == 0.0

    def test_reset_depth_statistics(self):
        clock = {"now": 0.0}
        q = RequestQueue(8, "write", clock=lambda: clock["now"])
        q.push(make_request(), 0.0)
        clock["now"] = 10.0
        q.reset_depth_statistics()
        clock["now"] = 20.0
        assert q.average_depth(10.0) == pytest.approx(1.0)

    def test_zero_window(self):
        q = RequestQueue(8, "write", clock=lambda: 0.0)
        assert q.average_depth(0.0) == 0.0
