"""Unit tests for queue disciplines."""

import random

import pytest

from repro.obs import EventBus
from repro.sim.packet import Packet
from repro.sim.queue import CoDelQueue, DropTailQueue, REDQueue


def pkt(flow=0, size=1500):
    return Packet.data(flow, 0, size)


def bus_for(queue):
    """Bind ``queue`` to a fresh bus; returns (enqueue, drop) event logs."""
    bus = EventBus()
    bus.bind_queue(queue)
    enqueued, dropped = [], []
    bus.subscribe("enqueue", lambda now, p: enqueued.append((now, p)))
    bus.subscribe("drop", lambda now, p: dropped.append((now, p)))
    return enqueued, dropped


class TestDropTail:
    def test_accepts_until_capacity(self):
        q = DropTailQueue(4500)
        assert q.offer(0.0, pkt()) and q.offer(0.0, pkt()) and q.offer(0.0, pkt())
        assert q.occupancy_bytes == 4500
        assert not q.offer(0.0, pkt())
        assert q.dropped_packets == 1
        assert q.enqueued_packets == 3

    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        packets = [Packet.data(0, seq) for seq in range(3)]
        for p in packets:
            q.offer(0.0, p)
        assert [q.poll().seq for _ in range(3)] == [0, 1, 2]

    def test_poll_empty_returns_none(self):
        q = DropTailQueue(1000)
        assert q.poll() is None

    def test_occupancy_tracks_poll(self):
        q = DropTailQueue(10_000)
        q.offer(0.0, pkt(size=1000))
        q.offer(0.0, pkt(size=500))
        assert q.occupancy_bytes == 1500
        q.poll()
        assert q.occupancy_bytes == 500

    def test_partial_fit_dropped(self):
        # 1000 bytes free but a 1500-byte packet must be dropped whole.
        q = DropTailQueue(2500)
        assert q.offer(0.0, pkt(size=1500))
        assert not q.offer(0.0, pkt(size=1500))
        assert q.offer(0.0, pkt(size=1000))

    def test_drop_listener_invoked_with_time_and_packet(self):
        q = DropTailQueue(1500)
        _, drops = bus_for(q)
        q.offer(1.0, pkt(flow=1))
        q.offer(2.0, pkt(flow=2))
        assert [(now, p.flow_id) for now, p in drops] == [(2.0, 2)]

    def test_enqueue_listener(self):
        q = DropTailQueue(10_000)
        seen, _ = bus_for(q)
        q.offer(0.0, pkt(flow=7))
        assert [p.flow_id for _, p in seen] == [7]

    def test_len_counts_packets(self):
        q = DropTailQueue(10_000)
        for _ in range(4):
            q.offer(0.0, pkt())
        assert len(q) == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestRed:
    def test_below_min_threshold_never_drops(self):
        q = REDQueue(100_000, min_thresh_bytes=50_000, max_thresh_bytes=80_000)
        for _ in range(10):
            assert q.offer(0.0, pkt())
        assert q.dropped_packets == 0

    def test_hard_limit_always_drops(self):
        q = REDQueue(3000, min_thresh_bytes=1000, max_thresh_bytes=2000)
        q.offer(0.0, pkt())
        q.offer(0.0, pkt())
        assert not q.offer(0.0, pkt(size=1500))  # would exceed capacity

    def test_probabilistic_drops_between_thresholds(self):
        q = REDQueue(
            1_000_000,
            min_thresh_bytes=10_000,
            max_thresh_bytes=50_000,
            max_p=0.5,
            weight=1.0,  # avg tracks instantaneous occupancy
            rng=random.Random(1),
        )
        dropped = 0
        for _ in range(200):
            if not q.offer(0.0, pkt()):
                dropped += 1
            else:
                q.poll() if q.occupancy_bytes > 30_000 else None
        assert dropped > 0, "RED should drop probabilistically above min threshold"

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            REDQueue(1000, min_thresh_bytes=800, max_thresh_bytes=700)
        with pytest.raises(ValueError):
            REDQueue(1000, max_p=0.0)


class TestSetCapacity:
    def test_grow_keeps_backlog(self):
        q = DropTailQueue(3000)
        assert q.offer(0.0, pkt()) and q.offer(0.0, pkt())
        q.set_capacity(6000)
        assert q.capacity_bytes == 6000
        assert len(q) == 2 and q.dropped_packets == 0
        assert q.offer(0.0, pkt()) and q.offer(0.0, pkt())

    def test_shrink_evicts_newest_first_with_accounting(self):
        q = DropTailQueue(6000)
        _, drops = bus_for(q)
        for seq in range(4):
            q.offer(0.0, Packet.data(0, seq, 1500))
        q.set_capacity(3000, now=2.5)
        assert q.occupancy_bytes == 3000
        assert q.dropped_packets == 2
        # tail (newest) evicted first
        assert [(now, p.seq) for now, p in drops] == [(2.5, 3), (2.5, 2)]
        # survivors keep FIFO order
        assert [q.poll().seq, q.poll().seq] == [0, 1]

    def test_shrink_validation(self):
        q = DropTailQueue(3000)
        with pytest.raises(ValueError):
            q.set_capacity(0)

    def test_red_rescales_thresholds(self):
        q = REDQueue(100_000, rng=random.Random(1))
        min0, max0 = q.min_thresh, q.max_thresh
        q.set_capacity(50_000)
        assert q.min_thresh == min0 // 2
        assert q.max_thresh == max0 // 2
        assert 0 < q.min_thresh < q.max_thresh <= q.capacity_bytes
        q.set_capacity(100_000)
        assert 0 < q.min_thresh < q.max_thresh <= q.capacity_bytes


def fill(queue, when, flow, n):
    for _ in range(n):
        queue.offer(when, Packet.data(flow, 0))


class TestCounters:
    """The queue is the drop log: per-flow arrivals and drops from a cut."""

    def test_counts_and_attribution(self):
        q = DropTailQueue(3000)  # 2 packets
        fill(q, 1.0, flow=1, n=2)
        fill(q, 1.0, flow=2, n=2)  # both dropped
        assert dict(q.arrivals_by_flow) == {1: 2}
        assert dict(q.drops_by_flow) == {2: 2}

    def test_loss_rates(self):
        from repro.core.results import FlowResult

        q = DropTailQueue(3000)
        fill(q, 1.0, flow=1, n=2)
        fill(q, 1.0, flow=2, n=2)

        def flow_result(fid):
            return FlowResult(
                flow_id=fid, cca="newreno", base_rtt=0.02, measured_rtt=None,
                goodput_bps=0.0, delivered_packets=0, packets_sent=0,
                retransmits=0, halvings=0, rtos=0,
                queue_drops=q.drops_by_flow.get(fid, 0),
                queue_arrivals=q.arrivals_by_flow.get(fid, 0),
            )

        assert flow_result(1).loss_rate == 0.0
        assert flow_result(2).loss_rate == 1.0
        offered = sum(q.arrivals_by_flow.values()) + sum(q.drops_by_flow.values())
        assert sum(q.drops_by_flow.values()) / offered == pytest.approx(0.5)

    def test_empty_loss_rate_zero(self):
        from repro.core.results import FlowResult

        q = DropTailQueue(1500)
        assert not q.arrivals_by_flow and not q.drops_by_flow
        result = FlowResult(
            flow_id=99, cca="newreno", base_rtt=0.02, measured_rtt=None,
            goodput_bps=0.0, delivered_packets=0, packets_sent=0,
            retransmits=0, halvings=0, rtos=0,
            queue_drops=q.drops_by_flow.get(99, 0),
            queue_arrivals=q.arrivals_by_flow.get(99, 0),
        )
        assert result.loss_rate == 0.0

    def test_drop_times_recorded(self):
        q = DropTailQueue(1500)
        q.offer(1.0, Packet.data(0, 0))
        q.offer(2.5, Packet.data(0, 1))
        q.offer(3.5, Packet.data(0, 2))
        assert q.drop_times == [2.5, 3.5]

    def test_drop_times_disabled(self):
        q = DropTailQueue(1500)
        q.record_drop_times = False
        q.offer(1.0, Packet.data(0, 0))
        q.offer(2.0, Packet.data(0, 1))
        assert q.drop_times == []
        assert q.drops_by_flow[0] == 1

    def test_warmup_cut(self):
        q = DropTailQueue(1500)
        q.count_from = 5.0
        q.offer(1.0, Packet.data(0, 0))   # before cut: not attributed
        q.offer(2.0, Packet.data(0, 1))   # drop before cut: not attributed
        q.poll()
        q.offer(6.0, Packet.data(0, 2))   # after cut
        q.offer(6.0, Packet.data(0, 3))   # drop after cut
        assert dict(q.arrivals_by_flow) == {0: 1}
        assert dict(q.drops_by_flow) == {0: 1}
        assert q.drop_times == [6.0]
        # the lifetime totals still see everything
        assert q.enqueued_packets == 2 and q.dropped_packets == 2

    def test_two_subscribers_coexist_with_counters(self):
        # A second bus subscriber must not displace the first, and neither
        # may disturb the queue's own counters.
        q = DropTailQueue(3000)
        bus = EventBus()
        first, second = [], []
        bus.subscribe("drop", lambda now, p: first.append(now))
        bus.subscribe("drop", lambda now, p: second.append(now))
        bus.bind_queue(q)
        fill(q, 1.0, flow=1, n=3)
        assert first == second == [1.0]
        assert dict(q.arrivals_by_flow) == {1: 2}
        assert dict(q.drops_by_flow) == {1: 1}

    def test_event_exactly_at_cut_is_counted(self):
        q = DropTailQueue(1500)
        q.count_from = 5.0
        fill(q, 5.0, flow=3, n=2)
        assert dict(q.arrivals_by_flow) == {3: 1}
        assert dict(q.drops_by_flow) == {3: 1}
        assert q.drop_times == [5.0]


def _drive_droptail(q):
    for seq in range(6):
        q.offer(0.5 * seq, Packet.data(seq % 3, seq))


def _drive_red(q):
    for seq in range(200):
        if q.offer(0.01 * seq, Packet.data(seq % 4, seq)) and q.occupancy_bytes > 30_000:
            q.poll(0.01 * seq)


def _drive_codel(q):
    for seq in range(60):
        q.offer(0.0, Packet.data(seq % 3, seq))
    t = 0.5
    for _ in range(40):
        q.poll(t)
        t += 0.05


def _drive_shrink(q):
    for seq in range(8):
        q.offer(0.0, Packet.data(seq % 2, seq))
    q.set_capacity(4500, now=1.0)


@pytest.mark.parametrize(
    "make_queue, drive",
    [
        (lambda: DropTailQueue(4500), _drive_droptail),
        (
            lambda: REDQueue(
                1_000_000, min_thresh_bytes=10_000, max_thresh_bytes=50_000,
                max_p=0.5, weight=1.0, rng=random.Random(1),
            ),
            _drive_red,
        ),
        (lambda: CoDelQueue(1_000_000), _drive_codel),
        (lambda: DropTailQueue(12_000), _drive_shrink),
    ],
    ids=["droptail", "red", "codel", "set_capacity"],
)
def test_counters_match_bus_subscriber(make_queue, drive):
    """Every drop path updates the counters exactly as the bus reports it."""
    q = make_queue()
    enqueued, dropped = bus_for(q)
    drive(q)
    assert dropped, "each scenario must exercise its discipline's drop path"

    def per_flow(events):
        counts = {}
        for _, p in events:
            counts[p.flow_id] = counts.get(p.flow_id, 0) + 1
        return counts

    assert dict(q.arrivals_by_flow) == per_flow(enqueued)
    assert dict(q.drops_by_flow) == per_flow(dropped)
    assert q.drop_times == [now for now, _ in dropped]
    assert q.enqueued_packets == len(enqueued)
    assert q.dropped_packets == len(dropped)
