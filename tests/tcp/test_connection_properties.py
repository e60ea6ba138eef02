"""Property-based end-to-end TCP invariants.

Hypothesis drives random loss patterns through a finite transfer and
checks the invariants any correct reliable transport must satisfy:
eventual completion, exact delivery, conserved scoreboard counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.tcp.cca.cubic import Cubic
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe

TRANSFER = 80

drop_sets = st.sets(st.integers(0, TRANSFER + 20), max_size=12)


@given(drop_sets)
@settings(max_examples=40, deadline=None)
def test_transfer_completes_under_any_loss_pattern(drops):
    sim = Simulator()
    sender, receiver, _ = make_pipe(
        sim,
        NewReno(),
        total_packets=TRANSFER,
        drop_indices=drops,
    )
    sender.start()
    sim.run(until=120.0)
    assert sender.completed, f"stalled with drops={sorted(drops)}"
    assert receiver.rcv_nxt == TRANSFER
    assert sender.snd_una == TRANSFER
    # Scoreboard fully drained.
    assert sender.in_flight == 0
    assert sender.sacked_out == 0
    assert sender.lost_out == 0
    assert sender.retrans_out == 0
    # Work conservation: transmissions = unique packets + retransmits.
    assert sender.stats.packets_sent == TRANSFER + sender.stats.retransmits
    # Retransmissions are necessary only for actual drops (each drop
    # costs at least one retransmission, possibly more if the
    # retransmission itself was dropped).
    effective_drops = len([d for d in drops if d < sender.stats.packets_sent])
    assert sender.stats.retransmits >= min(1, effective_drops) * bool(effective_drops)


@given(drop_sets)
@settings(max_examples=25, deadline=None)
def test_cubic_transfer_completes_too(drops):
    sim = Simulator()
    sender, receiver, _ = make_pipe(
        sim, Cubic(), total_packets=TRANSFER, drop_indices=drops
    )
    sender.start()
    sim.run(until=120.0)
    assert sender.completed
    assert receiver.rcv_nxt == TRANSFER


@given(st.integers(1, 60), st.integers(0, 59))
@settings(max_examples=30, deadline=None)
def test_single_drop_anywhere_recovers(size, drop_at):
    sim = Simulator()
    sender, receiver, _ = make_pipe(
        sim, NewReno(), total_packets=size, drop_indices={drop_at}
    )
    sender.start()
    sim.run(until=60.0)
    assert sender.completed
    assert receiver.rcv_nxt == size
    if drop_at < size:
        assert sender.stats.retransmits >= 1
