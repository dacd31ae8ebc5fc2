import pytest

from swapsim.ledgersim import (
    Chain,
    LockedOutput,
    OutputRef,
    Payout,
    SpendBranch,
    SpendInput,
    Transaction,
    conservation_holds,
    hash_secret,
)

SECRET = b"s" * 32
H = hash_secret(SECRET)


def _lock(tx_id="lock", amount=2.0, funder="A", claimant="B", timeout=48.0,
          refund_to="A") -> Transaction:
    return Transaction(tx_id, [], [LockedOutput(amount, (
        SpendBranch(claimant, frozenset({H})),
        SpendBranch(refund_to, not_before=timeout),
    ), funder=funder)])


def test_deterministic_confirmation_delay():
    c = Chain("a", confirm_delay=3.0)
    c.fund(_lock(), now=1.0)
    assert c.advance(3.9) == []
    events = c.advance(4.0)
    assert len(events) == 1 and events[0].kind == "confirmed"
    assert events[0].time == 4.0
    assert c.locked_value() == 2.0


def test_claim_with_preimage_reveals_it():
    c = Chain("a", 3.0)
    c.fund(_lock(), 0.0)
    c.advance(3.0)
    claim = Transaction("claim", [SpendInput(OutputRef("lock", 0), "B", {H: SECRET})],
                        [Payout("B", 2.0)])
    c.broadcast(claim, 3.0)
    (ev,) = c.advance(6.0)
    assert ev.revealed == (H,)
    assert c.balances["B"] == 2.0
    assert c.preimage_visible(H, observer_delay=1.0, now=6.5) is None
    assert c.preimage_visible(H, observer_delay=1.0, now=7.0) == SECRET


def test_wrong_claimant_and_early_timeout_rejected():
    c = Chain("a", 3.0)
    c.fund(_lock(), 0.0)
    c.advance(3.0)
    with pytest.raises(ValueError):
        c.broadcast(Transaction("steal", [SpendInput(OutputRef("lock", 0), "C", {H: SECRET})],
                                [Payout("C", 2.0)]), 3.0)
    with pytest.raises(ValueError):
        c.broadcast(Transaction("early", [SpendInput(OutputRef("lock", 0), "A")],
                                [Payout("A", 2.0)]), 3.0)
    # After the timeout the refund branch opens.
    c.advance(48.0)
    c.broadcast(Transaction("refund", [SpendInput(OutputRef("lock", 0), "A")],
                            [Payout("A", 2.0)]), 48.0)
    c.advance(51.0)
    assert c.balances["A"] == 2.0


def test_wrong_preimage_rejected():
    c = Chain("a", 3.0)
    c.fund(_lock(), 0.0)
    c.advance(3.0)
    with pytest.raises(ValueError):
        c.broadcast(Transaction("bad", [SpendInput(OutputRef("lock", 0), "B", {H: b"x" * 32})],
                                [Payout("B", 2.0)]), 3.0)


def test_double_spend_earlier_broadcast_wins():
    c = Chain("a", 3.0)
    c.fund(_lock(timeout=4.0, claimant="B"), 0.0)
    c.advance(3.0)
    c.broadcast(Transaction("claim", [SpendInput(OutputRef("lock", 0), "B", {H: SECRET})],
                            [Payout("B", 2.0)]), 3.5)
    c.advance(4.0)
    c.broadcast(Transaction("refund", [SpendInput(OutputRef("lock", 0), "A")],
                            [Payout("A", 2.0)]), 4.0)
    events = c.advance(10.0)
    kinds = {e.tx_id: e.kind for e in events}
    assert kinds == {"claim": "confirmed", "refund": "rejected"}
    assert c.balances.get("A", 0.0) == 0.0 and c.balances["B"] == 2.0


def test_double_spend_exact_tie_breaks_lexicographically():
    c = Chain("a", 3.0)
    c.fund(_lock(timeout=4.0), 0.0)
    c.advance(4.0)
    c.broadcast(Transaction("z-claim", [SpendInput(OutputRef("lock", 0), "B", {H: SECRET})],
                            [Payout("B", 2.0)]), 4.0)
    c.broadcast(Transaction("a-refund", [SpendInput(OutputRef("lock", 0), "A")],
                            [Payout("A", 2.0)]), 4.0)
    events = c.advance(7.0)
    kinds = {e.tx_id: e.kind for e in events}
    assert kinds == {"a-refund": "confirmed", "z-claim": "rejected"}


def test_duplicate_id_and_unknown_output_rejected():
    c = Chain("a", 3.0)
    c.fund(_lock(), 0.0)
    with pytest.raises(ValueError):
        c.fund(_lock(), 0.5)  # duplicate id
    with pytest.raises(ValueError):
        c.broadcast(Transaction("spend", [SpendInput(OutputRef("nope", 0), "B", {H: SECRET})],
                                [Payout("B", 1.0)]), 0.5)
    assert not c.try_broadcast(Transaction("spend2",
                                           [SpendInput(OutputRef("nope", 0), "B", {H: SECRET})],
                                           [Payout("B", 1.0)]), 0.5)


def test_conservation_through_relock_and_payout():
    c = Chain("a", 2.0)
    c.fund(_lock(amount=5.0), 0.0)
    c.advance(2.0)
    assert conservation_holds(c)
    # Spend into a new lock plus change: conserves value, no new funding.
    relock = Transaction("relock", [SpendInput(OutputRef("lock", 0), "B", {H: SECRET})], [
        LockedOutput(3.0, (SpendBranch("A", frozenset({H})),), funder="B"),
        Payout("B", 2.0),
    ])
    c.broadcast(relock, 2.0)
    c.advance(4.0)
    assert conservation_holds(c)
    assert sum(c.funded_total.values()) == 5.0
    assert c.locked_value() == 3.0
    assert c.balances == {"B": 2.0}


def test_branch_requires_condition():
    with pytest.raises(ValueError):
        SpendBranch("A")  # neither preimage nor timelock


def test_idle_advance_only_moves_clock():
    c = Chain("a", 3.0)
    c.fund(_lock(), 0.0)
    assert c.advance(2.0) == []
    assert c.clock == 2.0 and c.events == [] and len(c.mempool) == 1
    assert c.next_confirm_time() == 3.0
    with pytest.raises(ValueError):
        c.advance(1.0)
    assert c.advance(3.0)[0].kind == "confirmed"
    assert c.next_confirm_time() is None
    assert c.advance(10.0) == [] and c.clock == 10.0
    with pytest.raises(ValueError):
        c.advance(9.0)


def test_rejected_transaction_id_can_be_broadcast_again():
    c = Chain("a", 3.0)
    c.fund(_lock(timeout=4.0), 0.0)
    c.advance(4.0)
    c.broadcast(Transaction("claim", [SpendInput(OutputRef("lock", 0), "B", {H: SECRET})],
                            [Payout("B", 2.0)]), 4.0)
    c.broadcast(Transaction("refund", [SpendInput(OutputRef("lock", 0), "A")],
                            [Payout("A", 2.0)]), 4.5)
    events = c.advance(8.0)
    assert [(e.tx_id, e.kind) for e in events] == [("claim", "confirmed"), ("refund", "rejected")]
    # The loser's id is free again; it now spends a fresh output.
    c.fund(_lock(tx_id="lock-2", timeout=8.0), 8.0)
    c.advance(11.0)
    c.broadcast(Transaction("refund", [SpendInput(OutputRef("lock-2", 0), "A")],
                            [Payout("A", 2.0)]), 11.0)
    (ev,) = c.advance(14.0)
    assert (ev.tx_id, ev.kind) == ("refund", "confirmed")
    assert c.balances["A"] == 2.0


def test_pending_and_confirmed_ids_refused():
    c = Chain("a", 3.0)
    c.fund(_lock(), 0.0)
    c.fund(_lock(tx_id="lock-2"), 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        c.fund(_lock(tx_id="lock-2"), 1.5)  # pending
    c.advance(4.0)
    assert [t.id for t in c.confirmed] == ["lock", "lock-2"]
    with pytest.raises(ValueError, match="duplicate"):
        c.fund(_lock(), 4.0)  # confirmed
    assert not c.try_broadcast(_lock(tx_id="lock-2"), 4.0)
