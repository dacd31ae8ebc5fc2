"""Minimal multi-chain ledger model for hashlock/timelock contracts.

Each chain is an independent ledger with a deterministic confirmation delay:
a transaction broadcast at ``now`` confirms exactly at ``now + confirm_delay``.
Outputs carry an ordered list of spend branches — (claimant, any-of preimage
set, absolute timelock) — and whichever satisfiable spend confirms first wins.
Preimages used by a confirmed spend become globally observable at that
confirmation time (observers add their own propagation delay on top).

No forks, fees markets, or script languages: just enough mechanism to execute
and audit the swap protocols.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

__all__ = [
    "SpendBranch",
    "LockedOutput",
    "OutputRef",
    "SpendInput",
    "Payout",
    "Transaction",
    "Chain",
    "ConfirmationEvent",
    "hash_secret",
    "conservation_holds",
]


@functools.lru_cache(maxsize=1024)
def hash_secret(secret: bytes) -> str:
    """Collision-resistant digest used for every hashlock in a run.

    Memoised: a run hashes the same few secrets at every spend check."""
    return hashlib.sha256(secret).hexdigest()


@dataclass(frozen=True)
class SpendBranch:
    """One way to spend an output.

    ``required_preimages`` is an any-of set of hash ids: revealing a preimage
    of any listed hash satisfies the branch.  ``not_before`` is an absolute
    hour (0 means no timelock).  At least one condition must be present.
    """

    claimant: str
    required_preimages: frozenset[str] = frozenset()
    not_before: float = 0.0

    def __post_init__(self) -> None:
        if not self.required_preimages and self.not_before <= 0.0:
            raise ValueError("branch needs a preimage set or a timelock")

    def satisfied_by(self, claimant: str, preimages: Mapping[str, bytes], now: float) -> bool:
        if claimant != self.claimant or now < self.not_before:
            return False
        if not self.required_preimages:
            return True
        for h in self.required_preimages:
            pre = preimages.get(h)
            if pre is not None and hash_secret(pre) == h:
                return True
        return False


class OutputRef(NamedTuple):
    """An output of a transaction; a tuple, so hashing it is cheap."""

    tx_id: str
    index: int


@dataclass(frozen=True)
class LockedOutput:
    """Contract output: an amount spendable via any of its branches."""

    amount: float
    branches: tuple[SpendBranch, ...]
    funder: str

    def __post_init__(self) -> None:
        if not self.amount > 0:
            raise ValueError("output amount must be > 0")
        if not self.branches:
            raise ValueError("output needs at least one spend branch")


@dataclass(frozen=True)
class Payout:
    """Plain transfer to a party (no further spend conditions)."""

    party: str
    amount: float

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError("payout amount must be >= 0")


@dataclass(frozen=True)
class SpendInput:
    """A claim on ``ref`` by ``claimant`` with the preimages it reveals.

    The preimages are kept in a read-only copy, so one input can go into any
    number of transactions without carrying state from one to the next."""

    ref: OutputRef
    claimant: str
    preimages: Mapping[str, bytes] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "preimages", MappingProxyType(dict(self.preimages)))


@dataclass(slots=True)
class Transaction:
    id: str
    spends: list[SpendInput]
    creates: list  # LockedOutput or Payout entries
    confirm_time: float = -1.0


class ConfirmationEvent(NamedTuple):
    time: float
    chain_id: str
    tx_id: str
    kind: str  # "confirmed" | "rejected"
    revealed: tuple[str, ...] = ()
    reason: str = ""


_CONFIRM_ORDER = operator.attrgetter("confirm_time", "id")


class Chain:
    """Single ledger with deterministic confirmation delay.

    ``advance`` is event-driven: a step that confirms nothing only moves the
    clock, so callers may poll it as often as they like.
    """

    def __init__(self, chain_id: str, confirm_delay: float):
        if not confirm_delay >= 0:  # NaN too: a transaction must come due
            raise ValueError("confirm_delay must be >= 0")
        self.id = chain_id
        self.confirm_delay = confirm_delay
        self.clock = 0.0
        self.mempool: list[Transaction] = []
        self._live_ids: set[str] = set()  # ids in the mempool or confirmed
        self._next_due = math.inf  # earliest confirm_time in the mempool
        self.utxos: dict[OutputRef, LockedOutput] = {}
        self.spent: dict[OutputRef, str] = {}  # ref -> spending tx id
        self.balances: dict[str, float] = {}
        self.funded_total: dict[str, float] = {}
        self.revealed: dict[str, tuple[bytes, float]] = {}  # hash id -> (preimage, reveal time)
        self.events: list[ConfirmationEvent] = []

    # -- broadcast / validation -------------------------------------------
    def broadcast(self, tx: Transaction, now: float) -> None:
        """Validate and queue a transaction; confirms at now + delay.

        Raises ValueError with a reason when a spend references an unknown or
        already-spent output, or no branch is satisfied.
        """
        if now < self.clock:
            raise ValueError("broadcast in the past")
        if math.isnan(now):  # it would never come due, nor order the mempool
            raise ValueError("broadcast at a NaN hour")
        if tx.id in self._live_ids:
            raise ValueError(f"duplicate transaction id {tx.id}")
        for s in tx.spends:
            out = self.utxos.get(s.ref)
            if out is None:
                if s.ref in self.spent:
                    raise ValueError(f"output {s.ref} already spent by {self.spent[s.ref]}")
                raise ValueError(f"unknown output {s.ref}")
            for b in out.branches:
                if b.satisfied_by(s.claimant, s.preimages, now):
                    break
            else:
                raise ValueError(f"no satisfied spend branch for {s.ref}")
        due = tx.confirm_time = now + self.confirm_delay
        self.mempool.append(tx)
        self._live_ids.add(tx.id)
        if due < self._next_due:
            self._next_due = due

    def try_broadcast(self, tx: Transaction, now: float) -> bool:
        try:
            self.broadcast(tx, now)
            return True
        except ValueError:
            return False

    # -- time --------------------------------------------------------------
    def advance(self, to: float) -> list[ConfirmationEvent]:
        """Move the clock forward, confirming pending transactions in order.

        Double-spend races resolve here: the earlier confirm_time wins,
        lexicographic transaction id breaks exact ties, losers are rejected.
        """
        if to < self.clock:
            raise ValueError("cannot advance backwards")
        self.clock = to
        if self._next_due > to:
            return []
        pending, waiting, next_due = [], [], math.inf
        for t in self.mempool:
            if t.confirm_time <= to:
                pending.append(t)
            else:
                waiting.append(t)
                next_due = min(next_due, t.confirm_time)
        self.mempool, self._next_due = waiting, next_due
        if len(pending) > 1:
            pending.sort(key=_CONFIRM_ORDER)
        emitted = [self._confirm(tx) for tx in pending]
        self.events.extend(emitted)
        return emitted

    def _confirm(self, tx: Transaction) -> ConfirmationEvent:
        now, spends, revealed = tx.confirm_time, tx.spends, ()
        if spends:  # a funding transaction spends and reveals nothing
            # Re-check spends: a racing transaction may have confirmed first.
            for s in spends:
                if s.ref not in self.utxos:
                    self._live_ids.discard(tx.id)  # the id may be broadcast again
                    return ConfirmationEvent(now, self.id, tx.id, "rejected", (),
                                             f"output {s.ref} spent before confirmation")
            found: list[str] = []
            for s in spends:
                del self.utxos[s.ref]
                self.spent[s.ref] = tx.id
                for h, pre in s.preimages.items():  # none for a timeout spend
                    if h not in self.revealed and hash_secret(pre) == h:
                        self.revealed[h] = (pre, now)
                        found.append(h)
            revealed = tuple(found)
        for i, created in enumerate(tx.creates):
            if isinstance(created, Payout):
                self.balances[created.party] = self.balances.get(created.party, 0.0) + created.amount
            else:
                self.utxos[OutputRef(tx.id, i)] = created
                # Only spend-less (funding) transactions inject new value.
                if not spends:
                    self.funded_total[created.funder] = (
                        self.funded_total.get(created.funder, 0.0) + created.amount
                    )
        return ConfirmationEvent(now, self.id, tx.id, "confirmed", revealed)

    # -- queries -----------------------------------------------------------
    def locked_value(self) -> float:
        return sum(o.amount for o in self.utxos.values())

    def next_confirm_time(self) -> float | None:
        return self._next_due if self.mempool else None


def conservation_holds(chain: Chain) -> bool:
    """Total value created by funders equals payouts plus unspent locks."""
    funded = sum(chain.funded_total.values())
    paid = sum(chain.balances.values())
    return abs(funded - (paid + chain.locked_value())) <= 1e-9
