"""One engine executes every swap protocol on the ledger simulator.

A protocol is a lock plan: an ordered list of hashed-timelock contracts
(``LockAction``) and the secrets that gate them, as in Herlihy's model of a
swap as a graph of such contracts ("Atomic Cross-Chain Swaps", PODC 2018).
``build_htlc_instance`` and ``build_quickswap_instance`` make the two-party
plans and ``cyclic.generate`` the n-party one.  ``execute`` runs any plan on
one simulated chain per asset with one ``Strategy`` per party: ``compliant``
acts at the earliest permitted time, ``grief`` stops cooperating after a
phase ("start" means never act), ``delay`` shifts one action, ``cancel``
takes the cancellation path at a phase, and ``threshold`` consults the game
solvers against a price path.  ``_verdict`` audits every trace for net
value, Correctness, Safety, Liveness and conservation, and the property
checker sweeps an exhaustive strategy grid.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .htlcgame import SwapParams, claim_threshold_t3, continuation_band_t2
from .ledgersim import (
    Chain,
    ConfirmationEvent,
    LockedOutput,
    OutputRef,
    Payout,
    SpendBranch,
    SpendInput,
    Transaction,
    conservation_holds,
    hash_secret,
)
from .numerics import Bracket
from .quickswapgame import QuickSwapParams, claim_threshold_t4, continuation_band_t3

__all__ = [
    "Strategy",
    "StrategyProfile",
    "LockAction",
    "Timing",
    "ProtocolInstance",
    "TraceVerdict",
    "build_htlc_instance",
    "build_quickswap_instance",
    "execute",
    "run",
    "check_properties",
    "PropertyReport",
    "liveness_bound",
    "mc_success_rate_htlc",
    "mc_success_rate_quickswap",
    "HTLC_PHASES",
    "QUICKSWAP_PHASES",
]

HTLC_PHASES = {"A": ("lock", "claim"), "B": ("lock", "claim")}
QUICKSWAP_PHASES = {"A": ("lock", "claim"), "B": ("premium", "lock", "claim")}
_PHASES = ("premium", "lock", "claim")  # every party's phases are in this order

_SECRET_LEN = 32


@dataclass(frozen=True)
class Strategy:
    """One party's behavior: kind plus the phase/amount it applies to.

    kinds: compliant | grief (stop cooperating after ``phase``; "start"
    means never act) | delay (act ``hours`` late at ``phase``) |
    cancel (take the cancel path at ``phase``) | threshold (decide from
    the game-theoretic thresholds and the price path; ``interested``
    models the party's sampled type).
    """

    kind: str = "compliant"
    phase: str | None = None
    hours: float = 0.0
    interested: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("compliant", "grief", "delay", "cancel", "threshold"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind in ("grief", "delay", "cancel") and self.phase is None:
            raise ValueError(f"{self.kind} strategy needs a phase")
        if self.kind == "delay" and self.hours <= 0:
            raise ValueError("delay strategy needs positive hours")

    # -- phase queries -------------------------------------------------------
    def acts_at(self, phase: str) -> bool:
        """Whether the party performs this protocol phase at all."""
        if self.kind == "grief":
            if self.phase == "start":
                return False
            return _PHASES.index(phase) <= _PHASES.index(self.phase)
        if self.kind == "cancel":
            # Acts normally before the cancel phase; the cancel phase itself
            # is handled specially by the engine.
            return _PHASES.index(phase) < _PHASES.index(self.phase)
        return True

    def cancels_at(self, phase: str) -> bool:
        return self.kind == "cancel" and self.phase == phase

    def lag(self, phase: str) -> float:
        return self.hours if (self.kind == "delay" and self.phase == phase) else 0.0

    def label(self) -> str:
        if self.kind == "compliant":
            return "compliant"
        if self.kind == "threshold":
            return "threshold" + ("" if self.interested else "(uninterested)")
        if self.kind == "delay":
            return f"delay({self.phase},{self.hours:g}h)"
        return f"{self.kind}({self.phase})"


@dataclass(frozen=True)
class StrategyProfile:
    strategy_A: Strategy
    strategy_B: Strategy

    def label(self) -> str:
        return f"A={self.strategy_A.label()} B={self.strategy_B.label()}"


@dataclass(frozen=True)
class LockAction:
    """One scheduled lock: who locks what, where, and under which branches.

    Party 0 holds the payment secret "Hbar"; "H{i}" is party i's
    cancellation secret.  Times are hours; a lock made late keeps its
    timeout's offset from ``start_time``."""

    party: int
    chain: int
    amount: float
    kind: str                      # "premium" | "principal"
    start_time: float
    timeout: float                 # hour of the timeout branch
    timeout_recipient: int
    hashlock_claimant: int
    hashlocks: tuple[str, ...]     # role names: "Hbar" and/or "H{i}"
    early_refund_hash: str | None = None   # role name enabling early refund


@dataclass(frozen=True)
class Timing:
    """When honest parties act beyond the lock schedule (hours).

    A party gives up on a lock on chain c once the hours in ``wait[c]`` (a
    confirmation delay, then a grace, added in that order as the protocol
    adds them) have passed since it was due, and on the initiator's claim
    ``claim_wait`` after every lock is in.  ``release_with_claim`` says
    whether the initiator reclaims its premium in its claim step or, like
    everyone else, once the payment secret is public (``t_eps`` after the
    claim confirms).
    """

    t_eps: float
    wait: tuple[tuple[float, ...], ...]
    claim_wait: float
    release_with_claim: bool


@dataclass(frozen=True)
class ProtocolInstance:
    """A concrete two-party swap: kind, parameters and lock plan."""

    kind: str  # "htlc" | "quickswap"
    params: SwapParams | QuickSwapParams
    actions: tuple[LockAction, ...]
    secrets: dict[str, bytes]       # role -> preimage
    rho: float = 0.001              # rate of the lockup cost c(amount * hours) owed to a griefed party

    @property
    def base(self) -> SwapParams:
        return self.params.base if isinstance(self.params, QuickSwapParams) else self.params


def _mk_secret(tag: bytes) -> bytes:
    return tag.ljust(_SECRET_LEN, b"\x00")


def build_htlc_instance(params: SwapParams, rho: float = 0.001) -> ProtocolInstance:
    """Plain two-lock HTLC swap: one payment hash held by A.

    The plain swap pays no premium; ``rho`` only sets the lockup cost the
    safety check requires as compensation when a party is griefed."""
    b = params
    actions = (
        LockAction(0, 0, b.x_a, "principal", 0.0, b.t_a, 0, 1, ("Hbar",)),
        # y_b is denominated at its t1 value in A's asset.
        LockAction(1, 1, b.x_yb_t1, "principal", b.tau_a, b.tau_a + b.t_b, 1, 0, ("Hbar",)),
    )
    return ProtocolInstance(
        kind="htlc", params=params, actions=actions,
        secrets={"Hbar": _mk_secret(b"htlc-payment-secret")}, rho=rho,
    )


def build_quickswap_instance(params: QuickSwapParams) -> ProtocolInstance:
    """Premium-backed swap: B posts Q, A locks x_a plus 1.5Q, B locks y_b.

    Each premium times out to the counterparty (B's D + Delta after it is
    posted, A's D after A locks); each principal refunds early on the other
    side's cancellation secret."""
    q, b = params, params.base
    t2, t3 = b.tau_b, b.tau_b + b.tau_a
    actions = (
        LockAction(1, 1, q.premium_of("B"), "premium", 0.0, q.D + q.Delta, 0, 1, ("Hbar", "H1")),
        LockAction(0, 0, b.x_a, "principal", t2, t2 + b.t_a, 0, 1, ("Hbar",), "H1"),
        LockAction(0, 0, q.premium_of("A"), "premium", t2, t2 + q.D, 1, 0, ("Hbar", "H0")),
        LockAction(1, 1, b.x_yb_t1, "principal", t3, t3 + b.t_b, 1, 0, ("Hbar",), "H0"),
    )
    secrets = {
        "Hbar": _mk_secret(b"quick-payment-secret-s1"),
        "H0": _mk_secret(b"quick-cancel-secret-s3"),
        "H1": _mk_secret(b"quick-cancel-secret-s2"),
    }
    return ProtocolInstance(
        kind="quickswap", params=params, actions=actions, secrets=secrets, rho=params.rho,
    )


# ---------------------------------------------------------------------------
# Trace verdicts.

@dataclass
class TraceVerdict:
    outcome: str                        # swapped | cancelled | griefed
    net_value: dict[str, float]
    correctness: bool
    safety: bool
    liveness: bool
    witnesses: list[str]
    events: list[ConfirmationEvent]
    final_time: float = 0.0


def liveness_bound(instance: ProtocolInstance, profile: StrategyProfile) -> float:
    """Analytic release deadline: every lock is spent by this hour.

    The longest timeout of a lock, plus the start of the last lock, both
    confirmation delays, one propagation lag, the compliant give-up slack,
    and any deliberate delay in the profile.
    """
    b = instance.base
    longest = max(a.timeout - a.start_time for a in instance.actions)
    extra = profile.strategy_A.hours + profile.strategy_B.hours
    slack = b.tau_b / 2.0  # compliant give-up wait
    return longest + instance.actions[-1].start_time + b.tau_a + b.tau_b + b.t_eps + slack + extra


# ---------------------------------------------------------------------------
# The engine.

class _Layout:
    """What a lock plan fixes for every trace of it: its steps (one party's
    locks with one start time, in order), each step's phase, the hash of every
    secret, each party's locks and the locks that time out to it, and each
    lock's contract at its planned timeout.  Contracts are immutable, so
    traces share them."""

    def __init__(self, actions, secrets, parties) -> None:
        self.steps = [(party, [idx for idx, _ in group]) for (party, _), group in itertools.groupby(
            enumerate(actions), key=lambda ia: (ia[1].party, ia[1].start_time))]
        self.phase = ["premium" if all(actions[i].kind == "premium" for i in idxs) else "lock"
                      for _, idxs in self.steps]
        self.hashes = {role: hash_secret(pre) for role, pre in secrets}
        self.roles = {h: role for role, h in self.hashes.items()}
        self.actions, self.parties = actions, parties
        self.contracts = [self.contract(a, a.timeout) for a in actions]
        # the principal each cancel secret refunds early
        self.refunds = {a.early_refund_hash: idx for idx, a in enumerate(actions)
                        if a.early_refund_hash is not None}
        self.of = [[i for i, a in enumerate(actions) if a.party == p] for p in range(len(parties))]
        self.owed = [[i for i, a in enumerate(actions) if a.timeout_recipient == p]
                     for p in range(len(parties))]

    def contract(self, a: LockAction, expiry: float) -> LockedOutput:
        names = self.parties
        branches = (SpendBranch(names[a.hashlock_claimant],
                                frozenset(self.hashes[r] for r in a.hashlocks)),
                    SpendBranch(names[a.timeout_recipient], not_before=expiry))
        if a.early_refund_hash is not None:
            branches += (SpendBranch(names[a.party], frozenset({self.hashes[a.early_refund_hash]})),)
        return LockedOutput(a.amount, branches, funder=names[a.party])


_layout = functools.lru_cache(maxsize=64)(_Layout)  # one layout per plan


class _Run:
    """One trace of a lock plan.

    Locks go out in plan order.  A step (one party's locks with one start
    time) is due at its start time shifted by every delay so far, and the
    last lock is party 0's to claim once every lock is in.  The claim
    reveals "Hbar"; ``t_eps`` after it confirms the others claim their
    incoming principals and reclaim their premiums.

    A step not taken when due by a party with locks in makes everyone watch
    their timeouts; if it is still missing at its give-up time, the others
    cancel: they reveal their own secret by reclaiming their premium and
    refund their principal early once their predecessor's secret is seen.
    A cancel at a decision point alerts the others, who follow once the
    canceller's secret is seen.  Parties sweep the timeouts owed to them only
    once they watch: when a step is missed, after their last success step,
    or once they cancel or give up.  Actions waiting for a secret to be seen
    run on the poll grid: every hour and every timeout from the first watch.
    """

    def __init__(self, actions, secrets, parties, chains, strategies, timing, decide):
        self.layout = _layout(actions, tuple(secrets.items()), tuple(parties))
        self.hashes, self.roles = self.layout.hashes, self.layout.roles
        self.steps, self.phase = self.layout.steps, self.layout.phase
        self.actions, self.secrets = actions, secrets
        self.parties, self.chains, self.strategies = parties, chains, strategies
        self.timing, self.decide = timing, decide
        self.clock = 0.0
        self.queue: list = []
        self.seq = itertools.count()
        self.refs: dict[int, OutputRef] = {}
        self.expiry: dict[int, float] = {}
        self.grid: list[float] = []        # sorted timeouts of every lock made
        self.anchor: float | None = None   # first poll of the grid
        self.observing: dict[str, float] = {}  # chain id -> last confirmation queued
        n = len(parties)
        self.cancelling, self.watching = [False] * n, [False] * n
        self.revealed = [False] * n        # the party broadcast a cancel
        self.performed = 0                 # steps taken; the claim is the last

    # -- event loop ------------------------------------------------------------
    def at(self, time: float, fn, prio: int = 1) -> None:
        """Queue ``fn`` at ``time``: sweeps coming due (prio 0) run before
        party steps (1), the sweeps of a party that starts watching after them (2)."""
        heapq.heappush(self.queue, (time, prio, next(self.seq), fn))

    def run(self) -> None:
        self._schedule(0, 0.0)
        while self.queue:
            self.clock, _, _, fn = heapq.heappop(self.queue)
            fn()

    def broadcast(self, chain: Chain, tx: Transaction) -> bool:
        """Broadcast and queue the confirmation.  A chain with a delay
        confirms before the steps of that hour; a zero-delay chain confirms
        what the hour broadcast after them, so polls see it at the next poll."""
        if not chain.try_broadcast(tx, self.clock):
            return False
        if self.observing.get(chain.id) != tx.confirm_time:
            self.observing[chain.id] = tx.confirm_time
            self.at(tx.confirm_time, lambda: self._observe(chain), -1 if chain.confirm_delay else 3)
        return True

    def _observe(self, chain: Chain) -> None:
        """Confirm what is due; a revealed cancel secret lets the parties
        refunding with it do so at the poll that sees it."""
        if not (chain.mempool and chain.next_confirm_time() <= self.clock):
            return
        for e in chain.advance(self.clock):
            for h in e.revealed:
                role = self.roles[h]
                if role != "Hbar" and self.anchor is not None:
                    seen = self.poll_at(e.time + self.timing.t_eps, e.time - chain.confirm_delay)
                    self.at(seen, lambda role=role: self._refund_early(role))

    def poll_at(self, t: float, after: float = -math.inf) -> float:
        """First poll at or after ``t`` and later than ``after``.  Polls fall
        every hour from the first watch and on every timeout, and the hourly
        count restarts at each timeout."""
        i = bisect.bisect_right(self.grid, max(t, after))
        p = max(self.anchor, self.grid[i - 1]) if i else self.anchor
        timeout = self.grid[i] if i < len(self.grid) else math.inf
        while p < t or p <= after:
            p = min(p + 1.0, timeout)
        return p

    # -- ledger helpers --------------------------------------------------------
    def visible(self, role: str) -> bool:
        h = self.hashes[role]
        return any(c.preimage_visible(h, self.timing.t_eps, self.clock) is not None
                   for c in self.chains)

    def spent(self, idx: int) -> bool:
        return self.refs[idx] in self.chains[self.actions[idx].chain].spent

    def spend(self, idx: int, party: int, tx_id: str, role: str | None = None) -> bool:
        a, name = self.actions[idx], self.parties[party]
        pres = {self.hashes[role]: self.secrets[role]} if role else {}
        tx = Transaction(tx_id, [SpendInput(self.refs[idx], name, pres)], [Payout(name, a.amount)])
        return self.broadcast(self.chains[a.chain], tx)

    def locked(self, party: int) -> bool:
        return any(i in self.refs for i in self.layout.of[party])

    def own(self, party: int, kind: str) -> list[int]:
        """The party's unspent locks of ``kind``."""
        return [i for i in self.layout.of[party] if i in self.refs
                and self.actions[i].kind == kind and not self.spent(i)]

    # -- the schedule ----------------------------------------------------------
    def _schedule(self, k: int, shift: float) -> None:
        party, idxs = self.steps[k]
        due = self.actions[idxs[0]].start_time + shift
        give_up = sum(self.timing.wait[self.actions[idxs[0]].chain], due)
        lag = self.strategies[party].lag(self.phase[k])
        self.at(due + lag, lambda: self._lock(k, give_up, shift + lag))
        if lag:
            self.at(due, lambda: self._missed(k, party, give_up))

    def _missed(self, k: int, party: int, give_up: float) -> None:
        """``party`` did not take step k (the claim if k is past the last lock
        step) when due.  If it has locks in, everyone watches from now on; if
        the step is still missing at ``give_up``, the others cancel.  A party
        that cancelled owes nothing more."""
        def abandon() -> None:
            if not (self.performed > k or self.revealed[party]):
                for p, s in enumerate(self.strategies):
                    if p != party and s.kind != "grief" and self.locked(p):
                        # Giving up on the claim ends the swap and alerts the
                        # others; giving up on a lock only withdraws a premium.
                        self._cancel(p, alert=k == len(self.steps))
                self._watch()

        if not self.revealed[party]:
            if self.locked(party):
                self._watch()
            self.at(give_up, abandon)

    def _lock(self, k: int, give_up: float, shift: float) -> None:
        party, idxs = self.steps[k]
        s, phase = self.strategies[party], self.phase[k]
        # Nobody locks once a party with its principal in has cancelled.
        dead = any(self.revealed[self.actions[i].party] for i in self.refs
                   if self.actions[i].kind == "principal")
        cancels = not dead and (s.cancels_at(phase) or (
            s.kind == "threshold" and not self.decide(party, phase, self.clock)))
        if cancels:
            self._cancel(party, alert=True)
        if dead or cancels or not s.acts_at(phase):
            self._missed(k, party, give_up)
            return
        for idx in idxs:
            a = self.actions[idx]
            expiry = a.timeout + (self.clock - a.start_time)
            contract = (self.layout.contracts[idx] if expiry == a.timeout
                        else self.layout.contract(a, expiry))
            tx = Transaction(f"lock-{idx}", [], [contract])
            self.broadcast(self.chains[a.chain], tx)
            self.refs[idx] = OutputRef(tx.id, 0)
            self.expiry[idx] = expiry
            bisect.insort(self.grid, expiry)
            if self.watching[a.timeout_recipient]:
                self._sweep_when_due(idx)
        self.performed = k + 1
        if self.performed < len(self.steps):
            self._schedule(self.performed, shift)
            return
        locked = self.clock + self.chains[self.actions[idxs[-1]].chain].confirm_delay
        give_up, lag = locked + self.timing.claim_wait, self.strategies[0].lag("claim")
        self.at(locked + lag, lambda: self._claim(give_up))
        if lag:
            self.at(locked, lambda: self._missed(k + 1, 0, give_up))

    # -- success path ----------------------------------------------------------
    def _claim(self, give_up: float) -> None:
        for c in self.chains:
            self._observe(c)  # the last lock is in, even on a zero-delay chain
        s = self.strategies[0]
        cancels = s.cancels_at("claim") or (
            s.kind == "threshold" and not self.decide(0, "claim", self.clock))
        if cancels:
            self._cancel(0, alert=True)
        if cancels or not s.acts_at("claim"):
            self._missed(len(self.steps), 0, give_up)
            return
        last = len(self.actions) - 1
        self.spend(last, 0, "claim-final", "Hbar")
        self.performed += 1
        if self.timing.release_with_claim:
            for idx in self.own(0, "premium"):
                self._release(idx, 0, f"reclaim-{idx}")
            self._watch(0)
        self.at(self.clock + self.chains[self.actions[last].chain].confirm_delay
                + self.timing.t_eps, self._redeem)

    def _redeem(self) -> None:
        """The payment secret is public: claim incoming principals, reclaim premiums."""
        for idx, a in enumerate(self.actions[:-1]):
            p = a.hashlock_claimant if a.kind == "principal" else a.party
            if idx not in self.refs or not self.strategies[p].acts_at("claim"):
                continue
            if a.kind == "principal":
                self._release(idx, p, f"claim-{idx}")
            elif not (p == 0 and self.timing.release_with_claim):
                self._release(idx, p, f"reclaim-{idx}")
        self._watch()

    def _release(self, idx: int, party: int, tx_id: str) -> None:
        """Spend with the payment secret, unless a timeout spend is already out."""
        ref = self.refs[idx]
        if not any(s.ref == ref for tx in self.chains[self.actions[idx].chain].mempool
                   for s in tx.spends):
            self.spend(idx, party, tx_id, "Hbar")

    # -- cancelling ------------------------------------------------------------
    def _cancel(self, party: int, alert: bool) -> None:
        """Reveal the party's cancel secret through its premium; refund early."""
        if not self.cancelling[party]:
            self.cancelling[party] = True
            for idx in self.own(party, "premium"):
                self.revealed[party] |= self.spend(idx, party, f"cancel-{idx}", f"H{party}")
            self._watch(party)
            for idx in self.own(party, "principal"):
                self._refund_early(self.actions[idx].early_refund_hash)
        premiums = [a.chain for a in self.actions if a.party == party and a.kind == "premium"]
        if alert and premiums:
            seen = self.clock + self.chains[premiums[0]].confirm_delay + self.timing.t_eps
            self.at(self.poll_at(seen), lambda: self._alerted(party))

    def _alerted(self, canceller: int) -> None:
        """The others follow a cancel once the canceller's secret is seen."""
        if not self.visible(f"H{canceller}"):
            return
        for p, s in enumerate(self.strategies):
            if p != canceller and not self.cancelling[p]:
                if s.kind == "grief":
                    self._watch(p)
                else:
                    self._cancel(p, alert=True)

    def _refund_early(self, role: str | None) -> None:
        """A cancelling party refunds the principal that ``role`` unlocks early,
        once the secret is seen."""
        idx = self.layout.refunds.get(role)
        if idx in self.refs:
            party = self.actions[idx].party
            if (self.cancelling[party] and self.strategies[party].kind != "grief"
                    and not self.spent(idx) and self.visible(role)):
                self.spend(idx, party, f"early-refund-{idx}", role)

    # -- timeouts --------------------------------------------------------------
    def _watch(self, *parties: int) -> None:
        """From now on the parties (all if none is named) sweep every timeout
        owed to them."""
        for party in parties or range(len(self.parties)):
            if not self.watching[party]:
                self.watching[party] = True
                if self.anchor is None:
                    self.anchor = self.clock
                for idx in self.layout.owed[party]:
                    if idx in self.refs:
                        self._sweep_when_due(idx)

    def _sweep_when_due(self, idx: int) -> None:
        def sweep() -> None:
            if not self.spent(idx):
                self.spend(idx, self.actions[idx].timeout_recipient, f"timeout-{idx}")

        if self.expiry[idx] > self.clock:
            self.at(self.expiry[idx], sweep, prio=0)
        else:
            self.at(self.clock, sweep, prio=2)


def execute(plan, parties, chains, strategies, timing, *, safety,
            bound: float = math.inf, decide=None, value=None) -> TraceVerdict:
    """Run a lock plan (anything with ``actions`` and role-keyed ``secrets``,
    such as a ``ProtocolInstance`` or a ``cyclic.CyclicPlan``) with one
    strategy per party and audit the trace.

    ``safety(run, swapped, endow, recv)`` is the protocol's safety rule, given
    what each party funded and received; ``bound`` is the hour by which every
    lock must be released; ``decide(party, phase, now)`` is the threshold
    strategies' choice; ``value`` lists each chain's coin value in the first
    chain's asset (1 each if not given).
    """
    r = _Run(plan.actions, plan.secrets, parties, chains, strategies, timing, decide)
    r.run()
    return _verdict(r, safety, bound, value or [1.0] * len(chains))


_EVENT_ORDER = operator.attrgetter("time", "chain_id", "tx_id")


def _spender(r: _Run, idx: int) -> str:
    """Id of the confirmed transaction that spent lock ``idx`` ("" if none)."""
    return r.chains[r.actions[idx].chain].spent.get(r.refs.get(idx), "")


def _verdict(r: _Run, safety, bound: float, scale) -> TraceVerdict:
    """Net value, Correctness, Safety, Liveness and conservation of a trace."""
    endow = dict.fromkeys(r.parties, 0.0)
    recv = dict.fromkeys(r.parties, 0.0)
    for f, c in zip(scale, r.chains):
        for p, v in c.funded_total.items():
            endow[p] += f * v
        for p, v in c.balances.items():
            recv[p] += f * v
    net = {p: recv[p] - endow[p] for p in r.parties}

    swapped = all(_spender(r, i).startswith("claim")
                  for i, a in enumerate(r.actions) if a.kind == "principal")
    kinds = [s.kind for s in r.strategies]
    outcome = "swapped" if swapped else ("griefed" if "grief" in kinds else "cancelled")

    events = sorted((e for c in r.chains for e in c.events), key=_EVENT_ORDER)
    last_spend = last = 0.0
    sent = -math.inf  # latest broadcast of a transaction processed
    for c in r.chains:
        for e in c.events:
            if e.time > last:
                last = e.time
            if e.time - c.confirm_delay > sent:
                sent = e.time - c.confirm_delay
            if e.kind == "confirmed" and e.time > last_spend:
                last_spend = e.time
    witnesses: list[str] = []
    locks_left = sum(len(c.utxos) + len(c.mempool) for c in r.chains)
    liveness = locks_left == 0 and last_spend <= bound
    if not liveness:
        witnesses.append(f"liveness: {locks_left} unreleased locks, last release at "
                         f"{last_spend:g}h (bound {bound:g}h)")
    correctness = swapped or any(k != "compliant" for k in kinds)
    if not correctness:
        witnesses.append("correctness: compliant parties failed to swap")
    safe, found = safety(r, swapped, endow, recv)
    witnesses += found
    for c in r.chains:
        if not conservation_holds(c):
            safe = False
            witnesses.append(f"conservation violated on {c.id}")
    return TraceVerdict(
        outcome=outcome, net_value=net, correctness=correctness, safety=safe,
        liveness=liveness, witnesses=witnesses, events=events,
        # The run ends at the first poll that observes the last confirmation.
        final_time=last if r.anchor is None else r.poll_at(last, sent),
    )


def _compensated(r: _Run, swapped: bool, endow, recv, rho: float) -> tuple[bool, list[str]]:
    """Two-party rule: a compliant party griefed out of the swap is owed
    c(amount * locktime) = rho * amount * locktime for its locked principal,
    paid by the premiums that time out to it.  The plain HTLC pays none,
    which is exactly the violation the checker is expected to surface
    whenever ``rho`` is positive."""
    kinds = [s.kind for s in r.strategies]
    for victim in (0, 1):
        if swapped or kinds[victim] != "compliant" or kinds[1 - victim] != "grief":
            continue
        idx = next(i for i, a in enumerate(r.actions) if a.party == victim and a.kind == "principal")
        if idx not in r.refs:
            continue
        a = r.actions[idx]
        hours = a.timeout - a.start_time
        required = rho * a.amount * hours
        received = sum(p.amount for i, p in enumerate(r.actions)
                       if p.kind == "premium" and p.timeout_recipient == victim
                       and _spender(r, i) == f"timeout-{i}")
        if received + 1e-9 < required:
            return False, [f"safety: {r.parties[victim]} griefed with {a.amount:g} locked for "
                           f"{hours:g}h, compensation {received:g} < required {required:g}"]
    return True, []


def recovers_locked(r: _Run, swapped: bool, endow, recv) -> tuple[bool, list[str]]:
    """Cyclic rule: a compliant party whose outgoing principal was claimed
    holds the incoming one; otherwise it gets back everything it locked
    (premium timeouts may add on top).  A success reveals only "Hbar"."""
    witnesses: list[str] = []
    revealed = {r.roles[h] for c in r.chains for h in c.revealed if h in r.roles}
    if swapped and revealed != {"Hbar"}:
        witnesses.append(f"success trace revealed {sorted(revealed)}")
    expected = dict(endow)
    incoming = {a.hashlock_claimant: a.amount for a in r.actions if a.kind == "principal"}
    for idx, a in enumerate(r.actions):
        if a.kind == "principal" and _spender(r, idx).startswith("claim"):
            p = r.parties[a.party]
            expected[p] += incoming[a.party] - a.amount
    for i, s in enumerate(r.strategies):
        p = r.parties[i]
        if s.kind == "compliant" and recv[p] + 1e-9 < expected[p]:
            witnesses.append(f"safety: {p} received {recv[p]:g} < expected {expected[p]:g}")
    return not any(w.startswith("safety") for w in witnesses), witnesses


def run(
    instance: ProtocolInstance,
    profile: StrategyProfile,
    price_path=None,
) -> TraceVerdict:
    """Execute one two-party trace and audit it.  Deterministic given inputs."""
    if instance.kind not in ("htlc", "quickswap"):
        raise ValueError(f"unknown protocol kind {instance.kind!r}")
    b, htlc = instance.base, instance.kind == "htlc"
    price = price_path or (lambda t: b.x_yb_t1)
    strategies = [profile.strategy_A, profile.strategy_B]

    def decide(party: int, phase: str, now: float) -> bool:
        """Threshold play: B locks inside its band, A claims above its threshold."""
        if (party, phase) == (1, "lock"):
            band = continuation_band_t2(b, 0.0) if htlc else continuation_band_t3(instance.params)
            return strategies[1].interested and band is not None and band.lo < price(now) <= band.hi
        if (party, phase) == (0, "claim"):
            x_star = claim_threshold_t3(b) if htlc else claim_threshold_t4(instance.params)
            return strategies[0].interested and price(now) >= x_star
        return True

    # A party waits for the counterparty's lock to confirm and for A's claim
    # to be seen on the slower chain, each plus half of B's confirmation delay.
    slack = b.tau_b / 2.0
    timing = Timing(t_eps=b.t_eps, wait=((b.tau_a, slack), (b.tau_b, slack)),
                    claim_wait=max(b.tau_a, b.tau_b) + b.t_eps + slack, release_with_claim=True)
    chains = [Chain("chain-a", b.tau_a), Chain("chain-b", b.tau_b)]
    bound = liveness_bound(instance, profile)
    # Net value in A-asset units at the price once every lock is released.
    return execute(instance, ("A", "B"), chains, strategies, timing,
                   safety=functools.partial(_compensated, rho=instance.rho),
                   bound=bound, decide=decide, value=[1.0, price(bound + 1.0) / b.x_yb_t1])


# ---------------------------------------------------------------------------
# Exhaustive property grid.

@dataclass
class PropertyRow:
    profile: str
    outcome: str
    correctness: bool
    safety: bool
    liveness: bool
    witnesses: list[str]


@dataclass
class PropertyReport:
    kind: str
    rows: list[PropertyRow]

    @property
    def safety_violations(self) -> list[PropertyRow]:
        return [r for r in self.rows if not r.safety]

    @property
    def liveness_ok(self) -> bool:
        return all(r.liveness for r in self.rows)

    @property
    def correctness_ok(self) -> bool:
        return all(r.correctness for r in self.rows)


def strategy_grid(kind: str, delays=(1.0, 6.0, 12.0)) -> list[Strategy]:
    phases = HTLC_PHASES if kind == "htlc" else QUICKSWAP_PHASES
    out: dict[str, list[Strategy]] = {}
    for party, order in phases.items():
        opts = [Strategy("compliant")]
        opts += [Strategy("grief", phase="start")]
        opts += [Strategy("grief", phase=ph) for ph in order[:-1]]
        opts += [Strategy("cancel", phase=ph) for ph in order]
        opts += [Strategy("delay", phase=ph, hours=h) for ph in order for h in delays]
        out[party] = opts
    return out


def check_properties(instance: ProtocolInstance, profiles: list[StrategyProfile] | None = None) -> PropertyReport:
    """Run every profile in the grid and collect per-trace verdicts."""
    if profiles is None:
        grid = strategy_grid(instance.kind)
        profiles = [
            StrategyProfile(a, bb) for a in grid["A"] for bb in grid["B"]
        ]
    rows = []
    for profile in profiles:
        v = run(instance, profile)
        rows.append(PropertyRow(
            profile=profile.label(),
            outcome=v.outcome,
            correctness=v.correctness,
            safety=v.safety,
            liveness=v.liveness,
            witnesses=v.witnesses,
        ))
    return PropertyReport(kind=instance.kind, rows=rows)


# ---------------------------------------------------------------------------
# Monte Carlo oracles (threshold strategies over sampled prices).

def mc_success_rate_htlc(
    p: SwapParams, T: float, Tp: float, n_paths: int, seed: int
) -> tuple[float, float]:
    """Empirical completion frequency under threshold strategies.

    Samples the price at B's lock decision (horizon tau_a + T') and at A's
    claim decision (a further tau_b + T), applies the analytic band and
    threshold, and draws each party's interested type.  Returns
    (frequency, standard error); the mean estimates the raw success rate.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    band = continuation_band_t2(p, T)
    return _mc_two_stage(p, band, claim_threshold_t3(p), p.tau_a + Tp, p.tau_b + T, n_paths, seed)


def mc_success_rate_quickswap(q: QuickSwapParams, n_paths: int, seed: int) -> tuple[float, float]:
    """Empirical completion frequency for the premium protocol (delay-free)."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    b = q.base
    band = continuation_band_t3(q)
    return _mc_two_stage(b, band, claim_threshold_t4(q), b.tau_a, b.tau_b, n_paths, seed)


def _mc_two_stage(
    p: SwapParams, band: Bracket | None, threshold: float, h_lock: float, h_claim: float,
    n_paths: int, seed: int,
) -> tuple[float, float]:
    """Monte Carlo twin of ``htlcgame._sr_integral``: B locks when the price
    after ``h_lock`` hours lies in ``band``, then A claims when the price a
    further ``h_claim`` hours on is at least ``threshold``.  No band: (0, 0)."""
    rng = np.random.default_rng(seed)
    if band is None:
        return 0.0, 0.0
    mu, sig = p.gbm.mu, p.gbm.sigma
    z1 = rng.standard_normal(n_paths)
    z2 = rng.standard_normal(n_paths)
    at_lock = p.x_yb_t1 * np.exp((mu - 0.5 * sig**2) * h_lock + sig * math.sqrt(h_lock) * z1)
    at_claim = at_lock * np.exp((mu - 0.5 * sig**2) * h_claim + sig * math.sqrt(h_claim) * z2)
    b_interested = rng.random(n_paths) < p.theta_2
    a_interested = rng.random(n_paths) < p.theta_1
    success = (
        b_interested
        & (at_lock > band.lo) & (at_lock <= band.hi)
        & a_interested
        & (at_claim >= threshold)
    )
    freq = float(np.mean(success))
    se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n_paths)
    return freq, se
