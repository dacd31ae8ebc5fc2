"""One engine executes every swap protocol on the ledger simulator.

A protocol is a lock plan: an ordered list of hashed-timelock contracts
(``LockAction``) and the secrets that gate them, as in Herlihy's model of a
swap as a graph of such contracts ("Atomic Cross-Chain Swaps", PODC 2018).
``build_htlc_instance`` and ``build_quickswap_instance`` make the two-party
plans and ``cyclic.generate`` the n-party one; each is a
``ProtocolInstance``, which compiles itself when it is made and is the one
object the engine runs and judges.  ``execute`` runs any plan on one
simulated chain per asset with one ``Strategy`` per party: ``compliant``
acts at the earliest permitted time, ``grief`` stops cooperating after a
phase ("start" means never act), ``delay`` shifts one action, ``cancel``
takes the cancellation path at a phase, and ``threshold`` consults the game
solvers against a price path.  The engine asks the strategies questions
(``_Run.ask``) and is otherwise deterministic, so ``execute`` can keep one
trace per distinct list of answers in an answer tree and run the engine only
for answers it has not seen; ``run``, the two-party entry, passes it the
instance's ``answer_tree``.  ``_facts`` keeps what a verdict reads of a trace,
which holds no plan, and ``_judge`` audits it against its plan per profile
for net value, Correctness, Safety, Liveness (every lock released by the
plan's release hour, plus every deliberate delay of its strategies) and
conservation; the property checker sweeps an exhaustive strategy grid.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .htlcgame import SwapParams, claim_threshold_t3, continuation_band_t2
from .ledgersim import (Chain, ConfirmationEvent, LockedOutput, OutputRef, Payout, SpendBranch,
                        SpendInput, Transaction, conservation_holds, hash_secret)
from .quickswapgame import QuickSwapParams, claim_threshold_t4, continuation_band_t3

__all__ = [
    "Strategy", "StrategyProfile", "LockAction", "Timing", "ProtocolInstance", "TraceVerdict",
    "build_htlc_instance", "build_quickswap_instance", "execute", "run", "check_properties",
    "PropertyReport", "liveness_bound", "mc_success_rate_htlc", "mc_success_rate_quickswap",
]

_PARTY_PHASES = {"htlc": {"A": ("lock", "claim"), "B": ("lock", "claim")},
                 "quickswap": {"A": ("lock", "claim"), "B": ("premium", "lock", "claim")}}
_PHASES = ("premium", "lock", "claim")  # every party's phases are in this order

_SECRET_LEN = 32


@dataclass(frozen=True)
class Strategy:
    """One party's behavior: kind plus the phase/amount it applies to.

    kinds: compliant | grief (stop cooperating after ``phase``; "start"
    means never act) | delay (act ``hours`` late at ``phase``; no other
    kind takes hours, since the engine plays no other lag) |
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
        if self.phase is not None and self.phase not in _PHASES + (
                ("start",) if self.kind == "grief" else ()):
            raise ValueError(f"{self.kind} strategy has no phase {self.phase!r}")
        if not math.isfinite(self.hours):
            raise ValueError(f"strategy hours must be finite, got {self.hours}")
        if self.kind == "delay" and self.hours <= 0:
            raise ValueError("delay strategy needs positive hours")
        if self.kind != "delay" and self.hours:
            raise ValueError(f"only a delay strategy takes hours, got {self.hours:g} for {self.kind}")

    # -- phase queries -------------------------------------------------------
    def acts_at(self, phase: str) -> bool:
        """Whether the party performs this protocol phase at all.  A canceller
        acts normally before its cancel phase, which the engine handles."""
        if self.kind == "grief":
            return self.phase != "start" and _PHASES.index(phase) <= _PHASES.index(self.phase)
        return self.kind != "cancel" or _PHASES.index(phase) < _PHASES.index(self.phase)

    def cancels_at(self, phase: str) -> bool:
        return self.kind == "cancel" and self.phase == phase

    def lag(self, phase: str) -> float:
        return self.hours if (self.kind == "delay" and self.phase == phase) else 0.0

    @functools.cached_property
    def answer_table(self) -> dict:
        """The answer (see ``_Run.ask``) to every (question, phase) the
        engine asks whose answer does not depend on the hour: all but a
        ``threshold`` party's move.  Built on first use."""
        table = {("grief", None): self.kind == "grief"}
        for ph in _PHASES:
            table["lag", ph], table["acts", ph] = self.lag(ph), self.acts_at(ph)
            if self.kind != "threshold":
                table["move", ph] = ("cancel" if self.cancels_at(ph)
                                     else "act" if self.acts_at(ph) else "skip")
        return table

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
    """A swap plan: its kind ("htlc", "quickswap" or "cyclic"), parameters,
    parties, lock plan and secrets, its chains as ``(id, confirmation
    delay)`` pairs, its ``Timing`` and its safety rule ``safety(plan, trace,
    kinds, endow, recv)``, given the plan, the trace's facts, each party's
    strategy kind, and what each party funded and received.

    A plan compiles itself when it is made: its steps (one party's locks with
    one start time, in order), each step's phase, the hash of every secret,
    each lock's output ref, the hour ``_release_bound`` adds the strategies'
    delays to, the principal each cancel secret refunds early, each party's
    locks and the locks that time out to it, the principals and the principal
    each party is to receive, and, built on first use, each lock's contract
    at each expiry it is made with and the input and payout of each spend.
    Traces share all of these, and nothing changes them."""

    kind: str
    params: SwapParams | QuickSwapParams  # or a cyclic.CyclicSpec
    actions: tuple[LockAction, ...]
    secrets: dict[str, bytes]       # role -> preimage
    parties: tuple[str, ...]
    chains: tuple
    timing: Timing
    safety: Callable

    def __post_init__(self) -> None:
        actions, n = self.actions, len(self.parties)
        hashes = {role: hash_secret(pre) for role, pre in self.secrets.items()}
        steps = [(party, [idx for idx, _ in group]) for (party, _), group in itertools.groupby(
            enumerate(actions), key=lambda ia: (ia[1].party, ia[1].start_time))]
        # The longest lock after the last lock's start, every confirmation
        # delay, one propagation lag and the compliant give-up slack.
        release = max(a.timeout - a.start_time for a in actions) + actions[-1].start_time
        for _, delay in self.chains:
            release += delay
        vars(self).update(  # the plan is frozen; its compiled parts are set once, here
            steps=steps, hashes=hashes, roles={h: role for role, h in hashes.items()},
            phase=["premium" if all(actions[i].kind == "premium" for i in idxs) else "lock"
                   for _, idxs in steps],
            refs=[OutputRef(f"lock-{idx}", 0) for idx in range(len(actions))],
            release=release + self.timing.t_eps + self.timing.wait[-1][-1],
            refunds={a.early_refund_hash: idx for idx, a in enumerate(actions)
                     if a.early_refund_hash is not None},
            of=[[i for i, a in enumerate(actions) if a.party == p] for p in range(n)],
            owed=[[i for i, a in enumerate(actions) if a.timeout_recipient == p] for p in range(n)],
            principals=[i for i, a in enumerate(actions) if a.kind == "principal"],
            incoming={a.hashlock_claimant: a.amount for a in actions if a.kind == "principal"},
            _spends={},     # (lock, spender, secret role) -> (SpendInput, Payout)
            _contracts={})  # (lock, expiry) -> LockedOutput

    def premium_actions(self) -> list[LockAction]:
        return [a for a in self.actions if a.kind == "premium"]

    @functools.cached_property
    def thresholds(self) -> tuple[np.ndarray, float]:
        """B's lock band (at claim delay 0 for the HTLC), a ``(lo, hi)`` pair
        with NaN ends where B never locks, and A's claim threshold, which
        ``threshold`` strategies play; solved on first use."""
        if self.kind == "htlc":
            return continuation_band_t2(self.params, 0.0), claim_threshold_t3(self.params)
        return continuation_band_t3(self.params), claim_threshold_t4(self.params)

    @functools.cached_property
    def answer_tree(self) -> dict:
        """Every trace ``run`` has made of this plan, keyed by the answers its
        strategies gave (see ``_replay``)."""
        return {}

    def spend_parts(self, idx: int, party: int, role: str | None) -> tuple[SpendInput, Payout]:
        """The input and payout of ``party`` spending lock ``idx`` with the
        secret of ``role`` (None for a timeout spend)."""
        key = (idx, party, role)
        parts = self._spends.get(key)
        if parts is None:
            name = self.parties[party]
            pres = {self.hashes[role]: self.secrets[role]} if role else {}
            parts = self._spends[key] = (SpendInput(self.refs[idx], name, pres),
                                         Payout(name, self.actions[idx].amount))
        return parts

    def contract(self, idx: int, expiry: float) -> LockedOutput:
        """Lock ``idx``'s contract, its timeout branch open at ``expiry``."""
        out = self._contracts.get((idx, expiry))
        if out is None:
            a, names = self.actions[idx], self.parties
            branches = (SpendBranch(names[a.hashlock_claimant],
                                    frozenset(self.hashes[r] for r in a.hashlocks)),
                        SpendBranch(names[a.timeout_recipient], not_before=expiry))
            if a.early_refund_hash is not None:
                branches += (SpendBranch(names[a.party], frozenset({self.hashes[a.early_refund_hash]})),)
            out = self._contracts[idx, expiry] = LockedOutput(a.amount, branches, funder=names[a.party])
        return out


def _mk_secret(tag: bytes) -> bytes:
    return tag.ljust(_SECRET_LEN, b"\x00")


def _lockable(**amounts) -> None:
    """Refuse, naming it, a parameter that would make the plan lock nothing:
    the ledger takes no lock of 0 coins."""
    for name, value in amounts.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, or the plan locks 0 coins")


def _two_party(kind, params, b, actions, secrets, rho) -> ProtocolInstance:
    """A plan of parties A and B on "chain-a" and "chain-b", safe by
    ``_compensated`` at ``rho``.  A and B each wait for the counterparty's
    lock to confirm and for A's claim to be seen on the slower chain, each
    plus half of B's confirmation delay.  A's principal must be held longer
    than B's: a timeout is start + locktime rounded to the floats near the
    start, so t_a > t_b may still give both locks the same hours."""
    _lockable(x_a=b.x_a)
    a_lock, b_lock = (next(a for a in actions if a.kind == "principal" and a.party == p) for p in (0, 1))
    held = [lock.timeout - lock.start_time for lock in (a_lock, b_lock)]
    if not held[0] > held[1]:
        raise ValueError(f"t_a must exceed t_b over the hours the plan holds them: A's lock is held "
                         f"{held[0]!r}h from hour {a_lock.start_time:g}, B's {held[1]!r}h from hour "
                         f"{b_lock.start_time:g}")
    slack = b.tau_b / 2.0
    return ProtocolInstance(
        kind, params, actions, secrets, ("A", "B"), (("chain-a", b.tau_a), ("chain-b", b.tau_b)),
        Timing(t_eps=b.t_eps, wait=((b.tau_a, slack), (b.tau_b, slack)),
               claim_wait=max(b.tau_a, b.tau_b) + b.t_eps + slack, release_with_claim=True),
        functools.partial(_compensated, rho=rho))


def build_htlc_instance(params: SwapParams, rho: float = 0.001) -> ProtocolInstance:
    """Plain two-lock HTLC swap: one payment hash held by A.

    The plain swap pays no premium; ``rho`` only sets the lockup cost the
    safety check requires as compensation when a party is griefed."""
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    b = params
    actions = (
        LockAction(0, 0, b.x_a, "principal", 0.0, b.t_a, 0, 1, ("Hbar",)),
        # y_b is denominated at its t1 value in A's asset.
        LockAction(1, 1, b.x_yb_t1, "principal", b.tau_a, b.tau_a + b.t_b, 1, 0, ("Hbar",)),
    )
    return _two_party("htlc", params, b, actions, {"Hbar": _mk_secret(b"htlc-payment-secret")}, rho)


def build_quickswap_instance(params: QuickSwapParams) -> ProtocolInstance:
    """Premium-backed swap: B posts Q, A locks x_a plus 1.5Q, B locks y_b.

    Each premium times out to the counterparty (B's D + Delta after it is
    posted, A's D after A locks); each principal refunds early on the other
    side's cancellation secret."""
    q, b = params, params.base
    if not b.tau_a + 2.0 * b.tau_b < q.D + q.Delta < b.t_b:
        raise ValueError("premium timeouts ill-formed: need tau_a + 2*tau_b < D + Delta < t_b")
    _lockable(rho=q.rho)  # the premiums are rho * x_a * t_a and 1.5 times that
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
    return _two_party("quickswap", params, b, actions, secrets, q.rho)


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
    final_time: float


def liveness_bound(instance: ProtocolInstance, profile: StrategyProfile) -> float:
    """Analytic release deadline of a two-party plan: every lock is spent by
    this hour.

    The longest timeout of a lock, plus the start of the last lock, both
    confirmation delays, one propagation lag, the compliant give-up slack,
    and any deliberate delay in the profile.
    """
    _party_phases(instance.kind)  # refuses a plan that is not two-party
    return _release_bound(instance, (profile.strategy_A, profile.strategy_B))


def _release_bound(plan: ProtocolInstance, strategies) -> float:
    """The hour by which every lock of ``plan`` must be released when it is
    played by ``strategies``: the plan's release hour plus every deliberate
    delay."""
    return plan.release + sum(s.hours for s in strategies)


# ---------------------------------------------------------------------------
# The engine.

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

    The run keeps what its chains do not record: the timeout of each lock
    made (``expiry``), who cancelled or watches, and the first spend out of
    each lock (``closing``).  What is pending, spent or revealed, and when,
    it reads from its chains.

    The run consults its strategies only through ``ask``, which records every
    question and answer in ``asked``.  It queues no event that provably does
    nothing: no sweep or early refund of a lock with a spend out (in
    ``closing``) that confirms before the event's hour, as the spend then
    confirms, or loses to one that did, in the observation queued at its
    hour; and no alert from a party that broadcast no secret, or once
    everyone cancels.
    """

    def __init__(self, plan: ProtocolInstance, tables, decide):
        self.plan = plan
        self.steps, self.phase = plan.steps, plan.phase
        self.actions, self.parties, self.timing = plan.actions, plan.parties, plan.timing
        self.chains = [Chain(*chain) for chain in plan.chains]
        self.tables, self.decide = tables, decide
        self.clock = 0.0
        self.queue: list = []
        self.seq = itertools.count()
        self.expiry: dict[int, float] = {}  # lock made -> its timeout
        self.grid: list[float] = []        # sorted timeouts of every lock made
        self.anchor: float | None = None   # first poll of the grid
        n = len(self.parties)
        self.cancelling, self.watching = [False] * n, [False] * n
        self.revealed = [False] * n        # the party broadcast a cancel
        self.dead = False                  # a party with a principal in did so
        self.closing = {}                  # lock -> confirmation hour of its first spend out
        self.performed = 0                 # steps taken; the claim is the last
        self.asked: list = []              # (question, answer) in the order asked

    def ask(self, party: int, question: str, phase: str | None = None):
        """``party``'s strategy's answer to ``question`` now.

        "move" at a step (``phase``): "act", "cancel" or "skip"; "lag": its
        delay at ``phase``; "acts": whether it performs ``phase`` (asked of
        claims in ``_redeem``); "grief": whether it griefs.  Each is a lookup
        in the party's ``answer_table`` but a ``threshold`` party's move,
        which ``decide`` makes at the hour: "act", or "cancel" on a refusal.
        ``_replay`` answers recorded questions the same way."""
        key = (question, phase)
        answer = self.tables[party].get(key)
        if answer is None:
            answer = "act" if self.decide(party, phase, self.clock) else "cancel"
        self.asked.append(((party, key, self.clock), answer))
        return answer

    # -- event loop ------------------------------------------------------------
    def at(self, time: float, fn, *args, prio: int = 1) -> None:
        """Queue ``fn(*args)`` at ``time``: sweeps coming due (prio 0) run before
        party steps (1), the sweeps of a party that starts watching after them (2)."""
        heapq.heappush(self.queue, (time, prio, next(self.seq), fn, args))

    def run(self) -> None:
        self._schedule(0, 0.0)
        while self.queue:
            self.clock, _, _, fn, args = heapq.heappop(self.queue)
            fn(*args)

    def broadcast(self, chain: Chain, tx: Transaction) -> bool:
        """Broadcast and queue the confirmation, unless another transaction
        pending on the chain is due at the same hour: its observe is queued
        and has not run.  A chain with a delay confirms before the steps of
        that hour; a zero-delay chain confirms what the hour broadcast after
        them, so polls see it at the next poll."""
        if not chain.try_broadcast(tx, self.clock):
            return False
        for t in chain.mempool:
            if t.confirm_time == tx.confirm_time and t is not tx:
                break
        else:
            self.at(tx.confirm_time, self._observe, chain, prio=-1 if chain.confirm_delay else 3)
        return True

    def _observe(self, chain: Chain) -> None:
        """Confirm what is due; a revealed cancel secret lets the parties
        refunding with it do so at the poll that sees it."""
        if not (chain.mempool and chain.next_confirm_time() <= self.clock):
            return
        for e in chain.advance(self.clock):
            for h in e.revealed:
                role = self.plan.roles[h]
                if role != "Hbar" and self.anchor is not None:
                    seen = self.poll_at(e.time + self.timing.t_eps, e.time - chain.confirm_delay)
                    if self.closing.get(self.plan.refunds.get(role), math.inf) >= seen:
                        self.at(seen, self._refund_early, role)

    def poll_at(self, t: float, after: float = -math.inf) -> float:
        """First poll at or after ``t`` and later than ``after``.  Polls fall
        every hour from the first watch and on every timeout, and the hourly
        count restarts at each timeout."""
        goal = max(t, after)
        i = bisect.bisect_right(self.grid, goal)
        p = max(self.anchor, self.grid[i - 1]) if i else self.anchor
        timeout = self.grid[i] if i < len(self.grid) else math.inf
        while p < t or p <= after:
            if goal - p > 8.0 and p < 2.0**53:
                # Skip the whole hours that stay short of ``goal`` and of the
                # next power of two: there they add exactly, as hourly steps
                # would.  A power of two is crossed by a step, which may round.
                p += max(0.0, math.floor(min(goal, math.ldexp(1.0, math.frexp(p)[1])) - p) - 1.0)
            if p + 1.0 == p:
                raise ValueError(f"no hourly poll reaches {goal:g}h: past 2**53 a float has no whole hours")
            p = min(p + 1.0, timeout)
        return p

    # -- ledger helpers --------------------------------------------------------
    def visible(self, role: str) -> bool:
        """Whether ``role``'s secret is seen: ``t_eps`` after a chain first reveals it."""
        h = self.plan.hashes[role]
        shown = min((c.revealed[h][1] for c in self.chains if h in c.revealed), default=math.inf)
        return self.clock >= shown + self.timing.t_eps

    def spent(self, idx: int) -> bool:
        return self.plan.refs[idx] in self.chains[self.actions[idx].chain].spent

    def spend(self, idx: int, party: int, tx_id: str, role: str | None = None) -> bool:
        spend, payout = self.plan.spend_parts(idx, party, role)
        tx = Transaction(tx_id, [spend], [payout])
        sent = self.broadcast(self.chains[self.actions[idx].chain], tx)
        if sent:
            self.closing.setdefault(idx, tx.confirm_time)
        return sent

    def locked(self, party: int) -> bool:
        return any(i in self.expiry for i in self.plan.of[party])

    def own(self, party: int, kind: str) -> list[int]:
        """The party's unspent locks of ``kind``."""
        return [i for i in self.plan.of[party] if i in self.expiry
                and self.actions[i].kind == kind and not self.spent(i)]

    # -- the schedule ----------------------------------------------------------
    def _schedule(self, k: int, shift: float) -> None:
        party, idxs = self.steps[k]
        due = self.actions[idxs[0]].start_time + shift
        give_up = sum(self.timing.wait[self.actions[idxs[0]].chain], due)
        lag = self.ask(party, "lag", self.phase[k])
        self.at(due + lag, self._lock, k, give_up, shift + lag)
        if lag:
            self.at(due, self._missed, k, party, give_up)

    def _missed(self, k: int, party: int, give_up: float) -> None:
        """``party`` did not take step k (the claim if k is past the last lock
        step) when due.  If it has locks in, everyone watches from now on; if
        the step is still missing at ``give_up``, the others cancel.  A party
        that cancelled owes nothing more."""
        def abandon() -> None:
            if not (self.performed > k or self.revealed[party]):
                for p in range(len(self.parties)):
                    if p != party and self.locked(p) and not self.ask(p, "grief"):
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
        # Nobody locks once a party with its principal in has cancelled.
        move = "skip" if self.dead else self.ask(party, "move", self.phase[k])
        if move == "cancel":
            self._cancel(party, alert=True)
        if move != "act":
            self._missed(k, party, give_up)
            return
        for idx in idxs:
            a = self.actions[idx]
            self.dead |= a.kind == "principal" and self.revealed[party]
            expiry = a.timeout + (self.clock - a.start_time)
            ref, contract = self.plan.refs[idx], self.plan.contract(idx, expiry)
            self.broadcast(self.chains[a.chain], Transaction(ref.tx_id, [], [contract]))
            self.expiry[idx] = expiry
            bisect.insort(self.grid, expiry)
            if self.watching[a.timeout_recipient]:
                self._sweep_when_due(idx)
        self.performed = k + 1
        if self.performed < len(self.steps):
            self._schedule(self.performed, shift)
            return
        locked = self.clock + self.chains[self.actions[idxs[-1]].chain].confirm_delay
        give_up, lag = locked + self.timing.claim_wait, self.ask(0, "lag", "claim")
        self.at(locked + lag, self._claim, give_up)
        if lag:
            self.at(locked, self._missed, k + 1, 0, give_up)

    # -- success path ----------------------------------------------------------
    def _claim(self, give_up: float) -> None:
        for c in self.chains:
            self._observe(c)  # the last lock is in, even on a zero-delay chain
        move = self.ask(0, "move", "claim")
        if move == "cancel":
            self._cancel(0, alert=True)
        if move != "act":
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
            if idx not in self.expiry or not self.ask(p, "acts", "claim"):
                continue
            if a.kind == "principal":
                self._release(idx, p, f"claim-{idx}")
            elif not (p == 0 and self.timing.release_with_claim):
                self._release(idx, p, f"reclaim-{idx}")
        self._watch()

    def _release(self, idx: int, party: int, tx_id: str) -> None:
        """Spend with the payment secret, unless a spend is already out."""
        if idx not in self.closing:
            self.spend(idx, party, tx_id, "Hbar")

    # -- cancelling ------------------------------------------------------------
    def _cancel(self, party: int, alert: bool) -> None:
        """Reveal the party's cancel secret through its premium; refund early.
        An alert follows unless everyone cancels, or the party broadcast no
        secret, which it does through a premium (so it has one if it did)."""
        if not self.cancelling[party]:
            self.cancelling[party] = True
            for idx in self.own(party, "premium"):
                self.revealed[party] |= self.spend(idx, party, f"cancel-{idx}", f"H{party}")
            self.dead |= self.revealed[party] and any(
                i in self.expiry for i in self.plan.of[party] if self.actions[i].kind == "principal")
            self._watch(party)
            for idx in self.own(party, "principal"):
                self._refund_early(self.actions[idx].early_refund_hash)
        if alert and self.revealed[party] and not all(self.cancelling):
            chain = next(self.actions[i].chain for i in self.plan.of[party]
                         if self.actions[i].kind == "premium")
            seen = self.clock + self.chains[chain].confirm_delay + self.timing.t_eps
            self.at(self.poll_at(seen), self._alerted, party)

    def _alerted(self, canceller: int) -> None:
        """The others follow a cancel once the canceller's secret is seen."""
        if not self.visible(f"H{canceller}"):
            return
        for p in range(len(self.parties)):
            if p != canceller and not self.cancelling[p]:
                if self.ask(p, "grief"):
                    self._watch(p)
                else:
                    self._cancel(p, alert=True)

    def _refund_early(self, role: str | None) -> None:
        """A cancelling party refunds the principal that ``role`` unlocks early,
        once the secret is seen.  (A party that griefs never cancels.)"""
        idx = self.plan.refunds.get(role)
        if idx in self.expiry:
            party = self.actions[idx].party
            if self.cancelling[party] and not self.spent(idx) and self.visible(role):
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
                for idx in self.plan.owed[party]:
                    if idx in self.expiry:
                        self._sweep_when_due(idx)

    def _sweep_when_due(self, idx: int) -> None:
        def sweep() -> None:
            if not self.spent(idx):
                self.spend(idx, self.actions[idx].timeout_recipient, f"timeout-{idx}")

        due, prio = (self.expiry[idx], 0) if self.expiry[idx] > self.clock else (self.clock, 2)
        if self.closing.get(idx, math.inf) >= due:
            self.at(due, sweep, prio=prio)


def execute(plan: ProtocolInstance, strategies, *, decide=None, value=None,
            tree=None, bound=None) -> TraceVerdict:
    """Run a plan with one strategy per party and audit the trace by the
    plan's safety rule; every lock must be released by ``bound``, by
    default ``_release_bound(plan, strategies)``.

    ``decide(party, phase, now)`` is the threshold strategies' choice;
    ``value`` lists each chain's coin value in the first chain's asset (1 each
    if not given).  ``tree`` is an answer tree (see ``_replay``) of earlier
    traces of this plan: where it holds the strategies' answers the engine
    does not run, and a new trace is added to it.
    """
    tables = [s.answer_table for s in strategies]
    trace = None if tree is None else _replay(tree, tables, decide)
    if trace is None:
        r = _Run(plan, tables, decide)
        r.run()
        trace = _facts(r)
        if tree is not None:
            _grow(tree, r.asked, trace)
    if bound is None:
        bound = _release_bound(plan, strategies)
    return _judge(plan, trace, [s.kind for s in strategies], bound, value)


class _Trace(NamedTuple):
    """What a verdict reads of one finished trace; it holds no strategy, so
    every profile whose answers lead to it can be judged on it, and no
    plan, so nothing in an answer tree refers back to its plan.  A named
    tuple, quick to build once per trace; nothing changes it, its lists or
    the maps of its finished chains."""

    holdings: list         # per chain: its funded_total and balances
    swapped: bool          # every principal was claimed
    spender: list          # per lock: its confirmed spend's id, "" if unspent, None if never made
    revealed: frozenset    # roles revealed on any chain
    worth: tuple           # per party: funded, received; a coin worth 1
    events: list           # sorted by time, chain, tx
    locks_left: int
    last_spend: float
    unconserved: list      # chains whose value is not conserved
    final_time: float


def _facts(r: _Run) -> _Trace:
    """The trace facts of a finished run, in one pass over its locks and one
    over its chains.

    Events never tie on (time, chain, tx): each transaction id spends one
    lock, so one rejected is never confirmed later.  Their own tuple order
    is then the trace order."""
    plan = r.plan
    spender = [None] * len(r.actions)
    for i in r.expiry:
        spender[i] = r.chains[r.actions[i].chain].spent.get(plan.refs[i], "")
    sent = -math.inf  # latest broadcast of a transaction processed
    events, unconserved, locks_left = [], [], 0
    endow, recv = dict.fromkeys(plan.parties, 0.0), dict.fromkeys(plan.parties, 0.0)
    for c in r.chains:
        if c.events:  # a chain appends its events in time order
            sent = max(sent, c.events[-1].time - c.confirm_delay)
            events += c.events
        for p, v in c.funded_total.items():
            endow[p] += v
        for p, v in c.balances.items():
            recv[p] += v
        locks_left += len(c.utxos) + len(c.mempool)
        if not conservation_holds(c):
            unconserved.append(c.id)
    events.sort()
    last = events[-1].time if events else 0.0
    return _Trace(  # the fields in order
        [(c.funded_total, c.balances) for c in r.chains],
        all((spender[i] or "").startswith("claim") for i in plan.principals),
        spender, frozenset(plan.roles.get(h) for c in r.chains for h in c.revealed),
        (endow, recv), events, locks_left,
        next((e.time for e in reversed(events) if e.kind == "confirmed"), 0.0), unconserved,
        # The run ends at the first poll that observes the last confirmation.
        last if r.anchor is None else r.poll_at(last, sent))


def _judge(plan: ProtocolInstance, t: _Trace, kinds, bound: float, scale) -> TraceVerdict:
    """Net value, Correctness, Safety, Liveness and conservation of a trace
    of ``plan`` played by strategies of these kinds; ``scale`` values each
    chain's coins (1 each if None, as the trace's facts hold them)."""
    endow, recv = t.worth
    if scale:  # what each party funded and received, a coin of chain i worth scale[i]
        endow, recv = dict.fromkeys(endow, 0.0), dict.fromkeys(recv, 0.0)
        for f, (funded, held) in zip(scale, t.holdings):
            for p, v in funded.items():
                endow[p] += f * v
            for p, v in held.items():
                recv[p] += f * v
    net = {p: recv[p] - endow[p] for p in endow}
    outcome = "swapped" if t.swapped else ("griefed" if "grief" in kinds else "cancelled")

    witnesses: list[str] = []
    liveness = t.locks_left == 0 and t.last_spend <= bound
    if not liveness:
        witnesses.append(f"liveness: {t.locks_left} unreleased locks, last release at "
                         f"{t.last_spend:g}h (bound {bound:g}h)")
    correctness = t.swapped or any(k != "compliant" for k in kinds)
    if not correctness:
        witnesses.append("correctness: compliant parties failed to swap")
    safe, found = plan.safety(plan, t, kinds, endow, recv)
    witnesses += found
    for chain_id in t.unconserved:
        safe = False
        witnesses.append(f"conservation violated on {chain_id}")
    return TraceVerdict(outcome, net, correctness, safe, liveness, witnesses, list(t.events),
                        t.final_time)


def _compensated(plan: ProtocolInstance, t: _Trace, kinds, endow, recv,
                 rho: float) -> tuple[bool, list[str]]:
    """Two-party rule: a compliant party griefed out of the swap is owed
    c(amount * locktime) = rho * amount * locktime for its locked principal,
    paid by the premiums that time out to it.  The plain HTLC pays none,
    which is exactly the violation the checker is expected to surface
    whenever ``rho`` is positive."""
    actions = plan.actions
    for victim in (0, 1):
        if t.swapped or kinds[victim] != "compliant" or kinds[1 - victim] != "grief":
            continue
        idx = next(i for i in plan.principals if actions[i].party == victim)
        if t.spender[idx] is None:
            continue
        a = actions[idx]
        hours = a.timeout - a.start_time
        required = rho * a.amount * hours
        received = sum(p.amount for i, p in enumerate(actions)
                       if p.kind == "premium" and p.timeout_recipient == victim
                       and t.spender[i] == f"timeout-{i}")
        if received + 1e-9 < required:
            return False, [f"safety: {plan.parties[victim]} griefed with {a.amount:g} locked "
                           f"for {hours:g}h, compensation {received:g} < required {required:g}"]
    return True, []


def recovers_locked(plan: ProtocolInstance, t: _Trace, kinds, endow, recv) -> tuple[bool, list[str]]:
    """Cyclic rule: a compliant party whose outgoing principal was claimed
    holds the incoming one; otherwise it gets back everything it locked
    (premium timeouts may add on top).  A success reveals only "Hbar"."""
    witnesses = []
    if t.swapped and t.revealed != {"Hbar"}:
        witnesses.append(f"success trace revealed {sorted(t.revealed)}")
    expected = dict(endow)
    for idx in plan.principals:
        if (t.spender[idx] or "").startswith("claim"):
            a = plan.actions[idx]
            expected[plan.parties[a.party]] += plan.incoming[a.party] - a.amount
    for p, kind in zip(plan.parties, kinds):
        if kind == "compliant" and recv[p] + 1e-9 < expected[p]:
            witnesses.append(f"safety: {p} received {recv[p]:g} < expected {expected[p]:g}")
    return not any(w.startswith("safety") for w in witnesses), witnesses


def _replay(tree: dict, tables, decide) -> _Trace | None:
    """The trace ``tree`` holds for the answers of strategies with these
    answer tables, or None where it has none.

    A tree node is ``(question, {answer: node})`` and a leaf a ``_Trace``;
    the root sits under the key None.  A question is ``(party, (question,
    phase), hour)``, answered as ``_Run.ask`` answers it.
    """
    node = tree.get(None)
    while type(node) is tuple:  # a _Trace is a tuple subclass, so it ends the walk
        (party, key, clock), branches = node
        answer = tables[party].get(key)
        if answer is None:
            answer = "act" if decide(party, key[1], clock) else "cancel"
        node = branches.get(answer)
    return node


def _grow(tree: dict, asked, trace: _Trace) -> None:
    """Add a run's questions and answers, ending at its trace, to ``tree``."""
    branches, key = tree, None
    for question, answer in asked:
        _, branches = branches.setdefault(key, (question, {}))
        key = answer
    branches[key] = trace


def run(
    instance: ProtocolInstance,
    profile: StrategyProfile,
    price_path=None,
) -> TraceVerdict:
    """Execute one two-party trace with ``execute`` and audit it.
    Deterministic given inputs.

    The engine runs only when the profile's answers leave the instance's
    ``answer_tree``; otherwise the trace found there is judged afresh.  A
    plan that is not two-party, and a strategy that names a phase its party
    does not have in the protocol, are refused.  At the constant price (no ``price_path``) each coin is worth 1,
    which ``execute`` assumes when it is given no values, and no ``decide``
    is made unless a strategy is ``threshold``."""
    phases = _party_phases(instance.kind)
    strategies = (profile.strategy_A, profile.strategy_B)
    for party, s in zip("AB", strategies):
        if s.phase in _PHASES and s.phase not in phases[party]:
            raise ValueError(f"{party}={s.label()}: {party} has no {s.phase} phase in "
                             f"the {instance.kind} protocol")
    x = instance.incoming[0]  # B's principal, y_b at its t1 value in A's asset
    price = price_path or (lambda t: x)
    bound = liveness_bound(instance, profile)
    # Net value in A-asset units at the price once every lock is released.
    value = price_path and [1.0, price(bound + 1.0) / x]
    decide = None
    if "threshold" in (strategies[0].kind, strategies[1].kind):
        def decide(party: int, phase: str, now: float) -> bool:
            """Threshold play: B locks inside its band, A claims above its threshold."""
            if (party, phase) == (1, "lock"):
                lo, hi = instance.thresholds[0]
                return strategies[1].interested and lo < price(now) <= hi
            if (party, phase) == (0, "claim"):
                return strategies[0].interested and price(now) >= instance.thresholds[1]
            return True

    return execute(instance, strategies, decide=decide, value=value, tree=instance.answer_tree,
                   bound=bound)


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


def _party_phases(kind: str) -> dict[str, tuple[str, ...]]:
    """Each party's phases in the two-party protocol ``kind``."""
    if kind not in _PARTY_PHASES:
        raise ValueError(f"unknown protocol kind {kind!r} for a two-party swap")
    return _PARTY_PHASES[kind]


def strategy_grid(kind: str) -> dict[str, list[Strategy]]:
    out: dict[str, list[Strategy]] = {}
    for party, order in _party_phases(kind).items():
        out[party] = ([Strategy("compliant"), Strategy("grief", phase="start")]
                      + [Strategy("grief", phase=ph) for ph in order[:-1]]
                      + [Strategy("cancel", phase=ph) for ph in order]
                      + [Strategy("delay", phase=ph, hours=h) for ph in order for h in (1.0, 6.0, 12.0)])
    return out


def check_properties(instance: ProtocolInstance) -> PropertyReport:
    """Run every profile in the grid and collect per-trace verdicts."""
    grid = strategy_grid(instance.kind)
    a_opts, b_opts = ([(s, s.label()) for s in grid[p]] for p in "AB")
    rows = []
    for a, la in a_opts:
        for b, lb in b_opts:  # each row labelled as StrategyProfile.label does
            v = run(instance, StrategyProfile(a, b))
            rows.append(PropertyRow(f"A={la} B={lb}", v.outcome, v.correctness, v.safety,
                                    v.liveness, v.witnesses))
    return PropertyReport(rows)


# ---------------------------------------------------------------------------
# Monte Carlo oracles (threshold strategies over sampled prices).

def mc_success_rate_htlc(
    p: SwapParams, T: float, Tp: float, n_paths: int, seed: int, band=None
) -> tuple[float, float]:
    """Empirical completion frequency under threshold strategies.

    Draws each party's interested type, then, for the paths where both are
    interested, the price at B's lock decision (horizon tau_a + T'), and,
    for those whose price lies in the analytic band, the price at A's claim
    decision (a further tau_b + T) against the analytic threshold.  Returns
    (frequency, standard error); the mean estimates the raw success rate.
    ``band`` is B's band at ``T`` when the caller has solved it already.
    """
    if band is None:
        band = continuation_band_t2(p, T)
    return _mc_two_stage(p, band, claim_threshold_t3(p), p.tau_a + Tp, p.tau_b + T, n_paths, seed)


def mc_success_rate_quickswap(
    q: QuickSwapParams, n_paths: int, seed: int, band=None
) -> tuple[float, float]:
    """Empirical completion frequency for the premium protocol (delay-free);
    ``band`` is B's t3 band when the caller has solved it already."""
    b = q.base
    if band is None:
        band = continuation_band_t3(q)
    return _mc_two_stage(b, band, claim_threshold_t4(q), b.tau_a, b.tau_b, n_paths, seed)


def _mc_two_stage(
    p: SwapParams, band: np.ndarray, threshold: float, h_lock: float, h_claim: float,
    n_paths: int, seed: int,
) -> tuple[float, float]:
    """Monte Carlo twin of the success rate of ``htlcgame._band_integrals``:
    B locks when the price after ``h_lock`` hours lies in ``band`` (a
    ``(lo, hi)`` pair), then A claims when the price a further ``h_claim``
    hours on is at least ``threshold``; each does so only when interested.
    No band (NaN ends): (0, 0).

    Each cell draws only what can change its outcome, in this order: B's
    type for every path, then A's; the lock-price normals for the paths
    where both are interested; the claim-price normals for those of them
    whose lock price is in the band.  The types are independent of the
    prices, so each path still succeeds with probability
    theta_1 * theta_2 * P(band and claim)."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = band
    if math.isnan(lo):
        return 0.0, 0.0
    mu, sig = p.gbm.mu, p.gbm.sigma

    def growth(n: int, h: float) -> np.ndarray:
        """The price factors over ``h`` hours of ``n`` paths, computed in the
        buffer their normals were drawn into."""
        g = rng.standard_normal(n)
        g *= sig * math.sqrt(h)
        g += (mu - 0.5 * sig**2) * h
        return np.exp(g, out=g)

    interested = np.count_nonzero((rng.random(n_paths) < p.theta_2) & (rng.random(n_paths) < p.theta_1))
    at_lock = growth(interested, h_lock)
    at_lock *= p.x_yb_t1
    at_lock = at_lock[(at_lock > lo) & (at_lock <= hi)]
    at_claim = growth(at_lock.size, h_claim)
    at_claim *= at_lock
    freq = float(np.count_nonzero(at_claim >= threshold) / n_paths)
    se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n_paths)
    return freq, se
