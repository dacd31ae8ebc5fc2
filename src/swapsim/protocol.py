"""Party automata executing the swap protocols on the ledger simulator.

A run wires the protocol's lock graph onto two simulated chains and drives
both parties' automata through an event loop.  Strategies plug into the
automata: ``compliant`` acts at the earliest permitted time, ``grief``
stops cooperating after a phase (but still self-refunds its own outputs at
timeouts), ``delay`` shifts one action, ``cancel`` takes the cancellation
path at a phase, and ``threshold`` consults the game solvers against a
price path.  The property checker sweeps an exhaustive strategy grid and
audits Correctness, Safety, and Liveness on every trace.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

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
    "ProtocolInstance",
    "TraceVerdict",
    "build_htlc_instance",
    "build_quickswap_instance",
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

    # -- automaton queries --------------------------------------------------
    def acts_at(self, phase: str, order: tuple[str, ...]) -> bool:
        """Whether the party performs this protocol phase at all."""
        if self.kind == "grief":
            if self.phase == "start":
                return False
            return order.index(phase) <= order.index(self.phase)
        if self.kind == "cancel":
            # Acts normally before the cancel phase; the cancel phase itself
            # is handled specially by the automaton.
            return order.index(phase) < order.index(self.phase)
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
class ProtocolInstance:
    """A concrete swap: kind, parameters, hash material, and timeline."""

    kind: str  # "htlc" | "quickswap"
    params: SwapParams | QuickSwapParams
    secrets: dict[str, bytes]       # hash id -> preimage
    owners: dict[str, str]          # hash id -> party holding the preimage
    schedule: dict[str, float]      # named protocol times (t1..t5)

    @property
    def base(self) -> SwapParams:
        return self.params.base if isinstance(self.params, QuickSwapParams) else self.params

    def hash_ids(self) -> dict[str, str]:
        """Role name -> hash id mapping (H1 payment, H2/H3 cancellation)."""
        return {role: hid for hid, role in self._roles().items()}

    def _roles(self) -> dict[str, str]:
        if self.kind == "htlc":
            (hid,) = self.secrets.keys()
            return {hid: "H1"}
        ordered = list(self.secrets.keys())
        return {ordered[0]: "H1", ordered[1]: "H2", ordered[2]: "H3"}


def _mk_secret(tag: bytes) -> bytes:
    return tag.ljust(_SECRET_LEN, b"\x00")


def build_htlc_instance(params: SwapParams) -> ProtocolInstance:
    """Plain two-lock HTLC swap: one payment hash held by A."""
    s = _mk_secret(b"htlc-payment-secret")
    h = hash_secret(s)
    b = params
    schedule = {
        "t1": 0.0,
        "t2": b.tau_a,
        "t3": b.tau_a + b.tau_b,
        "t4": b.tau_a + b.tau_b + b.t_eps,
    }
    return ProtocolInstance(
        kind="htlc", params=params, secrets={h: s}, owners={h: "A"}, schedule=schedule
    )


def build_quickswap_instance(params: QuickSwapParams) -> ProtocolInstance:
    """Premium-backed swap: payment hash H1 and cancel hashes H2 (B), H3 (A)."""
    s1 = _mk_secret(b"quick-payment-secret-s1")
    s2 = _mk_secret(b"quick-cancel-secret-s2")
    s3 = _mk_secret(b"quick-cancel-secret-s3")
    h1, h2, h3 = hash_secret(s1), hash_secret(s2), hash_secret(s3)
    b = params.base
    t2 = b.tau_b
    t3 = t2 + b.tau_a
    t4 = t3 + b.tau_b
    schedule = {"t1": 0.0, "t2": t2, "t3": t3, "t4": t4, "t5": t4 + b.t_eps}
    return ProtocolInstance(
        kind="quickswap",
        params=params,
        secrets={h1: s1, h2: s2, h3: s3},
        owners={h1: "A", h2: "B", h3: "A"},
        schedule=schedule,
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
    premium_receipts: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    final_time: float = 0.0


def liveness_bound(instance: ProtocolInstance, profile: StrategyProfile) -> float:
    """Analytic release deadline: every lock is spent by this hour.

    Latest script timeout, plus the lock-graph start offsets, both
    confirmation delays, one propagation lag, the compliant give-up slack,
    and any deliberate delay in the profile.
    """
    b = instance.base
    if instance.kind == "quickswap":
        q = instance.params
        latest_timeout = max(b.t_a, b.t_b, q.D + q.Delta)
        start_offset = b.tau_a + b.tau_b  # last lock starts at t3
    else:
        latest_timeout = max(b.t_a, b.t_b)
        start_offset = b.tau_a
    extra = profile.strategy_A.hours + profile.strategy_B.hours
    slack = b.tau_b / 2.0  # compliant give-up wait
    return latest_timeout + start_offset + b.tau_a + b.tau_b + b.t_eps + slack + extra


# ---------------------------------------------------------------------------
# Event-loop world.

class _World:
    def __init__(self, instance: ProtocolInstance, profile: StrategyProfile, price_path):
        b = instance.base
        self.instance = instance
        self.profile = profile
        self.price = price_path or (lambda t: b.x_yb_t1)
        self.chain_a = Chain("chain-a", b.tau_a)
        self.chain_b = Chain("chain-b", b.tau_b)
        self.chains = {"chain-a": self.chain_a, "chain-b": self.chain_b}
        self.tasks: list[tuple[float, int, object]] = []
        self._seq = 0
        self.refs: dict[str, OutputRef] = {}
        self.flags: set[str] = set()
        self.premium_receipts: dict[str, list[tuple[float, float]]] = {"A": [], "B": []}
        self.now = 0.0

    def at(self, time: float, fn) -> None:
        self._seq += 1
        heapq.heappush(self.tasks, (max(time, self.now), self._seq, fn))

    def advance_to(self, t: float) -> None:
        for c in self.chains.values():
            c.advance(t)
        self.now = t

    def run_until(self, horizon: float) -> None:
        while self.tasks:
            t, _, fn = heapq.heappop(self.tasks)
            if t > horizon:
                break
            self.advance_to(t)
            fn(self)
        self.advance_to(horizon)

    # -- helpers -----------------------------------------------------------
    def strategy(self, party: str) -> Strategy:
        return self.profile.strategy_A if party == "A" else self.profile.strategy_B

    def secret(self, role: str) -> tuple[str, bytes]:
        hid = self.instance.hash_ids()[role]
        return hid, self.instance.secrets[hid]

    def hid(self, role: str) -> str:
        return self.instance.hash_ids()[role]

    def visible(self, party: str, role: str) -> bytes | None:
        """A preimage the party can use: its own, or one observed on-chain."""
        hid = self.hid(role)
        if self.instance.owners[hid] == party:
            return self.instance.secrets[hid]
        t_eps = self.instance.base.t_eps
        for c in self.chains.values():
            pre = c.preimage_visible(hid, t_eps, self.now)
            if pre is not None:
                return pre
        return None

    def unspent(self, name: str) -> bool:
        ref = self.refs.get(name)
        if ref is None:
            return False
        for c in self.chains.values():
            if ref in c.utxos:
                return True
            # still pending confirmation counts as live
            for tx in c.mempool:
                for i, _ in enumerate(tx.creates):
                    if OutputRef(tx.id, i) == ref:
                        return True
        return False

    def confirmed_lock(self, name: str) -> bool:
        ref = self.refs.get(name)
        if ref is None:
            return False
        return any(ref in c.utxos or ref in c.spent for c in self.chains.values())

    def spend(self, chain: Chain, name: str, tx_id: str, claimant: str,
              payouts: list[Payout], preimages: dict[str, bytes] | None = None) -> bool:
        ref = self.refs.get(name)
        if ref is None:
            return False
        tx = Transaction(tx_id, [SpendInput(ref, claimant, preimages or {})], list(payouts))
        return chain.try_broadcast(tx, self.now)


# ---------------------------------------------------------------------------
# HTLC automata.

def _run_htlc(w: _World) -> None:
    inst = w.instance
    b = inst.base
    h1 = w.hid("H1")
    sA, sB = w.strategy("A"), w.strategy("B")

    def a_lock(w: _World) -> None:
        if not sA.acts_at("lock", HTLC_PHASES["A"]):
            return
        tx = Transaction("lock-xa", [], [LockedOutput(b.x_a, (
            SpendBranch("B", frozenset({h1})),
            SpendBranch("A", not_before=w.now + b.t_a),
        ), funder="A")])
        w.chain_a.broadcast(tx, w.now)
        w.refs["xa"] = OutputRef("lock-xa", 0)
        w.flags.add("a-locked")
        t_conf = w.now + b.tau_a
        w.at(t_conf + sB.lag("lock"), b_lock)
        w.at(w.now + b.t_a, lambda ww: _timeout_refund(ww, ww.chain_a, "xa", "refund-xa", "A", b.x_a))

    def b_lock(w: _World) -> None:
        if not w.confirmed_lock("xa"):
            return
        if not sB.acts_at("lock", HTLC_PHASES["B"]):
            return
        if sB.kind == "threshold":
            band = continuation_band_t2(b, 0.0)
            if not sB.interested or band is None or not (band.lo < w.price(w.now) <= band.hi):
                return
        amount = b.x_yb_t1  # y_b denominated at its t1 value in A's asset
        tx = Transaction("lock-yb", [], [LockedOutput(amount, (
            SpendBranch("A", frozenset({h1})),
            SpendBranch("B", not_before=w.now + b.t_b),
        ), funder="B")])
        w.chain_b.broadcast(tx, w.now)
        w.refs["yb"] = OutputRef("lock-yb", 0)
        w.flags.add("b-locked")
        t_conf = w.now + b.tau_b
        w.at(t_conf + sA.lag("claim"), a_claim)
        w.at(w.now + b.t_b, lambda ww: _timeout_refund(ww, ww.chain_b, "yb", "refund-yb", "B", amount))

    def a_claim(w: _World) -> None:
        if not w.confirmed_lock("yb"):
            return
        if not sA.acts_at("claim", HTLC_PHASES["A"]) or sA.cancels_at("claim"):
            return  # stopping and cancelling coincide without a cancel script
        if sA.kind == "threshold":
            if not sA.interested or w.price(w.now) < claim_threshold_t3(b):
                return
        _, s = w.secret("H1")
        if w.spend(w.chain_b, "yb", "claim-yb", "A", [Payout("A", b.x_yb_t1)], {h1: s}):
            w.flags.add("a-claimed")
            w.at(w.now + b.tau_b + b.t_eps, b_claim)

    def b_claim(w: _World) -> None:
        if not sB.acts_at("claim", HTLC_PHASES["B"]):
            return
        pre = w.visible("B", "H1")
        if pre is None:
            return
        if w.spend(w.chain_a, "xa", "claim-xa", "B", [Payout("B", b.x_a)], {h1: pre}):
            w.flags.add("b-claimed")

    w.at(0.0 + sA.lag("lock"), a_lock)


def _timeout_refund(w: _World, chain: Chain, name: str, tx_id: str, party: str, amount: float) -> None:
    """Self-refund of one's own output once its timelock passes (all
    strategies perform these — griefing means withholding cooperation, not
    burning one's own refund)."""
    if not w.unspent(name):
        return
    w.spend(chain, name, tx_id, party, [Payout(party, amount)])


# ---------------------------------------------------------------------------
# Quick Swap automata.

def _run_quickswap(w: _World) -> None:
    inst = w.instance
    q: QuickSwapParams = inst.params
    b = q.base
    Q = q.Q
    h1, h2, h3 = w.hid("H1"), w.hid("H2"), w.hid("H3")
    sA, sB = w.strategy("A"), w.strategy("B")
    delta = b.tau_b / 2.0

    def b_premium(w: _World) -> None:
        if not sB.acts_at("premium", QUICKSWAP_PHASES["B"]) or sB.cancels_at("premium"):
            return
        tx = Transaction("lock-qb", [], [LockedOutput(Q, (
            SpendBranch("B", frozenset({h1, h2})),
            SpendBranch("A", not_before=w.now + q.D + q.Delta),
        ), funder="B")])
        w.chain_b.broadcast(tx, w.now)
        w.refs["qb"] = OutputRef("lock-qb", 0)
        t2 = w.now + b.tau_b
        w.at(t2 + sA.lag("lock"), a_lock)
        # B gives up if A has not locked within tau_a of the expected time.
        w.at(t2 + b.tau_a + delta, b_giveup_premium)
        # A's scripted compensation if B ultimately griefs.
        w.at(w.now + q.D + q.Delta, a_take_qb)

    def a_lock(w: _World) -> None:
        if not w.confirmed_lock("qb"):
            return
        if not sA.acts_at("lock", QUICKSWAP_PHASES["A"]) or sA.cancels_at("lock"):
            return
        lock_time = w.now
        tx = Transaction("lock-a", [], [
            LockedOutput(b.x_a, (
                SpendBranch("B", frozenset({h1})),
                SpendBranch("A", not_before=lock_time + b.t_a),
                SpendBranch("A", frozenset({h2})),
            ), funder="A"),
            LockedOutput(1.5 * Q, (
                SpendBranch("A", frozenset({h1, h3})),
                SpendBranch("B", not_before=lock_time + q.D),
            ), funder="A"),
        ])
        w.chain_a.broadcast(tx, w.now)
        w.refs["xa"] = OutputRef("lock-a", 0)
        w.refs["pa"] = OutputRef("lock-a", 1)
        w.flags.add("a-locked")
        t3 = w.now + b.tau_a
        w.at(t3 + sB.lag("lock"), b_lock)
        # A cancels via s3 if B's principal is not in place in time.
        w.at(t3 + b.tau_b + delta, a_giveup)
        w.at(w.now + b.t_a, lambda ww: _timeout_refund(ww, ww.chain_a, "xa", "refund-xa-timeout", "A", b.x_a))
        # B's scripted compensation if A ultimately griefs.
        w.at(lock_time + q.D, b_take_pa)

    def b_giveup_premium(w: _World) -> None:
        # A never locked: B cancels by reclaiming his premium with s2.
        if "a-locked" in w.flags or not w.unspent("qb"):
            return
        if sB.kind == "grief":
            return
        _, s2 = w.secret("H2")
        w.spend(w.chain_b, "qb", "cancel-qb-early", "B", [Payout("B", Q)], {h2: s2})
        w.flags.add("b-cancelled")

    def b_lock(w: _World) -> None:
        if not w.confirmed_lock("xa"):
            return
        if "a-cancelled" in w.flags or w.visible("B", "H3") is not None:
            return  # A already cancelled; do not lock into a dead swap
        if sB.cancels_at("lock"):
            _, s2 = w.secret("H2")
            w.spend(w.chain_b, "qb", "cancel-qb", "B", [Payout("B", Q)], {h2: s2})
            w.flags.add("b-cancelled")
            w.at(w.now + b.tau_b + b.t_eps, a_after_b_cancel)
            return
        if not sB.acts_at("lock", QUICKSWAP_PHASES["B"]):
            return
        if sB.kind == "threshold":
            band = continuation_band_t3(q)
            if not sB.interested or band is None or not (band.lo < w.price(w.now) <= band.hi):
                _, s2 = w.secret("H2")
                w.spend(w.chain_b, "qb", "cancel-qb", "B", [Payout("B", Q)], {h2: s2})
                w.flags.add("b-cancelled")
                w.at(w.now + b.tau_b + b.t_eps, a_after_b_cancel)
                return
        amount = b.x_yb_t1
        tx = Transaction("lock-yb", [], [LockedOutput(amount, (
            SpendBranch("A", frozenset({h1})),
            SpendBranch("B", not_before=w.now + b.t_b),
            SpendBranch("B", frozenset({h3})),
        ), funder="B")])
        w.chain_b.broadcast(tx, w.now)
        w.refs["yb"] = OutputRef("lock-yb", 0)
        w.flags.add("b-locked")
        t4 = w.now + b.tau_b
        w.at(t4 + sA.lag("claim"), a_claim)
        w.at(w.now + b.t_b, lambda ww: _timeout_refund(ww, ww.chain_b, "yb", "refund-yb-timeout", "B", amount))
        # If A neither claims nor cancels, B recovers what the script allows.
        w.at(t4 + max(b.tau_a, b.tau_b) + b.t_eps + delta, b_giveup_after_lock)

    def a_giveup(w: _World) -> None:
        # B did not lock his principal: A cancels by reclaiming 1.5Q with s3.
        if "b-locked" in w.flags or "b-cancelled" in w.flags or "a-cancelled" in w.flags:
            return
        if not w.unspent("pa"):
            return
        if sA.kind == "grief" and sA.phase in ("lock", "start"):
            return
        _, s3 = w.secret("H3")
        if w.spend(w.chain_a, "pa", "cancel-pa", "A", [Payout("A", 1.5 * Q)], {h3: s3}):
            w.flags.add("a-cancelled")

    def a_claim(w: _World) -> None:
        if not w.confirmed_lock("yb") or "a-cancelled" in w.flags:
            return
        if sA.cancels_at("claim"):
            _, s3 = w.secret("H3")
            if w.spend(w.chain_a, "pa", "cancel-pa", "A", [Payout("A", 1.5 * Q)], {h3: s3}):
                w.flags.add("a-cancelled")
                w.at(w.now + b.tau_a + b.t_eps, b_after_a_cancel)
            return
        if not sA.acts_at("claim", QUICKSWAP_PHASES["A"]):
            return
        if sA.kind == "threshold" and (not sA.interested or w.price(w.now) < claim_threshold_t4(q)):
            _, s3 = w.secret("H3")
            if w.spend(w.chain_a, "pa", "cancel-pa", "A", [Payout("A", 1.5 * Q)], {h3: s3}):
                w.flags.add("a-cancelled")
                w.at(w.now + b.tau_a + b.t_eps, b_after_a_cancel)
            return
        _, s1 = w.secret("H1")
        if w.spend(w.chain_b, "yb", "claim-yb", "A", [Payout("A", b.x_yb_t1)], {h1: s1}):
            w.flags.add("a-claimed")
            w.spend(w.chain_a, "pa", "reclaim-pa", "A", [Payout("A", 1.5 * Q)], {h1: s1})
            w.at(w.now + b.tau_b + b.t_eps, b_redeem)

    def b_redeem(w: _World) -> None:
        if not sB.acts_at("claim", QUICKSWAP_PHASES["B"]):
            return
        pre = w.visible("B", "H1")
        if pre is None:
            return
        w.spend(w.chain_a, "xa", "claim-xa", "B", [Payout("B", b.x_a)], {h1: pre})
        w.spend(w.chain_b, "qb", "reclaim-qb", "B", [Payout("B", Q)], {h1: pre})
        w.flags.add("b-claimed")

    def b_after_a_cancel(w: _World) -> None:
        # A revealed s3: B refunds his principal early and releases s2 so A
        # can refund hers.
        pre = w.visible("B", "H3")
        if pre is None:
            return
        if w.unspent("yb"):
            w.spend(w.chain_b, "yb", "refund-yb-s3", "B", [Payout("B", b.x_yb_t1)], {h3: pre})
        if w.unspent("qb") and not (sB.kind == "grief"):
            _, s2 = w.secret("H2")
            w.spend(w.chain_b, "qb", "cancel-qb", "B", [Payout("B", Q)], {h2: s2})
            w.flags.add("b-cancelled")
            w.at(w.now + b.tau_b + b.t_eps, a_after_b_cancel)

    def a_after_b_cancel(w: _World) -> None:
        # B revealed s2: A refunds her principal early and her premium via s3.
        pre = w.visible("A", "H2")
        if pre is None:
            return
        if w.unspent("xa"):
            w.spend(w.chain_a, "xa", "refund-xa-s2", "A", [Payout("A", b.x_a)], {h2: pre})
        if w.unspent("pa") and "a-cancelled" not in w.flags and sA.kind != "grief":
            _, s3 = w.secret("H3")
            if w.spend(w.chain_a, "pa", "cancel-pa", "A", [Payout("A", 1.5 * Q)], {h3: s3}):
                w.flags.add("a-cancelled")

    def b_giveup_after_lock(w: _World) -> None:
        # A went silent after everything was locked: B takes the scripted
        # compensation path — 1.5Q after D (scheduled separately) — and
        # releases s2 so the principals unwind.
        if w.flags & {"a-claimed", "a-cancelled"}:
            return
        if sB.kind == "grief":
            return
        if w.unspent("qb"):
            _, s2 = w.secret("H2")
            w.spend(w.chain_b, "qb", "cancel-qb", "B", [Payout("B", Q)], {h2: s2})
            w.flags.add("b-cancelled")
            w.at(w.now + b.tau_b + b.t_eps, a_after_b_cancel)

    def a_take_qb(w: _World) -> None:
        # Premium timeout D+Delta: if B's premium is still locked, A collects
        # it as compensation.  A pure timelock sweep needs no cooperation, so
        # every strategy performs it.
        if not w.unspent("qb"):
            return
        if w.spend(w.chain_b, "qb", "compensate-a", "A", [Payout("A", Q)]):
            w.premium_receipts["A"].append((w.now + b.tau_b, Q))

    def b_take_pa(w: _World) -> None:
        # Premium timeout D: if A's premium is still locked, B collects it.
        if not w.unspent("pa"):
            return
        if w.spend(w.chain_a, "pa", "compensate-b", "B", [Payout("B", 1.5 * Q)]):
            w.premium_receipts["B"].append((w.now + b.tau_a, 1.5 * Q))

    w.at(0.0 + sB.lag("premium"), b_premium)


# ---------------------------------------------------------------------------
# Run + verdicts.

def run(
    instance: ProtocolInstance,
    profile: StrategyProfile,
    price_path=None,
) -> TraceVerdict:
    """Execute one trace and audit it.  Deterministic given inputs."""
    w = _World(instance, profile, price_path)
    if instance.kind == "htlc":
        _run_htlc(w)
    elif instance.kind == "quickswap":
        _run_quickswap(w)
    else:
        raise ValueError(f"unknown protocol kind {instance.kind!r}")
    horizon = liveness_bound(instance, profile) + 1.0
    w.run_until(horizon)
    return _verdict(w, horizon)


def _verdict(w: _World, horizon: float) -> TraceVerdict:
    inst, profile = w.instance, w.profile
    b = inst.base
    swapped = {"a-claimed", "b-claimed"} <= w.flags
    any_grief = "grief" in (profile.strategy_A.kind, profile.strategy_B.kind)
    if swapped:
        outcome = "swapped"
    elif any_grief:
        outcome = "griefed"
    else:
        outcome = "cancelled"

    # Net value in A-asset units; chain-b holdings scale with the final price.
    scale = w.price(w.now) / b.x_yb_t1
    endow = {"A": 0.0, "B": 0.0}
    recv = {"A": 0.0, "B": 0.0}
    for c in w.chains.values():
        f = scale if c.id == "chain-b" else 1.0
        for party in ("A", "B"):
            endow[party] += f * c.funded_total.get(party, 0.0)
            recv[party] += f * c.balances.get(party, 0.0)
    net = {p: recv[p] - endow[p] for p in ("A", "B")}

    witnesses: list[str] = []
    events = [e for c in w.chains.values() for e in c.events]
    events.sort(key=lambda e: (e.time, e.chain_id, e.tx_id))
    last_spend = max((e.time for e in events if e.kind == "confirmed"), default=0.0)

    locks_left = sum(len(c.utxos) for c in w.chains.values()) + sum(len(c.mempool) for c in w.chains.values())
    bound = liveness_bound(inst, profile)
    liveness = locks_left == 0 and last_spend <= bound
    if not liveness:
        witnesses.append(f"liveness: {locks_left} unreleased locks past {bound:.2f}h")

    correctness = True
    if profile.strategy_A.kind == "compliant" and profile.strategy_B.kind == "compliant":
        correctness = outcome == "swapped"
        if not correctness:
            witnesses.append("correctness: compliant parties failed to swap")

    safety, safety_witness = _safety_check(w, outcome)
    if safety_witness:
        witnesses.append(safety_witness)
    for c in w.chains.values():
        if not conservation_holds(c):
            witnesses.append(f"conservation violated on {c.id}")
            safety = False

    return TraceVerdict(
        outcome=outcome,
        net_value=net,
        correctness=correctness,
        safety=safety,
        liveness=liveness,
        witnesses=witnesses,
        events=events,
        premium_receipts=dict(w.premium_receipts),
        final_time=last_spend,
    )


def _principal_lock_hours(w: _World, party: str) -> tuple[float, float]:
    """(amount, locktime hours) of the party's principal lock, or (0, 0)."""
    b = w.instance.base
    name = "xa" if party == "A" else "yb"
    if name not in w.refs:
        return 0.0, 0.0
    amount = b.x_a if party == "A" else b.x_yb_t1
    hours = b.t_a if party == "A" else b.t_b
    return amount, hours


def _safety_check(w: _World, outcome: str) -> tuple[bool, str]:
    """Griefed compliant parties must be compensated for their lockup.

    The required compensation is the premium-rate opportunity cost
    c(amount * locktime); the plain HTLC pays none, which is exactly the
    violation the checker is expected to surface.
    """
    inst, profile = w.instance, w.profile
    rho = inst.params.rho if isinstance(inst.params, QuickSwapParams) else 0.001
    strategies = {"A": profile.strategy_A, "B": profile.strategy_B}
    for victim, adversary in (("A", "B"), ("B", "A")):
        if strategies[victim].kind != "compliant":
            continue
        if strategies[adversary].kind != "grief":
            continue
        if outcome == "swapped":
            continue
        amount, hours = _principal_lock_hours(w, victim)
        if amount <= 0.0:
            continue
        required = rho * amount * hours
        received = sum(a for _, a in w.premium_receipts.get(victim, ()))
        if received + 1e-9 < required:
            return False, (
                f"safety: {victim} griefed with {amount:g} locked for {hours:g}h, "
                f"compensation {received:g} < required {required:g}"
            )
    return True, ""


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
