"""n-party cyclic swap generator, validator, and runner.

Parties P0..P(n-1) sit on a cycle: Pi pays a_i coins on Chain-i to its
successor P(i+1 mod n).  A single payment hash (held by P0) gates every
principal; each party also holds a cancellation hash whose preimage lets its
successor refund early.  Premiums ride a staggered timelock ladder D + k*Delta
so that a griefing party's premium times out to the successor it damaged,
and earlier victims are compensated no later than later ones.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .ledgersim import (
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
from .protocol import TraceVerdict

__all__ = [
    "CyclicSpec",
    "LockAction",
    "CyclicPlan",
    "generate",
    "validate_plan",
    "run_cyclic",
]

_SECRET_LEN = 32


@dataclass(frozen=True)
class CyclicSpec:
    """Economic and timing inputs for an n-party cyclic swap."""

    n: int
    amounts: tuple[float, ...]
    taus: tuple[float, ...]
    locktimes: tuple[float, ...]
    D: float
    Delta: float
    rho: float = 0.001
    t_eps: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two parties (n >= 2)")
        for name in ("amounts", "taus", "locktimes"):
            if len(getattr(self, name)) != self.n:
                raise ValueError(f"{name} must have one entry per party")
        if any(a <= 0 for a in self.amounts):
            raise ValueError("amounts must be > 0")
        if any(t < 0 for t in self.taus):
            raise ValueError("confirmation delays must be >= 0")
        for i in range(self.n - 1):
            if not self.locktimes[i] > self.locktimes[i + 1]:
                raise ValueError(
                    f"locktimes must strictly decrease: T{i + 1} >= T{i} "
                    f"({self.locktimes[i + 1]} >= {self.locktimes[i]})"
                )
        ladder_top = self.D + (self.n - 1) * self.Delta
        if not ladder_top < self.locktimes[-1]:
            raise ValueError(
                f"premium ladder exceeds shortest locktime: D + (n-1)*Delta = "
                f"{ladder_top} >= T{self.n - 1} = {self.locktimes[-1]}"
            )
        if self.rho < 0 or self.Delta < 0 or self.D <= 0:
            raise ValueError("D must be > 0 and Delta, rho >= 0")

    def premium(self, i: int) -> float:
        """Premium locked by party i: c(successor principal * its locktime).

        For n = 2 the initiator's premium is the sum of both collateral
        costs, matching the two-party protocol's 1.5Q sizing.
        """
        succ = (i + 1) % self.n
        base = self.rho * self.amounts[succ] * self.locktimes[succ]
        if self.n == 2 and i == 0:
            return base + self.rho * self.amounts[0] * self.locktimes[0]
        return base


@dataclass(frozen=True)
class LockAction:
    """One scheduled lock: who locks what, where, and under which branches."""

    party: int
    chain: int
    amount: float
    kind: str                      # "premium" | "principal"
    start_time: float
    timeout: float                 # absolute hour of the timeout branch
    timeout_recipient: int
    hashlock_claimant: int
    hashlocks: tuple[str, ...]     # role names: "Hbar" and/or "H{i}"
    early_refund_hash: str | None = None   # role name enabling early refund


@dataclass(frozen=True)
class CyclicPlan:
    spec: CyclicSpec
    actions: tuple[LockAction, ...]
    secrets: dict[str, bytes] = field(default_factory=dict)   # role -> preimage
    owners: dict[str, int] = field(default_factory=dict)      # role -> party

    def principal_actions(self) -> list[LockAction]:
        return [a for a in self.actions if a.kind == "principal"]

    def premium_actions(self) -> list[LockAction]:
        return [a for a in self.actions if a.kind == "premium"]


def generate(spec: CyclicSpec) -> CyclicPlan:
    """Lay out the full lock schedule for the cycle.

    The last party leads with its premium; then P0..P(n-2) each lock
    principal + premium in ring order; the last party's principal closes the
    schedule.  Each lock starts when the previous lock has confirmed.
    """
    n = spec.n
    last = n - 1
    secrets = {"Hbar": b"cyclic-payment-secret".ljust(_SECRET_LEN, b"\x00")}
    owners = {"Hbar": 0}
    for i in range(n):
        secrets[f"H{i}"] = f"cyclic-cancel-secret-{i}".encode().ljust(_SECRET_LEN, b"\x00")
        owners[f"H{i}"] = i

    actions: list[LockAction] = []
    t = 0.0
    # Leading premium by the last party, compensating P0 on timeout.
    actions.append(LockAction(
        party=last, chain=last, amount=spec.premium(last), kind="premium",
        start_time=t, timeout=spec.D + (n - 1) * spec.Delta, timeout_recipient=0,
        hashlock_claimant=last, hashlocks=("Hbar", f"H{last}"),
    ))
    t += spec.taus[last]
    for i in range(n - 1):
        pred = (i - 1) % n
        actions.append(LockAction(
            party=i, chain=i, amount=spec.amounts[i], kind="principal",
            start_time=t, timeout=t + spec.locktimes[i], timeout_recipient=i,
            hashlock_claimant=(i + 1) % n, hashlocks=("Hbar",),
            early_refund_hash=f"H{pred}",
        ))
        actions.append(LockAction(
            party=i, chain=i, amount=spec.premium(i), kind="premium",
            start_time=t, timeout=spec.D + (n - 2 - i) * spec.Delta,
            timeout_recipient=(i + 1) % n,
            hashlock_claimant=i, hashlocks=("Hbar", f"H{i}"),
        ))
        t += spec.taus[i]
    actions.append(LockAction(
        party=last, chain=last, amount=spec.amounts[last], kind="principal",
        start_time=t, timeout=t + spec.locktimes[last], timeout_recipient=last,
        hashlock_claimant=0, hashlocks=("Hbar",),
        early_refund_hash=f"H{(last - 1) % n}",
    ))
    return CyclicPlan(spec=spec, actions=tuple(actions), secrets=secrets, owners=owners)


def validate_plan(plan: CyclicPlan) -> list[str]:
    """Structural audit; returns a list of violations (empty when sound)."""
    spec = plan.spec
    n = spec.n
    problems: list[str] = []

    principals = plan.principal_actions()
    if len(principals) != n:
        problems.append(f"expected {n} principal locks, found {len(principals)}")
    lock_horizons = [a.timeout - a.start_time for a in sorted(principals, key=lambda a: a.party)]
    for i in range(len(lock_horizons) - 1):
        if not lock_horizons[i] > lock_horizons[i + 1]:
            problems.append(
                f"principal locktimes not strictly decreasing at parties {i},{i + 1}"
            )

    premiums = sorted(plan.premium_actions(), key=lambda a: a.start_time)
    for earlier, later in zip(premiums[:-1], premiums[1:]):
        if not math.isclose(earlier.timeout - later.timeout, spec.Delta, abs_tol=1e-9):
            problems.append(
                f"premium ladder step between parties {earlier.party},{later.party} "
                f"is {earlier.timeout - later.timeout:g}, expected Delta={spec.Delta:g}"
            )

    cancel_hashes = set()
    for a in principals:
        if a.early_refund_hash is None:
            problems.append(f"principal of party {a.party} lacks an early-refund hash")
        elif a.early_refund_hash in cancel_hashes:
            problems.append(f"cancellation hash {a.early_refund_hash} reused")
        else:
            cancel_hashes.add(a.early_refund_hash)
        owner = plan.owners.get(a.early_refund_hash)
        if owner is not None and owner != (a.party - 1) % n:
            problems.append(
                f"principal of party {a.party} refundable by hash of party {owner}, "
                f"expected predecessor {(a.party - 1) % n}"
            )
        if a.hashlocks != ("Hbar",):
            problems.append(f"principal of party {a.party} not gated by the payment hash alone")
    return problems


# ---------------------------------------------------------------------------
# Execution.

def run_cyclic(
    plan: CyclicPlan,
    strategies: dict[int, str] | None = None,
) -> TraceVerdict:
    """Execute the plan on n simulated chains.

    ``strategies`` maps party index to "compliant", "grief-lock" (never lock),
    or "grief-claim" (lock, then go silent).  Compliant parties run the
    success flow when everything locks, and otherwise cancel by revealing
    their own cancellation secret, refund early once their predecessor's
    secret appears, and collect any premium timeout owed to them.
    """
    spec = plan.spec
    n = spec.n
    strategies = dict(strategies or {})
    for i in range(n):
        strategies.setdefault(i, "compliant")
    if not set(strategies.values()) <= {"compliant", "grief-lock", "grief-claim"}:
        raise ValueError("strategies must be compliant, grief-lock, or grief-claim")

    chains = [Chain(f"chain-{i}", spec.taus[i]) for i in range(n)]
    hashes = {role: hash_secret(pre) for role, pre in plan.secrets.items()}

    def branch(action: LockAction) -> tuple[SpendBranch, ...]:
        branches = [
            SpendBranch(f"P{action.hashlock_claimant}",
                        frozenset(hashes[r] for r in action.hashlocks)),
            SpendBranch(f"P{action.timeout_recipient}", not_before=action.timeout),
        ]
        if action.early_refund_hash is not None:
            branches.append(SpendBranch(f"P{action.party}",
                                        frozenset({hashes[action.early_refund_hash]})))
        return tuple(branches)

    clock = 0.0

    def advance_all(to: float) -> None:
        nonlocal clock
        to = max(to, clock)
        for c in chains:
            c.advance(to)
        clock = to

    # --- lock phase -------------------------------------------------------
    refs: dict[int, OutputRef] = {}
    locked_upto = -1
    broken_at: float | None = None
    for idx, action in enumerate(plan.actions):
        if strategies[action.party] == "grief-lock":
            broken_at = action.start_time
            break
        if action.start_time > clock:
            advance_all(action.start_time)
        tx = Transaction(f"lock-{idx}", [], [LockedOutput(
            action.amount, branch(action), funder=f"P{action.party}")])
        chains[action.chain].broadcast(tx, clock)
        refs[idx] = OutputRef(tx.id, 0)
        locked_upto = idx

    all_locked = locked_upto == len(plan.actions) - 1
    if all_locked:
        last_confirm = plan.actions[-1].start_time + spec.taus[plan.actions[-1].chain]
        advance_all(last_confirm)

    def spend(idx: int, claimant: int, tx_id: str, preimage_roles: tuple[str, ...]) -> bool:
        action = plan.actions[idx]
        pres = {hashes[r]: plan.secrets[r] for r in preimage_roles}
        tx = Transaction(tx_id, [SpendInput(refs[idx], f"P{claimant}", pres)],
                         [Payout(f"P{claimant}", action.amount)])
        return chains[action.chain].try_broadcast(tx, clock)

    if all_locked:
        # --- claim phase --------------------------------------------------
        if strategies[0] == "compliant":
            # P0 reveals the payment secret by claiming the last principal.
            last_principal = len(plan.actions) - 1
            spend(last_principal, 0, "claim-final", ("Hbar",))
            advance_all(clock + spec.taus[plan.actions[last_principal].chain])
            # Every other party claims its incoming principal and reclaims
            # its premium once the secret propagates.
            advance_all(clock + spec.t_eps)
            for idx, action in enumerate(plan.actions[:-1]):
                claimant = action.hashlock_claimant
                if action.kind == "principal" and strategies[claimant] == "compliant":
                    spend(idx, claimant, f"claim-{idx}", ("Hbar",))
                if action.kind == "premium" and strategies[action.party] == "compliant":
                    spend(idx, action.party, f"reclaim-{idx}", ("Hbar",))
            cancelling = False
        else:
            # P0 griefs after locking: everyone else cancels.
            cancelling = True
    else:
        # Lock phase broke off: compliant parties that already locked cancel
        # once the missing lock has had time to appear.
        give_up = (broken_at or clock) + max(spec.taus) + spec.t_eps
        advance_all(give_up)
        cancelling = True

    # --- settlement loop --------------------------------------------------
    # Fires every timeout the moment it comes due, and (on failure paths)
    # lets compliant parties cancel premiums and refund principals early as
    # the enabling preimages propagate.  Duplicate broadcasts are rejected
    # by the ledger, so each pass can simply retry everything outstanding.
    # Parties poll every hour and at every timeout.  A pass can only act
    # after a confirmation, a preimage sighting or a timeout, so the loop
    # skips the polls before the earliest of these and lands on the first
    # poll at or past it: the clock values are those of polling every hour.
    def cancel_pass() -> None:
        for idx, action in enumerate(plan.actions):
            if idx not in refs or strategies[action.party] != "compliant":
                continue
            if refs[idx] in chains[action.chain].spent:
                continue
            if action.kind == "premium":
                spend(idx, action.party, f"cancel-{idx}", (f"H{action.party}",))
            else:
                role = action.early_refund_hash
                visible = any(
                    c.preimage_visible(hashes[role], spec.t_eps, clock) is not None
                    for c in chains
                )
                if visible:
                    spend(idx, action.party, f"early-refund-{idx}", (role,))

    horizon = max(a.timeout for a in plan.actions) + max(spec.taus) + spec.t_eps + 1.0
    pending = sorted((a.timeout, idx) for idx, a in enumerate(plan.actions) if idx in refs)
    timeouts = [t for t, _ in pending]

    def next_poll(t: float) -> float:
        later = bisect.bisect_right(timeouts, t)
        return min(timeouts[later], t + 1.0) if later < len(timeouts) else t + 1.0

    def next_event() -> float:
        due = [c.next_confirm_time() for c in chains if c.mempool]
        due += [at + spec.t_eps for c in chains for _, at in c.revealed.values()
                if at + spec.t_eps > clock]
        due += [t for t, idx in pending
                if t > clock and refs[idx] not in chains[plan.actions[idx].chain].spent]
        return min(due, default=horizon)

    while True:
        for t_out, idx in pending:
            action = plan.actions[idx]
            if t_out <= clock and refs[idx] not in chains[action.chain].spent:
                recipient = action.timeout_recipient
                tx = Transaction(f"timeout-{idx}",
                                 [SpendInput(refs[idx], f"P{recipient}")],
                                 [Payout(f"P{recipient}", action.amount)])
                chains[action.chain].try_broadcast(tx, clock)
        if cancelling:
            cancel_pass()
        unresolved = any(
            refs[idx] not in chains[plan.actions[idx].chain].spent for idx in refs
        ) or any(c.mempool for c in chains)
        if not unresolved or clock >= horizon:
            break
        target = min(next_event(), horizon)
        poll = next_poll(clock)
        while poll < target:
            poll = next_poll(poll)
        advance_all(poll)

    return _cyclic_verdict(plan, chains, strategies, clock)


def _cyclic_verdict(plan: CyclicPlan, chains, strategies, final_time) -> TraceVerdict:
    spec = plan.spec
    n = spec.n
    parties = [f"P{i}" for i in range(n)]
    endow = {p: 0.0 for p in parties}
    recv = {p: 0.0 for p in parties}
    for c in chains:
        for p in parties:
            endow[p] += c.funded_total.get(p, 0.0)
            recv[p] += c.balances.get(p, 0.0)
    net = {p: recv[p] - endow[p] for p in parties}

    principals = plan.principal_actions()
    outgoing_claimed = {i: False for i in range(n)}
    for idx, action in enumerate(plan.actions):
        if action.kind != "principal":
            continue
        tx_id = chains[action.chain].spent.get(OutputRef(f"lock-{idx}", 0))
        if tx_id is not None and tx_id.startswith("claim"):
            outgoing_claimed[action.party] = True
    swapped = all(outgoing_claimed.values())
    any_grief = any(s != "compliant" for s in strategies.values())
    outcome = "swapped" if swapped else ("griefed" if any_grief else "cancelled")

    witnesses: list[str] = []
    roles = {hash_secret(pre): role for role, pre in plan.secrets.items()}
    revealed_roles = {roles[h] for c in chains for h in c.revealed if h in roles}
    if swapped and revealed_roles != {"Hbar"}:
        witnesses.append(f"success trace revealed {sorted(revealed_roles)}")

    locks_left = sum(len(c.utxos) for c in chains) + sum(len(c.mempool) for c in chains)
    liveness = locks_left == 0
    if not liveness:
        witnesses.append(f"liveness: {locks_left} unreleased locks")

    safety = True
    for i in range(n):
        if strategies[i] != "compliant":
            continue
        p = f"P{i}"
        # A compliant party whose outgoing principal was taken must have the
        # incoming one; otherwise it must recover everything it locked
        # (premium timeouts may add on top of the refunds).
        expected = endow[p]
        if outgoing_claimed[i]:
            expected += spec.amounts[(i - 1) % n] - spec.amounts[i]
        if recv[p] + 1e-9 < expected:
            safety = False
            witnesses.append(f"safety: {p} received {recv[p]:g} < expected {expected:g}")
    for c in chains:
        if not conservation_holds(c):
            safety = False
            witnesses.append(f"conservation violated on {c.id}")

    correctness = True
    if all(s == "compliant" for s in strategies.values()):
        correctness = swapped
        if not correctness:
            witnesses.append("correctness: all-compliant cycle failed to swap")

    events = [e for c in chains for e in c.events]
    events.sort(key=lambda e: (e.time, e.chain_id, e.tx_id))
    return TraceVerdict(
        outcome=outcome,
        net_value=net,
        correctness=correctness,
        safety=safety,
        liveness=liveness,
        witnesses=witnesses,
        events=events,
        final_time=final_time,
    )
