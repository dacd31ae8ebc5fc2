"""n-party cyclic swap: plan generator and validator.

Parties P0..P(n-1) sit on a cycle: Pi pays a_i coins on Chain-i to its
successor P(i+1 mod n).  A single payment hash (held by P0) gates every
principal; each party also holds a cancellation hash whose preimage lets its
successor refund early.  Premiums ride a staggered timelock ladder D + k*Delta
so that a griefing party's premium times out to the successor it damaged,
and earlier victims are compensated no later than later ones.  ``run_cyclic``
executes a plan on the engine every protocol shares, ``protocol.execute``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ledgersim import Chain
from .protocol import LockAction, Strategy, Timing, TraceVerdict, execute, recovers_locked

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
        if not all(map(math.isfinite, (self.D, self.Delta, self.rho, self.t_eps,
                                       *self.amounts, *self.taus, *self.locktimes))):
            raise ValueError("every number of a cyclic spec must be finite")
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
        if self.rho < 0 or self.Delta < 0 or self.D <= 0 or self.t_eps < 0:
            raise ValueError("D must be > 0 and Delta, rho, t_eps >= 0")

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

_STRATEGIES = {
    "compliant": Strategy(),
    "grief-lock": Strategy("grief", phase="start"),     # never lock
    "grief-claim": Strategy("grief", phase="lock"),     # lock, then go silent
}


def run_cyclic(
    plan: CyclicPlan,
    strategies: dict[int, str] | None = None,
) -> TraceVerdict:
    """Execute the plan on n simulated chains with ``protocol.execute``.

    ``strategies`` maps party index to "compliant", "grief-lock" (never lock),
    or "grief-claim" (lock, then go silent).  Compliant parties run the
    success flow when everything locks; otherwise they give up (at once if
    P0 withholds its claim), cancel by revealing their own cancellation
    secret, refund early once their predecessor's secret appears, and
    collect any premium timeout owed to them.
    """
    spec = plan.spec
    strategies = strategies or {}
    if not set(strategies.values()) <= set(_STRATEGIES):
        raise ValueError("strategies must be compliant, grief-lock, or grief-claim")
    return execute(
        plan, tuple(f"P{i}" for i in range(spec.n)),
        [Chain(f"chain-{i}", tau) for i, tau in enumerate(spec.taus)],
        [_STRATEGIES[strategies.get(i, "compliant")] for i in range(spec.n)],
        # Everyone gives up on a missing lock once it would have confirmed on
        # the slowest chain and been seen, and on P0's claim at once.
        Timing(t_eps=spec.t_eps, wait=((max(spec.taus), spec.t_eps),) * spec.n,
               claim_wait=0.0, release_with_claim=False),
        safety=recovers_locked,
    )
