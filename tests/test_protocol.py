import bisect
import gc
import math
import re
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import baseline, quick_baseline
from swapsim import protocol
from swapsim.htlcgame import claim_threshold_t3, continuation_band_t2, success_rate
from swapsim.ledgersim import Chain
from swapsim.pricemodel import GbmParams
from swapsim.protocol import (
    LockAction,
    ProtocolInstance,
    Strategy,
    StrategyProfile,
    Timing,
    build_htlc_instance,
    build_quickswap_instance,
    check_properties,
    execute,
    liveness_bound,
    mc_success_rate_htlc,
    mc_success_rate_quickswap,
    run,
    strategy_grid,
)
from swapsim.quickswapgame import continuation_band_t3, success_rate as quick_success_rate

COMPLIANT = StrategyProfile(Strategy("compliant"), Strategy("compliant"))


def test_compliant_htlc_swaps():
    v = run(build_htlc_instance(baseline()), COMPLIANT)
    assert v.outcome == "swapped"
    assert v.correctness and v.safety and v.liveness
    # Exactly the payment preimage is revealed on-chain.
    revealed = [h for e in v.events for h in e.revealed]
    assert len(set(revealed)) == 1


def test_compliant_htlc_swaps_when_a_claim_confirms_at_a_repeated_hour():
    # B's lock confirms at 3 + 1e-17 == 3.0, and A's claim, broadcast at
    # that hour, is due at it too.  The observe queued for the lock had
    # already run, so one must be queued for the claim, or it never
    # confirms and the swap reads cancelled with two unreleased locks.
    v = run(build_htlc_instance(baseline(tau_b=1e-17)), COMPLIANT)
    assert v.outcome == "swapped"
    assert v.correctness and v.safety and v.liveness


def test_compliant_quickswap_swaps():
    v = run(build_quickswap_instance(quick_baseline()), COMPLIANT)
    assert v.outcome == "swapped"
    assert v.correctness and v.safety and v.liveness
    # Premiums return to their owners on the happy path: net value is the
    # pure principal exchange.
    assert v.net_value["A"] == pytest.approx(-v.net_value["B"], abs=1e-9)


def test_htlc_griefing_violates_safety():
    inst = build_htlc_instance(baseline())
    v = run(inst, StrategyProfile(Strategy("compliant"), Strategy("grief", phase="start")))
    assert v.outcome == "griefed"
    assert not v.safety          # A's principal sat locked with no compensation
    assert v.liveness            # ...but every lock is eventually released


def test_quickswap_griefing_compensated():
    inst = build_quickswap_instance(quick_baseline())
    q = quick_baseline()
    v = run(inst, StrategyProfile(Strategy("compliant"), Strategy("grief", phase="premium")))
    assert v.outcome == "griefed"
    assert v.safety and v.liveness
    # B walked away after posting the premium; A pockets it.
    assert v.net_value["A"] == pytest.approx(q.Q, abs=1e-9)


def test_quickswap_a_griefing_pays_b():
    inst = build_quickswap_instance(quick_baseline())
    q = quick_baseline()
    v = run(inst, StrategyProfile(Strategy("grief", phase="lock"), Strategy("compliant")))
    assert v.safety and v.liveness
    # A's 1.5Q collateral times out to B, who forfeits its own Q: net +Q/2.
    assert v.net_value["B"] == pytest.approx(0.5 * q.Q, abs=1e-9)


def test_cancel_path_is_safe():
    inst = build_quickswap_instance(quick_baseline())
    v = run(inst, StrategyProfile(Strategy("compliant"), Strategy("cancel", phase="lock")))
    assert v.outcome == "cancelled"
    assert v.safety and v.liveness


def test_delayed_compliance_still_swaps_within_bound():
    inst = build_quickswap_instance(quick_baseline())
    profile = StrategyProfile(Strategy("delay", phase="claim", hours=6.0),
                              Strategy("delay", phase="lock", hours=1.0))
    v = run(inst, profile)
    assert v.outcome == "swapped"
    assert v.final_time <= liveness_bound(inst, profile)
    assert v.liveness


def test_liveness_bound_grows_with_delays():
    inst = build_htlc_instance(baseline())
    slow = StrategyProfile(Strategy("delay", phase="claim", hours=12.0), Strategy("compliant"))
    assert liveness_bound(inst, slow) > liveness_bound(inst, COMPLIANT)


@pytest.mark.parametrize("strategy", [
    lambda: Strategy("grief", phase="lock", hours=5.0),
    lambda: Strategy("grief", phase="lock", hours=500.0),
    lambda: Strategy("cancel", phase="claim", hours=1.0),
    lambda: Strategy("compliant", hours=2.0),
    lambda: Strategy("threshold", hours=-1.0),
], ids=["grief-5h", "grief-500h", "cancel", "compliant", "threshold"])
def test_only_a_delay_strategy_takes_hours(strategy):
    # The engine plays hours only as a delay's lag.  A grief given 500 hours
    # played the events of a plain grief, yet widened the default HTLC plan's
    # liveness bound from 59.5 h to 559.5 h, so a late release passed.
    with pytest.raises(ValueError, match="only a delay strategy takes hours"):
        strategy()


@pytest.mark.parametrize("build", [
    lambda **kw: build_htlc_instance(baseline(**kw)),
    lambda **kw: build_quickswap_instance(quick_baseline(D=5.0, Delta=1.0, tau_b=1.0, **kw)),
], ids=["htlc", "quickswap"])
def test_two_party_locks_held_equally_long_are_refused(build):
    # t_b = 2^40 + 2^-12 has an odd last bit and tau_a is half its spacing,
    # so B's timeout tau_a + t_b rounds up by 2^-13 and its lock is held
    # 2^40 + 2^-11 h: as long as A's, at t_a = t_b + 2^-12 > t_b.  Such a
    # plan validated.  One spacing more and A's lock is held longer.
    t_b, tau_a = 2.0 ** 40 + 2.0 ** -12, 2.0 ** -13
    game = dict(t_b=t_b, tau_a=tau_a, t_eps=0.0, eps=0.0, r_a=0.0, r_b=0.0, gbm=GbmParams(0.0, 0.1))
    with pytest.raises(ValueError, match="t_a must exceed t_b over the hours the plan holds them"):
        build(t_a=t_b + 2.0 ** -12, **game)
    plan = build(t_a=t_b + 2.0 ** -11, **game)
    a_lock, b_lock = (plan.actions[i] for i in plan.principals)
    assert a_lock.timeout - a_lock.start_time > b_lock.timeout - b_lock.start_time


def test_run_computes_the_liveness_bound_once(monkeypatch):
    inst = build_htlc_instance(baseline())
    grief = StrategyProfile(Strategy("compliant"), Strategy("grief", phase="lock"))
    assert liveness_bound(inst, grief) == liveness_bound(inst, COMPLIANT) == 59.5
    calls = []
    bound = protocol._release_bound
    monkeypatch.setattr(protocol, "_release_bound", lambda *a: calls.append(a) or bound(*a))
    for profile in (COMPLIANT, grief, COMPLIANT):  # the last is replayed from the answer tree
        run(inst, profile)
    assert len(calls) == 3


@pytest.mark.parametrize("kind, kwargs", [
    ("grief", {"phase": "bogus"}),
    ("cancel", {"phase": "claimm"}),
    ("delay", {"phase": "lokc", "hours": 2.0}),
    ("delay", {"phase": "lock", "hours": math.nan}),
    ("delay", {"phase": "lock", "hours": math.inf}),
], ids=["grief-bogus-phase", "cancel-misspelt-phase", "delay-misspelt-phase",
        "nan-hours", "infinite-hours"])
def test_strategy_rejects_bad_inputs_when_built(kind, kwargs):
    # Each of these used to fail mid-run, play compliant, print "bound nanh"
    # or hang in the poll loop.
    with pytest.raises(ValueError, match="phase|finite"):
        Strategy(kind, **kwargs)


def test_strategy_grid_composition():
    grid = strategy_grid("htlc")
    assert set(grid) == {"A", "B"}
    # compliant + grief(start, lock) + cancel(2 phases) + delay(3h x 2 phases)
    assert len(grid["A"]) == 11
    labels = {s.label() for s in grid["A"]}
    assert "compliant" in labels and "grief(start)" in labels


@pytest.mark.parametrize("kind", ["cyclic", "HTLC"])
def test_strategy_grid_refuses_an_unknown_kind(kind):
    # "cyclic" used to give B the 16 Quick Swap options.
    with pytest.raises(ValueError, match=re.escape(f"unknown protocol kind {kind!r}")):
        strategy_grid(kind)


def test_check_properties_quickswap_clean():
    report = check_properties(build_quickswap_instance(quick_baseline()))
    assert report.safety_violations == []
    assert report.liveness_ok and report.correctness_ok


def test_check_properties_htlc_violations_present_and_confined():
    report = check_properties(build_htlc_instance(baseline()))
    violations = report.safety_violations
    assert violations, "the plain swap must exhibit griefing damage"
    assert all("grief" in r.profile for r in violations)
    assert report.liveness_ok


def test_htlc_safety_uses_instance_rho():
    free = check_properties(build_htlc_instance(baseline(), rho=0.0))
    assert free.safety_violations == []  # nothing is owed for a free lockup
    default = check_properties(build_htlc_instance(baseline()))
    assert default.safety_violations
    assert all("grief" in r.profile for r in default.safety_violations)
    griefed = StrategyProfile(Strategy("compliant"), Strategy("grief", phase="lock"))
    (witness,) = run(build_htlc_instance(baseline(), rho=0.01), griefed).witnesses
    assert witness.endswith("required 0.96")  # 0.01 * 2.0 * 48h


def test_threshold_strategies_follow_price():
    p = baseline()
    inst = build_htlc_instance(p)
    profile = StrategyProfile(Strategy("threshold"), Strategy("threshold"))
    lo, hi = continuation_band_t2(p, 0.0).tolist()
    x_star = claim_threshold_t3(p)
    good = 0.5 * (lo + hi)
    assert run(inst, profile, price_path=lambda t: max(good, x_star + 0.1)).outcome == "swapped"
    # A price below B's lock band keeps B out.
    v = run(inst, profile, price_path=lambda t: lo * 0.5)
    assert v.outcome == "cancelled"
    assert v.safety and v.liveness


@pytest.mark.parametrize("kind", ["htlc", "quickswap"])
def test_thresholds_solved_once_per_instance(monkeypatch, kind):
    calls = []
    for name in ("continuation_band_t2", "continuation_band_t3"):
        solve = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *a, solve=solve: calls.append(a) or solve(*a))
    inst = build_htlc_instance(baseline()) if kind == "htlc" else build_quickswap_instance(quick_baseline())
    # Strategies without a threshold never ask for the band.
    check_properties(inst)
    assert calls == []
    threshold = StrategyProfile(Strategy("threshold"), Strategy("threshold"))
    outcomes = {run(inst, threshold, price_path=lambda t, k=k: 1.5 + 0.02 * k).outcome for k in range(50)}
    assert len(calls) == 1
    assert outcomes == {"swapped", "cancelled"}


def test_mc_oracle_matches_analytic_htlc():
    p = baseline()
    analytic = success_rate(p, 0.0, 0.0)
    freq, se = mc_success_rate_htlc(p, 0.0, 0.0, 100_000, seed=42)
    assert se > 0
    assert abs(freq - analytic) <= 3.0 * se


def test_mc_oracle_matches_analytic_quickswap():
    q = quick_baseline()
    analytic = quick_success_rate(q)
    freq, se = mc_success_rate_quickswap(q, 100_000, seed=43)
    assert abs(freq - analytic) <= 3.0 * se


def test_mc_oracles_deterministic():
    p = baseline()
    assert mc_success_rate_htlc(p, 1.0, 2.0, 5_000, seed=7) == \
        mc_success_rate_htlc(p, 1.0, 2.0, 5_000, seed=7)


def test_mc_cells_fill_their_draw_buffers_in_place():
    # Both types for every path, then the lock prices of the paths where
    # both are interested and the claim prices of those in B's band, each
    # computed in its normals' buffer: under 16 B a path.  The draws and the
    # result match the plain array formula.
    p, n = baseline(), 200_000
    band = continuation_band_t2(p, 1.0)
    threshold, h_lock, h_claim = claim_threshold_t3(p), p.tau_a + 2.0, p.tau_b + 1.0
    tracemalloc.start()
    try:
        got = protocol._mc_two_stage(p, band, threshold, h_lock, h_claim, n, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n
    assert peak < 16 * n
    rng = np.random.default_rng(11)
    mu, sig = p.gbm.mu, p.gbm.sigma
    both = (rng.random(n) < p.theta_2) & (rng.random(n) < p.theta_1)
    z1 = rng.standard_normal(np.count_nonzero(both))
    at_lock = p.x_yb_t1 * np.exp((mu - 0.5 * sig**2) * h_lock + sig * math.sqrt(h_lock) * z1)
    in_band = at_lock[(at_lock > band[0]) & (at_lock <= band[1])]
    z2 = rng.standard_normal(in_band.size)
    at_claim = in_band * np.exp((mu - 0.5 * sig**2) * h_claim + sig * math.sqrt(h_claim) * z2)
    freq = np.count_nonzero(at_claim >= threshold) / n
    assert got == (freq, math.sqrt(max(freq * (1.0 - freq), 1e-12) / n))
    assert type(got[0]) is float
    assert 0.0 < freq < 1.0


class _CountingRng:
    """Wraps a generator and records the size of each draw it hands out."""

    def __init__(self, rng):
        self.rng, self.uniforms, self.normals = rng, [], []

    def random(self, size):
        self.uniforms.append(size)
        return self.rng.random(size)

    def standard_normal(self, size):
        self.normals.append(size)
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("theta_1", [0.5, 0.0])
def test_mc_cells_draw_prices_only_for_paths_that_can_succeed(monkeypatch, theta_1):
    # Both types for every path, a lock price for each path where both
    # parties are interested and a claim price for each of those in B's
    # band; no price at all when A is never interested.  The band and the
    # threshold are those of the default types.
    p, n, seed = baseline(theta_1=theta_1), 20_000, 3
    band, threshold = continuation_band_t2(baseline(), 1.0), claim_threshold_t3(baseline())
    h_lock = p.tau_a + 2.0
    default_rng, made = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: made.append(_CountingRng(default_rng(s))) or made[-1])
    got = protocol._mc_two_stage(p, band, threshold, h_lock, p.tau_b + 1.0, n, seed)
    (drawn,) = made
    rng = default_rng(seed)
    interested = np.count_nonzero((rng.random(n) < p.theta_2) & (rng.random(n) < p.theta_1))
    mu, sig = p.gbm.mu, p.gbm.sigma
    at_lock = p.x_yb_t1 * np.exp((mu - 0.5 * sig**2) * h_lock
                                 + sig * math.sqrt(h_lock) * rng.standard_normal(interested))
    in_band = np.count_nonzero((at_lock > band[0]) & (at_lock <= band[1]))
    assert drawn.uniforms == [n, n]
    assert sum(drawn.normals) == interested + in_band
    if theta_1 == 0.0:
        assert sum(drawn.normals) == 0
        assert got == (0.0, math.sqrt(1e-12 / n))
    else:
        assert 0 < in_band < interested < n / 2


@pytest.mark.parametrize("kind", ["htlc", "quickswap"])
def test_mc_oracle_z_scores_are_standard_normal_over_seeds(kind):
    # 400 seeds of one cell: the z of each draw against the analytic rate has
    # mean 0 within 3/sqrt(400) and a standard deviation near 1.
    n = 20_000
    if kind == "htlc":
        p = baseline(x_a=2.1)
        band = continuation_band_t2(p, 2.0)
        analytic = success_rate(p, 2.0, 1.0)
        freqs = [mc_success_rate_htlc(p, 2.0, 1.0, n, seed=s, band=band)[0] for s in range(400)]
    else:
        q = quick_baseline(x_a=2.0)
        band = continuation_band_t3(q)
        analytic = quick_success_rate(q)
        freqs = [mc_success_rate_quickswap(q, n, seed=s, band=band)[0] for s in range(400)]
    z = (np.array(freqs) - analytic) / math.sqrt(analytic * (1.0 - analytic) / n)
    assert abs(z.mean()) <= 0.15
    assert 0.9 <= z.std() <= 1.1


def _instance(kind: str, **overrides):
    if kind == "htlc":
        return build_htlc_instance(baseline(**overrides))
    return build_quickswap_instance(quick_baseline(**overrides))


def _profiles(kind: str) -> list[StrategyProfile]:
    grid = strategy_grid(kind)
    return [StrategyProfile(a, b) for a in grid["A"] for b in grid["B"]]


THRESHOLDS = [StrategyProfile(a, b)
              for a in (Strategy("threshold"), Strategy("threshold", interested=False))
              for b in (Strategy("threshold"), Strategy("threshold", interested=False))]


@pytest.mark.parametrize("overrides", [{}, {"sigma": 0.2, "x_a": 2.4}, {"tau_a": 0.0, "tau_b": 0.0}],
                         ids=["default", "sigma0.2-xa2.4", "zero-delays"])
@pytest.mark.parametrize("kind", ["htlc", "quickswap"])
def test_shared_instance_verdicts_equal_fresh_runs(kind, overrides):
    # One instance serves the grid and the threshold profiles on prices that
    # drift up and down in time; every verdict field, events and final_time
    # included, equals a run of the same profile on a fresh instance.
    def drift(slope):
        return lambda t: 2.0 * (1.0 + slope * t)

    shared = _instance(kind, **overrides)
    runs = [(pr, drift(0.02)) for pr in THRESHOLDS]
    runs += [(pr, None) for pr in _profiles(kind)]
    runs += [(pr, drift(-0.02)) for pr in THRESHOLDS]
    outcomes = set()
    for profile, price in runs:
        got = run(shared, profile, price)
        assert got == run(_instance(kind, **overrides), profile, price), profile.label()
        outcomes.add(got.outcome)
    assert outcomes == {"swapped", "cancelled", "griefed"}


@pytest.mark.parametrize("kind, profiles, engine_runs", [("htlc", 121, 59), ("quickswap", 176, 90)])
def test_check_properties_runs_each_answer_list_once(monkeypatch, kind, profiles, engine_runs):
    counted = []
    engine = protocol._Run.run
    monkeypatch.setattr(protocol._Run, "run", lambda self: counted.append(1) or engine(self))
    inst = _instance(kind)
    assert len(check_properties(inst).rows) == profiles
    assert len(counted) == engine_runs
    check_properties(inst)  # every trace is in the tree now
    assert len(counted) == engine_runs


# Events the engine queues in each default ``validate`` run: the strategy
# grid of the default HTLC and Quick Swap plans, and the n = 3 cyclic sweep.
# An engine that queues a second observe of one chain and hour, or any other
# event that does nothing, queues more.
@pytest.mark.parametrize("kind, queued", [("htlc", 658), ("quickswap", 1509), ("cyclic", 102)])
def test_default_validate_runs_queue_pinned_event_counts(tmp_path, monkeypatch, kind, queued):
    from swapsim.cli import main

    counted = []
    at = protocol._Run.at
    monkeypatch.setattr(protocol._Run, "at",
                        lambda self, *args, **kw: counted.append(1) or at(self, *args, **kw))
    assert main(["validate", "--set", f"kind={kind}", "--out", str(tmp_path)]) == 0
    assert len(counted) == queued


@pytest.mark.parametrize("kind", ["htlc", "quickswap"])
def test_property_rows_are_labelled_as_their_profiles(kind):
    # check_properties labels each grid strategy once, not each profile; every
    # row still reads as StrategyProfile.label, in grid order.
    want = [profile.label() for profile in _profiles(kind)]
    assert [row.profile for row in check_properties(_instance(kind)).rows] == want


def test_trace_cache_keeps_no_cycle_to_its_instance():
    # Leaves that held the threshold strategies' ``decide`` closure made a
    # cycle instance -> tree -> leaf -> closure -> instance, which only the
    # cyclic garbage collector frees.
    gc.disable()
    try:
        inst = _instance("quickswap")
        ref = weakref.ref(inst)
        check_properties(inst)
        for profile in THRESHOLDS:
            run(inst, profile, lambda t: 2.0 + 0.01 * t)
        del inst
        assert ref() is None
    finally:
        gc.enable()


def test_verdicts_served_from_one_trace_do_not_share_state():
    inst = build_htlc_instance(baseline())
    griefed = StrategyProfile(Strategy("compliant"), Strategy("grief", phase="lock"))
    expected = run(build_htlc_instance(baseline()), griefed)
    first = run(inst, griefed)
    assert first.witnesses and first.events
    first.events.clear()
    first.witnesses.append("edited")
    first.net_value["A"] = 99.0
    assert run(inst, griefed) == expected


def test_traces_that_lock_equally_late_share_the_contract(monkeypatch):
    # B locks an hour late in both traces; A claims at once in the first and
    # six hours late in the second, so the engine runs each trace itself.
    made = []
    try_broadcast = Chain.try_broadcast

    def recording(chain, tx, now):
        if tx.id.startswith("lock-"):
            made.append((tx.id, tx.creates[0]))
        return try_broadcast(chain, tx, now)

    monkeypatch.setattr(Chain, "try_broadcast", recording)
    inst = build_htlc_instance(baseline())
    late = Strategy("delay", phase="lock", hours=1.0)
    for a in (Strategy("compliant"), Strategy("delay", phase="claim", hours=6.0)):
        assert run(inst, StrategyProfile(a, late)).outcome == "swapped"
    (first_a, first_b), (second_a, second_b) = made[:2], made[2:]
    assert first_a[0] == second_a[0] == "lock-0" and first_b[0] == second_b[0] == "lock-1"
    assert first_b[1].branches[1].not_before == baseline().tau_a + baseline().t_b + 1.0
    assert first_a[1] is second_a[1] and first_b[1] is second_b[1]


def test_no_lock_after_a_cancelled_party_locks_its_principal():
    # P0 posts a premium, P1 locks late, so P0 gives up and reveals H0; P1's
    # late lock and then P0's principal still go in.  From then on a party
    # with its principal in has cancelled, so P1's premium is never locked.
    actions = (
        LockAction(0, 0, 0.1, "premium", 0.0, 40.0, 1, 0, ("Hbar", "H0")),
        LockAction(1, 1, 2.0, "principal", 3.0, 27.0, 1, 0, ("Hbar",), "H0"),
        LockAction(0, 0, 2.0, "principal", 6.0, 54.0, 0, 1, ("Hbar",), "H1"),
        LockAction(1, 1, 0.1, "premium", 9.0, 40.0, 0, 0, ("Hbar", "H1")),
    )
    secrets = {role: f"{role}-secret".encode().ljust(32, b"\x00") for role in ("Hbar", "H0", "H1")}
    plan = ProtocolInstance("cyclic", None, actions, secrets, ("P0", "P1"),
                            (("chain-0", 3.0), ("chain-1", 3.0)),
                            Timing(t_eps=1.0, wait=((3.0, 1.5), (3.0, 1.5)), claim_wait=7.0,
                                   release_with_claim=True),
                            lambda *facts: (True, []))
    v = execute(plan, [Strategy("compliant"), Strategy("delay", phase="lock", hours=10.0)])
    made = {e.tx_id for e in v.events if e.tx_id.startswith("lock-")}
    assert made == {"lock-0", "lock-1", "lock-2"}
    assert any(e.tx_id == "cancel-0" and e.kind == "confirmed" for e in v.events)


def _hourly_poll_at(self, t, after=-math.inf):
    """The poll grid stepped one hour at a time."""
    i = bisect.bisect_right(self.grid, max(t, after))
    p = max(self.anchor, self.grid[i - 1]) if i else self.anchor
    timeout = self.grid[i] if i < len(self.grid) else math.inf
    while p < t or p <= after:
        p = min(p + 1.0, timeout)
    return p


def _late_lockers(hours):
    """(kind, profile) for A, then B, locking ``hours`` late on each game."""
    late, compliant = Strategy("delay", phase="lock", hours=hours), Strategy("compliant")
    return [(kind, profile) for kind in ("htlc", "quickswap")
            for profile in (StrategyProfile(late, compliant), StrategyProfile(compliant, late))]


@pytest.mark.parametrize("anchor", [0.0, 1.3, 2.0211352823184017, 2.903410405786061, 1000.7])
def test_polls_skip_whole_hours_with_the_bits_of_hourly_steps(anchor):
    # An hourly step rounds at every power of two it crosses, and rounding
    # in steps differs from rounding once: from 2.903410405786061 a jump
    # straight to hour 169 of the grid reads 169.90341040578605, the steps
    # 169.90341040578608.  And 2.3 is 0.9999999999999998 hours after 1.3.
    runs = SimpleNamespace(anchor=anchor, grid=[anchor + 1e4])
    for goal in [anchor + 2.0**k + f for k in range(1, 13) for f in (-0.7, 0.0, 0.3)] + [2.3, 169.08846016236052]:
        for t, after in [(goal, -math.inf), (goal, goal), (goal - 5.0, goal), (goal, goal - 0.5)]:
            want = _hourly_poll_at(runs, t, after)
            assert protocol._Run.poll_at(runs, t, after) == want, (anchor, t, after)


@pytest.mark.parametrize("hours", [1e4 + 0.3, 65536.7])
def test_late_locks_poll_as_hourly_steps_do(monkeypatch, hours):
    timing = {"tau_a": 1.3, "tau_b": 0.7, "t_eps": 0.1}
    fast = [run(_instance(kind, **timing), profile) for kind, profile in _late_lockers(hours)]
    assert sum(v.final_time > hours for v in fast) == 3
    monkeypatch.setattr(protocol._Run, "poll_at", _hourly_poll_at)
    assert fast == [run(_instance(kind, **timing), profile) for kind, profile in _late_lockers(hours)]


def test_a_lock_a_billion_hours_late_returns_at_once():
    # Hourly polls from the first watch took about 1e9 steps.
    for kind, profile in _late_lockers(1e9):
        start = time.perf_counter()
        v = run(_instance(kind), profile)
        assert time.perf_counter() - start < 1.0, (kind, profile.label())
        assert v.final_time > 1e9 or v.outcome == "cancelled"
    # Past 2**53 hours a float has no whole hours, so no hourly poll can be
    # reached: an error, not a poll loop that never ends.
    with pytest.raises(ValueError, match="no hourly poll"):
        run(_instance("htlc"), _late_lockers(1e17)[0][1])


@pytest.mark.parametrize("kind", ["htlc", "quickswap"])
def test_each_plan_is_compiled_once(monkeypatch, kind):
    built = []
    compile_plan = ProtocolInstance.__post_init__
    monkeypatch.setattr(ProtocolInstance, "__post_init__",
                        lambda plan: built.append(1) or compile_plan(plan))
    inst = _instance(kind)
    check_properties(inst)
    for profile in THRESHOLDS:
        run(inst, profile, lambda t: 2.0 + 0.01 * t)
    assert len(built) == 1
    check_properties(_instance(kind))
    assert len(built) == 2


@pytest.mark.parametrize("kind, party, strategy", [
    ("quickswap", "A", Strategy("delay", phase="premium", hours=6.0)),
    ("quickswap", "A", Strategy("cancel", phase="premium")),
    ("quickswap", "A", Strategy("grief", phase="premium")),
    ("htlc", "A", Strategy("delay", phase="premium", hours=6.0)),
    ("htlc", "B", Strategy("cancel", phase="premium")),
    ("htlc", "B", Strategy("grief", phase="premium")),
])
def test_run_refuses_a_phase_the_party_does_not_have(kind, party, strategy):
    # Such a strategy used to replay another profile: A=delay(premium, 6h)
    # gave A=compliant's verdict.
    other = Strategy("compliant")
    profile = StrategyProfile(strategy, other) if party == "A" else StrategyProfile(other, strategy)
    says = f"{party}={strategy.label()}: {party} has no premium phase in the {kind} protocol"
    with pytest.raises(ValueError, match=re.escape(says)):
        run(_instance(kind), profile)


def test_answer_tables_agree_with_the_strategy_methods():
    from swapsim.cyclic import _STRATEGIES

    strategies = [s for kind in ("htlc", "quickswap") for opts in strategy_grid(kind).values()
                  for s in opts]
    strategies += list(_STRATEGIES.values())
    for s in strategies:
        want = {("grief", None): s.kind == "grief"}
        for phase in protocol._PHASES:
            want["move", phase] = ("cancel" if s.cancels_at(phase)
                                   else "act" if s.acts_at(phase) else "skip")
            want["lag", phase] = s.lag(phase)
            want["acts", phase] = s.acts_at(phase)
        assert s.answer_table == want, s.label()
    # A threshold party's move depends on the hour, so its table leaves it out.
    table = Strategy("threshold").answer_table
    assert not any(question == "move" for question, _ in table)
    assert table["grief", None] is False and table["lag", "lock"] == 0.0


def test_spend_inputs_shared_by_traces_are_read_only():
    inst = _instance("quickswap")
    check_properties(inst)
    spends = list(inst._spends.values())
    assert spends
    for spend, _ in spends:
        with pytest.raises(TypeError):
            spend.preimages["forged"] = b"x" * 32


def _hand_trace(plan, *, spender, endow, recv, swapped=False, revealed=(), unconserved=()):
    """A finished trace of ``plan`` built by hand: every lock released by
    hour 0, with these spends, holdings and revealed roles."""
    return protocol._Trace(holdings=[], swapped=swapped, spender=list(spender),
                           revealed=frozenset(revealed), worth=(endow, recv), events=[],
                           locks_left=0, last_spend=0.0, unconserved=list(unconserved), final_time=0.0)


def _cyclic_plan():
    from swapsim.cyclic import CyclicSpec, generate

    return generate(CyclicSpec(n=3, amounts=(2.0,) * 3, taus=(3.0,) * 3, locktimes=(48.0, 42.0, 36.0),
                               D=12.0, Delta=2.0))


def test_cyclic_safety_names_a_compliant_party_that_gets_back_less_than_it_locked():
    # P2 griefs and every lock times out, but P1 ends 0.5 short of what it
    # locked.  The griefer's own shortfall is no violation.
    plan = _cyclic_plan()
    endow = {"P0": 2.0, "P1": 2.0, "P2": 2.0}
    t = _hand_trace(plan, spender=[f"timeout-{i}" for i in range(len(plan.actions))],
                    endow=endow, recv={"P0": 2.0, "P1": 1.5, "P2": 0.0})
    v = protocol._judge(plan, t, ["compliant", "compliant", "grief"], plan.release, None)
    assert (v.outcome, v.correctness, v.safety, v.liveness) == ("griefed", True, False, True)
    assert v.witnesses == ["safety: P1 received 1.5 < expected 2"]
    assert v.net_value == {"P0": 0.0, "P1": -0.5, "P2": -2.0}


def test_cyclic_success_that_reveals_a_cancel_secret_is_witnessed():
    # Every principal is claimed and each party holds what it was owed, but
    # P1's cancellation secret is public too: a witness, not a safety breach.
    plan = _cyclic_plan()
    spender = [f"claim-{i}" if i in plan.principals else f"timeout-{i}" for i in range(len(plan.actions))]
    held = {"P0": 2.0, "P1": 2.0, "P2": 2.0}
    t = _hand_trace(plan, spender=spender, endow=held, recv=dict(held), swapped=True,
                    revealed={"Hbar", "H1"})
    v = protocol._judge(plan, t, ["compliant"] * 3, plan.release, None)
    assert (v.outcome, v.correctness, v.safety, v.liveness) == ("swapped", True, True, True)
    assert v.witnesses == ["success trace revealed ['H1', 'Hbar']"]


def test_compliant_parties_that_fail_to_swap_are_a_correctness_witness():
    # Both parties comply, yet both principals time out back to them.
    plan = build_htlc_instance(baseline())
    endow = {"A": 2.0, "B": 2.0}
    t = _hand_trace(plan, spender=["timeout-0", "timeout-1"], endow=endow, recv=dict(endow))
    v = protocol._judge(plan, t, ["compliant", "compliant"], plan.release, None)
    assert (v.outcome, v.correctness, v.safety, v.liveness) == ("cancelled", False, True, True)
    assert v.witnesses == ["correctness: compliant parties failed to swap"]


def test_a_chain_that_does_not_conserve_value_fails_safety():
    # A swap in which each party holds the other's principal, on a trace
    # whose chain-b does not conserve value.
    plan = build_htlc_instance(baseline())
    t = _hand_trace(plan, spender=["claim-0", "claim-final"], endow={"A": 2.0, "B": 2.0},
                    recv={"A": 2.0, "B": 2.0}, swapped=True, revealed={"Hbar"}, unconserved=["chain-b"])
    v = protocol._judge(plan, t, ["compliant", "compliant"], plan.release, None)
    assert (v.outcome, v.correctness, v.safety, v.liveness) == ("swapped", True, False, True)
    assert v.witnesses == ["conservation violated on chain-b"]
