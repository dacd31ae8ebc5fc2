import pytest

from conftest import baseline, quick_baseline
from swapsim.cyclic import CyclicSpec, generate, run_cyclic, validate_plan


def make_spec(n: int, **overrides) -> CyclicSpec:
    kwargs = dict(
        n=n,
        amounts=tuple(2.0 for _ in range(n)),
        taus=tuple(3.0 for _ in range(n)),
        locktimes=tuple(48.0 - 6.0 * i for i in range(n)),
        D=12.0,
        Delta=1.0,
        rho=0.001,
    )
    kwargs.update(overrides)
    return CyclicSpec(**kwargs)


def test_spec_invariants():
    with pytest.raises(ValueError):
        make_spec(1)
    with pytest.raises(ValueError):
        make_spec(3, locktimes=(48.0, 48.0, 36.0))  # not strictly decreasing
    with pytest.raises(ValueError):
        make_spec(3, locktimes=(20.0, 16.0, 13.0))  # ladder exceeds T_last
    with pytest.raises(ValueError):
        make_spec(3, amounts=(2.0, 2.0))  # wrong arity


def test_generated_plan_validates():
    for n in (2, 3, 4, 5):
        plan = generate(make_spec(n))
        assert validate_plan(plan) == []
        assert len(plan.actions) == 2 * n
        assert len(plan.principal_actions()) == n
        assert len(plan.premium_actions()) == n


def test_premium_ladder_strictly_staggered():
    plan = generate(make_spec(4))
    premiums = sorted(plan.premium_actions(), key=lambda a: a.start_time)
    timeouts = [a.timeout for a in premiums]
    # Earlier premiums time out later: each step down is exactly Delta.
    assert all(a - b == pytest.approx(1.0) for a, b in zip(timeouts, timeouts[1:]))


def test_each_principal_has_predecessor_cancel_hash():
    plan = generate(make_spec(5))
    for a in plan.principal_actions():
        pred = (a.party - 1) % 5
        assert a.early_refund_hash == f"H{pred}"
        assert a.hashlocks == ("Hbar",)


def test_validate_plan_reports_tampering():
    plan = generate(make_spec(3))
    from dataclasses import replace

    bad_actions = tuple(
        replace(a, early_refund_hash=None) if a.kind == "principal" and a.party == 1 else a
        for a in plan.actions
    )
    bad = replace(plan, actions=bad_actions)
    problems = validate_plan(bad)
    assert any("party 1" in p for p in problems)


def test_all_compliant_swaps_atomically():
    for n in (2, 3, 4, 5):
        v = run_cyclic(generate(make_spec(n)))
        assert v.outcome == "swapped"
        assert v.correctness and v.safety and v.liveness
        assert v.witnesses == []
        # Equal amounts everywhere: the cycle nets out to zero per party.
        for net in v.net_value.values():
            assert net == pytest.approx(0.0, abs=1e-9)


def test_success_reveals_exactly_one_preimage():
    plan = generate(make_spec(3))
    v = run_cyclic(plan)
    revealed = {h for e in v.events for h in e.revealed}
    assert len(revealed) == 1


def test_every_single_griefer_position_is_safe():
    for n in (2, 3, 4, 5):
        plan = generate(make_spec(n))
        for g in range(n):
            for mode in ("grief-lock", "grief-claim"):
                v = run_cyclic(plan, {g: mode})
                assert v.outcome != "swapped" or mode == "grief-claim"
                assert v.safety, f"n={n} P{g} {mode}: {v.witnesses}"
                assert v.liveness, f"n={n} P{g} {mode}: {v.witnesses}"


def test_initiator_grief_compensation_amount_and_timing():
    n = 4
    spec = make_spec(n)
    plan = generate(spec)
    v = run_cyclic(plan, {0: "grief-claim"})
    # P1 cannot refund early (P0 withholds its cancel secret) and is
    # compensated by P0's premium c(a_1 * T_1).
    comp = spec.rho * spec.amounts[1] * spec.locktimes[1]
    assert v.net_value["P1"] == pytest.approx(comp, abs=1e-9)
    assert v.net_value["P0"] == pytest.approx(-comp, abs=1e-9)
    # The compensating timeout confirms within the premium ladder window
    # plus confirmation delays.
    p0_premium = next(a for a in plan.premium_actions() if a.party == 0)
    ladder_top = spec.D + (n - 1) * spec.Delta
    comp_events = [e for e in v.events
                   if e.tx_id.startswith("timeout") and e.kind == "confirmed"
                   and e.time >= p0_premium.timeout]
    deadline = ladder_top + max(spec.taus) + spec.t_eps
    assert any(e.time <= deadline for e in comp_events)


def test_two_party_plan_matches_premium_protocol_structure():
    q = quick_baseline()
    b = q.base
    spec = CyclicSpec(
        n=2,
        amounts=(b.x_a, b.x_yb_t1),
        taus=(b.tau_a, b.tau_b),
        locktimes=(b.t_a, b.t_b),
        D=q.D, Delta=q.Delta, rho=q.rho,
    )
    plan = generate(spec)
    assert validate_plan(plan) == []

    premiums = {a.party: a for a in plan.premium_actions()}
    principals = {a.party: a for a in plan.principal_actions()}
    # Counterparty premium Q = c(x_a * t_a); initiator collateral 1.5Q.
    assert premiums[1].amount == pytest.approx(q.premium_of("B"), rel=1e-12)
    assert premiums[0].amount == pytest.approx(q.premium_of("A"), rel=1e-12)
    # Principals mirror the two-party locks: each gated by the payment hash
    # alone, claimable by the counterparty, refundable early on the other
    # side's cancellation secret.
    assert principals[0].amount == b.x_a and principals[0].hashlock_claimant == 1
    assert principals[1].amount == b.x_yb_t1 and principals[1].hashlock_claimant == 0
    assert principals[0].early_refund_hash == "H1"
    assert principals[1].early_refund_hash == "H0"
    # Premiums carry the any-of (payment | own-cancel) gate with a timeout
    # to the counterparty, staggered by Delta.
    assert set(premiums[1].hashlocks) == {"Hbar", "H1"}
    assert set(premiums[0].hashlocks) == {"Hbar", "H0"}
    assert premiums[1].timeout_recipient == 0 and premiums[0].timeout_recipient == 1
    assert premiums[1].timeout - premiums[0].timeout == pytest.approx(q.Delta)


def test_two_party_runs_like_premium_protocol():
    from swapsim.protocol import Strategy, StrategyProfile, build_quickswap_instance, run

    q = quick_baseline()
    b = q.base
    spec = CyclicSpec(
        n=2, amounts=(b.x_a, b.x_yb_t1), taus=(b.tau_a, b.tau_b),
        locktimes=(b.t_a, b.t_b), D=q.D, Delta=q.Delta, rho=q.rho,
    )
    cyc = run_cyclic(generate(spec))
    two = run(build_quickswap_instance(q),
              StrategyProfile(Strategy("compliant"), Strategy("compliant")))
    assert cyc.outcome == two.outcome == "swapped"
    # Equal-value swap nets zero on both formulations.
    assert cyc.net_value["P0"] == pytest.approx(two.net_value["A"], abs=1e-9)


def _ladder_spec(n: int, taus: tuple[float, ...], t_eps: float) -> CyclicSpec:
    # The benchmark's cyclic timing: D=12, Delta=2 and a locktime ladder that
    # clears the premium ladder at every n.
    return CyclicSpec(
        n=n, amounts=tuple(2.0 for _ in range(n)), taus=taus,
        locktimes=tuple(12.0 + 2.0 * (n - 1) + 6.0 * (n - i) for i in range(n)),
        D=12.0, Delta=2.0, rho=0.001, t_eps=t_eps,
    )


def _validate_strategies(n: int) -> list[tuple[str, dict[int, str]]]:
    runs = [("all-compliant", {})]
    runs += [(f"P{g}-{mode}", {g: mode}) for g in range(n) for mode in ("grief-lock", "grief-claim")]
    return runs


# sha256 of every run below as the hourly-polling settlement loop produced
# it; any change in timing, events or verdicts moves it.
SETTLEMENT_DIGEST = "487f88845be73cecd66eeda612e734c21693bf64912d03b45f029e708c995e19"


def test_settlement_loop_traces_unchanged():
    import hashlib
    import json

    records = []
    for taus_of, t_eps in ((lambda n: (3.0,) * n, 1.0),
                           (lambda n: tuple(2.5 + 0.37 * i for i in range(n)), 0.7)):
        for n in (2, 8, 16):
            plan = generate(_ladder_spec(n, taus_of(n), t_eps))
            for label, strategies in _validate_strategies(n):
                v = run_cyclic(plan, strategies)
                records.append([
                    n, label, v.outcome, v.correctness, v.safety, v.liveness, v.witnesses,
                    sorted((p, repr(x)) for p, x in v.net_value.items()),
                    [(repr(e.time), e.chain_id, e.tx_id, e.kind, list(e.revealed))
                     for e in v.events],
                    repr(v.final_time),
                ])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SETTLEMENT_DIGEST


def _zero_delay_records() -> list:
    # Chains 0, 3, 6, ... confirm instantly (the last one too at n = 4 and 7)
    # and preimages are seen at once: what such a chain confirms is observed
    # at the next poll, except the last lock, which the claim sees at once.
    records = []
    for n in (2, 4, 7):
        taus = tuple(0.0 if i % 3 == 0 else 1.3 for i in range(n))
        plan = generate(CyclicSpec(
            n=n, amounts=tuple(2.0 for _ in range(n)), taus=taus,
            locktimes=tuple(5.5 + 0.75 * (n - 1) + 6.0 * (n - i) for i in range(n)),
            D=5.5, Delta=0.75, rho=0.001, t_eps=0.0))
        for label, strategies in _validate_strategies(n):
            v = run_cyclic(plan, strategies)
            records.append([
                n, label, v.outcome, v.correctness, v.safety, v.liveness, v.witnesses,
                sorted((p, repr(x)) for p, x in v.net_value.items()),
                [(repr(e.time), e.chain_id, e.tx_id, e.kind, list(e.revealed), e.reason)
                 for e in v.events],
                repr(v.final_time),
            ])
    return records


# sha256 of the zero-delay runs above, rejection reasons included, as the
# hourly-polling settlement loop produced them.
ZERO_DELAY_DIGEST = "ec203e6053a78492dfba51212ed70af9e008891db617a3ae256369419d2d539e"


def test_zero_delay_traces_unchanged():
    import hashlib
    import json

    digest = hashlib.sha256(json.dumps(_zero_delay_records()).encode()).hexdigest()
    assert digest == ZERO_DELAY_DIGEST


def _two_party_records() -> list:
    from swapsim.htlcgame import claim_threshold_t3, continuation_band_t2
    from swapsim.protocol import (
        Strategy, StrategyProfile, build_htlc_instance, build_quickswap_instance, run,
        strategy_grid,
    )
    from swapsim.quickswapgame import claim_threshold_t4, continuation_band_t3

    def net(x: float) -> str:
        return f"{round(x, 9) + 0.0:.9f}"  # within 1e-9; -0.0 reads as 0.0

    thresholds = [Strategy("threshold"), Strategy("threshold", interested=False)]
    records = []
    for overrides in ({}, {"sigma": 0.2, "x_a": 2.4}):
        b, q = baseline(**overrides), quick_baseline(**overrides)
        for inst, band, x_star in (
                (build_htlc_instance(b), continuation_band_t2(b, 0.0), claim_threshold_t3(b)),
                (build_quickswap_instance(q), continuation_band_t3(q), claim_threshold_t4(q))):
            grid = strategy_grid(inst.kind)
            runs = [(StrategyProfile(a, bb), "grid", None) for a in grid["A"] for bb in grid["B"]]
            # Constant prices below B's band, inside it above A's claim
            # threshold, and inside it below the threshold.
            for path, price in (("below-band", 0.5 * band.lo),
                                ("above-claim", 0.5 * (max(band.lo, x_star) + band.hi)),
                                ("below-claim", 0.5 * (band.lo + x_star))):
                runs += [(StrategyProfile(a, bb), path, lambda t, x=price: x)
                         for a in thresholds for bb in thresholds]
            for profile, path, price_path in runs:
                v = run(inst, profile, price_path)
                records.append([
                    inst.kind, sorted(overrides.items()), profile.label(), path,
                    v.outcome, v.correctness, v.safety, v.liveness, v.witnesses,
                    sorted((p, net(x)) for p, x in v.net_value.items()),
                ])
    return records


# sha256 of every two-party strategy-grid run on two configs, plus threshold
# profiles on three constant price paths: outcome, flags, witnesses and net
# values to 1e-9 as the separate two-party automata produced them.
TWO_PARTY_DIGEST = "21fdd0984483ac6292e68cd79ee8b478c4b7ba8fb2762ec5021e3280176eca17"


def test_two_party_verdicts_unchanged():
    import hashlib
    import json

    digest = hashlib.sha256(json.dumps(_two_party_records()).encode()).hexdigest()
    assert digest == TWO_PARTY_DIGEST


def _two_party_drift_records() -> list:
    from swapsim.protocol import (
        Strategy, StrategyProfile, build_htlc_instance, build_quickswap_instance, run,
        strategy_grid,
    )

    thresholds = [Strategy("threshold"), Strategy("threshold", interested=False)]
    records = []
    for overrides in ({}, {"sigma": 0.2, "x_a": 2.4}):
        b, q = baseline(**overrides), quick_baseline(**overrides)
        for inst in (build_htlc_instance(b), build_quickswap_instance(q)):
            grid = strategy_grid(inst.kind)
            profiles = [StrategyProfile(a, bb) for a in grid["A"] for bb in grid["B"]]
            profiles += [StrategyProfile(a, bb) for a in thresholds for bb in thresholds]
            # Prices that drift up or down by 2% of B's amount an hour, so
            # both the threshold decisions and the final valuation depend on
            # the hour they are taken at.
            for path, slope in (("rising", 0.02), ("falling", -0.02)):
                def price(t, x=b.x_yb_t1, slope=slope):
                    return x * (1.0 + slope * t)
                for profile in profiles:
                    v = run(inst, profile, price)
                    records.append([
                        inst.kind, sorted(overrides.items()), profile.label(), path,
                        v.outcome, v.correctness, v.safety, v.liveness, v.witnesses,
                        sorted((p, f"{round(x, 9) + 0.0:.9f}") for p, x in v.net_value.items()),
                    ])
    return records


# sha256 of the two-party strategy grid and threshold profiles on prices that
# drift linearly in time, as the separate two-party automata produced them.
TWO_PARTY_DRIFT_DIGEST = "03f119282703c0d17155e94c4dbaa7b139e1a50bdbf415de6a1be9fe65688f9f"


def test_two_party_verdicts_unchanged_on_drifting_prices():
    import hashlib
    import json

    digest = hashlib.sha256(json.dumps(_two_party_drift_records()).encode()).hexdigest()
    assert digest == TWO_PARTY_DRIFT_DIGEST


def test_settlement_loop_skips_idle_polls(monkeypatch):
    from swapsim import ledgersim

    calls = [0]
    advance = ledgersim.Chain.advance

    def counted(self, to):
        calls[0] += 1
        return advance(self, to)

    monkeypatch.setattr(ledgersim.Chain, "advance", counted)
    n = 16
    plan = generate(_ladder_spec(n, (3.0,) * n, 1.0))
    v = run_cyclic(plan, {0: "grief-claim"})
    assert v.safety and v.liveness
    # Polling every hour takes 110 steps of all 16 chains (1,760 calls);
    # only the polls after a confirmation, sighting or timeout remain.
    assert calls[0] <= 400
    calls[0] = 0
    for g in range(n):
        run_cyclic(plan, {g: "grief-claim"})
    assert calls[0] <= 6000  # 22,640 when polling every hour
