import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesim.config import IssuerConfig
from stablesim.dynamics import (CONFIDENCE_BANDS, SMOOTH_WIDTH, ConfidenceState,
                                DynamicsError, InterventionResult, PriceParams,
                                RunModel, SensitivityState, ShockClass, ShockSpec,
                                ShockState, SystemicBand, UnknownShockClass,
                                apply_shock, redemption_demand,
                                run_corrective_burns, update_secondary_price)
from stablesim.ledger import FED, AgentId, AgentKind, LedgerWorld, coin_key
from stablesim.money import BP, MICRO, PAR, mul_frac
from stablesim.rng import SplitMix64
from stablesim.settlement import AccessMode, IssuerBook


def model(**kwargs):
    defaults = dict(baseline_redemption_rate=1_000, deviation_threshold=300 * BP,
                    shifted_rate=100_000, recovery_days=3, delay_trigger_days=2)
    defaults.update(kwargs)
    return RunModel(**defaults)


def conf(price=PAR, delay_age=0):
    return ConfidenceState(secondary_price=price, pending_delay_age=delay_age)


def test_baseline_demand_at_par():
    m = model()
    assert redemption_demand(m, conf(), 1_000_000_00) == mul_frac(1_000_000_00, 1_000)
    assert m.sensitivity_state is SensitivityState.INSENSITIVE


def test_flip_at_threshold_inclusive():
    m = model()
    demand = redemption_demand(m, conf(price=PAR - 300 * BP), 1_000_000_00)
    assert m.sensitivity_state is SensitivityState.SENSITIVE
    assert demand == mul_frac(1_000_000_00, 100_000)


def test_no_flip_one_basis_point_inside():
    m = model()
    redemption_demand(m, conf(price=PAR - 299 * BP), 1_000_000_00)
    assert m.sensitivity_state is SensitivityState.INSENSITIVE


def test_delay_trigger_flips():
    m = model()
    redemption_demand(m, conf(delay_age=2), 1_000_000_00)
    assert m.sensitivity_state is SensitivityState.SENSITIVE


def test_hysteresis_needs_consecutive_calm_days():
    m = model(recovery_days=3)
    redemption_demand(m, conf(price=PAR - 400 * BP), 100)  # flip
    assert m.sensitivity_state is SensitivityState.SENSITIVE
    redemption_demand(m, conf(), 100)   # calm 1
    redemption_demand(m, conf(), 100)   # calm 2
    assert m.sensitivity_state is SensitivityState.SENSITIVE
    redemption_demand(m, conf(price=PAR - 1), 100)  # interrupted
    redemption_demand(m, conf(), 100)   # calm 1 again
    redemption_demand(m, conf(), 100)   # calm 2
    assert m.sensitivity_state is SensitivityState.SENSITIVE
    redemption_demand(m, conf(), 100)   # calm 3 -> recover
    assert m.sensitivity_state is SensitivityState.INSENSITIVE


@settings(max_examples=300)
@given(st.integers(0, 10**12), st.integers(1, 900_000), st.integers(0, 99_000))
def test_sensitive_demand_dominates(coins, shifted_extra, base):
    shifted = base + shifted_extra
    insensitive = model(baseline_redemption_rate=base, shifted_rate=shifted)
    sensitive = model(baseline_redemption_rate=base, shifted_rate=shifted,
                      sensitivity_state=SensitivityState.SENSITIVE)
    calm = conf()
    assert (redemption_demand(sensitive, calm, coins)
            >= redemption_demand(insensitive, calm, coins))


def test_model_rejects_inverted_rates():
    with pytest.raises(DynamicsError):
        model(baseline_redemption_rate=100_000, shifted_rate=100_000)


def test_price_unchanged_without_pressure():
    out = update_secondary_price(conf(), 0, 1_000_00, 0, AccessMode.INTERMEDIATED)
    assert out.secondary_price == PAR


def test_overdue_pressure_moves_price_down():
    params = PriceParams(overdue_coeff=100_000)
    out = update_secondary_price(conf(), 10_00, 100_00, 0,
                                 AccessMode.INTERMEDIATED, params=params)
    assert out.secondary_price == PAR - 10_000  # 10% overdue at 0.1 coupling


def test_direct_access_pins_par_unless_failing():
    params = PriceParams(failure_coeff=100_000)
    pinned = update_secondary_price(conf(price=990_000), 0, 100_00, 0,
                                    AccessMode.DIRECT, params=params)
    assert pinned.secondary_price == PAR
    failing = update_secondary_price(conf(), 10_00, 100_00, 0,
                                     AccessMode.DIRECT, params=params)
    assert failing.secondary_price < PAR


def test_reversion_reaches_par_exactly():
    params = PriceParams(reversion=700_000)
    state = conf(price=PAR - 5_000)
    days = 0
    while state.secondary_price != PAR:
        state = update_secondary_price(state, 0, 100_00, 0,
                                       AccessMode.INTERMEDIATED, params=params)
        days += 1
        assert days < 40
    assert state.secondary_price == PAR


def test_full_intervention_pins_to_target():
    result = InterventionResult(requested=100_00, completed=100_00,
                                pin_target=PAR)
    out = update_secondary_price(conf(price=980_000), 50_00, 100_000_00, 0,
                                 AccessMode.INTERMEDIATED, intervention=result)
    assert out.secondary_price == PAR


def test_partial_intervention_lifts_proportionally():
    result = InterventionResult(requested=100_00, completed=50_00,
                                pin_target=PAR)
    out = update_secondary_price(conf(price=980_000), 0, 100_000_00, 0,
                                 AccessMode.INTERMEDIATED, intervention=result)
    assert out.secondary_price == 990_000


@pytest.mark.parametrize("price", [PAR + 1, 0])
def test_confidence_rejects_a_price_above_par_or_not_positive(price):
    with pytest.raises(DynamicsError):
        ConfidenceState(price)


def _zero_or_up_to(top):
    return st.just(0) | st.integers(0, top)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(min_price=st.integers(1, PAR), below_par=st.integers(0, PAR),
       overdue=_zero_or_up_to(10**12), coins=_zero_or_up_to(10**12),
       shock_effect=_zero_or_up_to(2 * PAR), access_mode=st.sampled_from(AccessMode),
       coeffs=st.tuples(st.integers(0, 2 * MICRO), st.integers(0, 2 * MICRO),
                        st.integers(0, MICRO) | st.integers(MICRO, 10 * MICRO)),
       intervention=st.none() | st.builds(
           InterventionResult, requested=st.integers(0, 10**12),
           completed=st.integers(0, 10**12), pin_target=st.integers(-PAR, PAR)))
# a calm day one unit below par, with reversion above 100%, and a full
# buyback pinned at par
@example(min_price=1, below_par=1, overdue=0, coins=0, shock_effect=0,
         access_mode=AccessMode.INTERMEDIATED, coeffs=(0, 0, 10 * MICRO), intervention=None)
@example(min_price=1, below_par=20_000, overdue=0, coins=0, shock_effect=0,
         access_mode=AccessMode.INTERMEDIATED, coeffs=(0, 0, MICRO),
         intervention=InterventionResult(requested=1, completed=1, pin_target=PAR))
def test_price_stays_between_its_floor_and_par(min_price, below_par, overdue, coins,
                                               shock_effect, access_mode, coeffs, intervention):
    """From any price in [min_price, PAR], with any non-negative overdue
    amount and shock effect and any intervention pinned at most at par,
    the next price is again in [min_price, PAR]."""
    overdue_coeff, failure_coeff, reversion = coeffs
    params = PriceParams(overdue_coeff=overdue_coeff, failure_coeff=failure_coeff,
                         reversion=reversion, min_price=min_price)
    out = update_secondary_price(conf(price=max(min_price, PAR - below_par)), overdue, coins,
                                 shock_effect, access_mode, intervention=intervention,
                                 params=params)
    assert min_price <= out.secondary_price <= PAR


# -- shocks ------------------------------------------------------------------


ISSUER = AgentId(AgentKind.ISSUER, 0)
ISSUER2 = AgentId(AgentKind.ISSUER, 1)
HOLDER = AgentId(AgentKind.HOLDER, 0)


def shock_world(coins=1_000_00):
    world = LedgerWorld()
    world.add_agent(FED)
    world.add_agent(ISSUER)
    world.add_agent(ISSUER2)
    world.add_agent(HOLDER)
    for issuer in (ISSUER, ISSUER2):
        world.post({
            (issuer.key, "L", coin_key(issuer)): coins,
            (HOLDER.key, "A", coin_key(issuer)): coins,
        })
    issuers = {issuer.key: IssuerBook(issuer, IssuerConfig(
                   name=issuer.key, bank="bank", coins=coins, assets=0, allocation={},
                   chain="alpha"))
               for issuer in (ISSUER, ISSUER2)}
    return world, issuers


def test_liveness_fault_suspends_chain_for_duration():
    world, issuers = shock_world()
    state = ShockState()
    spec = ShockSpec(klass=ShockClass.LIVENESS_FAULT, duration=2, chain="alpha")
    apply_shock(spec, world, state, issuers, HOLDER, SplitMix64(1))
    assert state.suspended_chains(0) == {"alpha"}
    assert state.suspended_chains(1) == {"alpha"}
    assert state.suspended_chains(2) == set()


def test_correlated_liveness_hits_every_issuer_on_the_chain():
    world, issuers = shock_world()
    state = ShockState()
    spec = ShockSpec(klass=ShockClass.CORRELATED_LIVENESS, duration=1,
                     chain="alpha")
    apply_shock(spec, world, state, issuers, HOLDER, SplitMix64(1))
    assert state.suspended_until == {"alpha": 1}
    halted = state.suspended_chains(0)
    assert {key for key, book in issuers.items() if book.config.chain in halted} == \
        {ISSUER.key, ISSUER2.key}
    assert state.price_effects == {}


def test_uncontrolled_supply_same_day_burn_round_trips():
    world, issuers = shock_world(coins=1_000_00)
    state = ShockState()
    spec = ShockSpec(klass=ShockClass.UNCONTROLLED_SUPPLY, magnitude=MICRO,
                     duration=0, chain="alpha")
    apply_shock(spec, world, state, issuers, HOLDER, SplitMix64(1))
    assert world.sheet(ISSUER).liability(coin_key(ISSUER)) == 1_000_00
    assert state.price_effects[ISSUER.key] == PriceParams().supply_incident_dip
    mints = [e for e in world.events if e["type"] == "uncontrolled_mint"]
    burns = [e for e in world.events if e["type"] == "corrective_burn"]
    assert len(mints) == len(burns) == 2


def test_uncontrolled_supply_with_duration_degrades_leverage():
    from stablesim.analytics import leverage_ratio

    world, issuers = shock_world(coins=95_000_00)
    world.post({(ISSUER.key, "A", "govt"): 100_000_00})
    before = leverage_ratio(100_000_00, 95_000_00)
    state = ShockState()
    spec = ShockSpec(klass=ShockClass.UNCONTROLLED_SUPPLY, magnitude=100_000,
                     duration=3, chain="alpha")
    apply_shock(spec, world, state, issuers, HOLDER, SplitMix64(1))
    coins = world.sheet(ISSUER).liability(coin_key(ISSUER))
    assert coins == 104_500_00  # +10%
    after = leverage_ratio(100_000_00, coins)
    assert after.ratio < 0 < before.ratio
    assert after.band is not before.band
    world.day = 3
    run_corrective_burns(world, state)
    assert world.sheet(ISSUER).liability(coin_key(ISSUER)) == 95_000_00


def test_confidence_magnitude_sampled_within_band():
    world, issuers = shock_world()
    rng = SplitMix64(99)
    lo, hi = CONFIDENCE_BANDS[SystemicBand.HIGH]
    for _ in range(50):
        state = ShockState()
        spec = ShockSpec(klass=ShockClass.CONFIDENCE_ONLY, magnitude=None,
                         systemic_band=SystemicBand.HIGH, chain="alpha")
        apply_shock(spec, world, state, issuers, HOLDER, rng)
        assert lo <= state.price_effects[ISSUER.key] <= hi


def test_unknown_shock_class():
    world, issuers = shock_world()
    spec = ShockSpec(klass=ShockClass.CONFIDENCE_ONLY, chain="alpha")

    class Fake:
        klass = "not_a_class"
        chain = "alpha"
        magnitude = None
        duration = 0
        likelihood_band = spec.likelihood_band
        systemic_band = spec.systemic_band
        day = 0

    with pytest.raises(UnknownShockClass):
        apply_shock(Fake(), world, ShockState(), issuers, HOLDER, SplitMix64(1))


def test_smooth_variant_ramps_between_rates():
    threshold = SMOOTH_WIDTH + 50_000
    m = model(baseline_redemption_rate=10_000, shifted_rate=100_000,
              deviation_threshold=threshold, smooth=True)
    coins = 1_000_000
    far = redemption_demand(m, conf(price=PAR - 5_000), coins)
    assert far == mul_frac(coins, 10_000)
    halfway = threshold - SMOOTH_WIDTH // 2
    mid = redemption_demand(m, conf(price=PAR - halfway), coins)
    assert mid == mul_frac(coins, 55_000)   # halfway from 1% to 10%
    m2 = model(baseline_redemption_rate=10_000, shifted_rate=100_000,
               deviation_threshold=threshold, smooth=True)
    at = redemption_demand(m2, conf(price=PAR - threshold), coins)
    assert at == mul_frac(coins, 100_000)  # threshold flips the regime
