"""Redemption demand, confidence and shock processes.

Demand follows a two-rate regime model: holders redeem at a baseline
rate while the coin is information-insensitive, and at a higher shifted
rate once either the secondary-market deviation from par reaches the
threshold or settlement delays age past their trigger. The shift back
is hysteretic: only an unbroken run of calm days (price exactly at par,
no aged delays) restores the insensitive regime. A smooth-transition
variant is available behind a flag but the step form is the default.

The secondary price falls with the overdue share of redemptions and
with confidence shocks, is lifted (or pinned) by executed issuer
interventions, and otherwise reverts geometrically toward par. Under
direct access the price is par unless redemptions are actually
failing. Every decline is >= 0, a pin is at most par and reversion
steps at most the gap, so `ConfidenceState` rejects a price above par.

Technical shocks come from a catalog: liveness faults suspend on-chain
legs per blockchain (correlated variants hit every issuer on the
chain), uncontrolled-supply incidents mint unbacked coins (optionally
burned the same day), and confidence-only events mark the price down
by a given or band-sampled magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .ledger import AgentId, LedgerWorld, coin_key
from .money import MICRO, PAR, Amount, mul_div, mul_frac
from .rng import SplitMix64
from .settlement import AccessMode


SMOOTH_WIDTH = 100_000   # micro; ramp span of the smooth variant below the threshold


class DynamicsError(Exception):
    pass


class UnknownShockClass(DynamicsError):
    pass


class SensitivityState(Enum):
    INSENSITIVE = "insensitive"
    SENSITIVE = "sensitive"


@dataclass
class RunModel:
    baseline_redemption_rate: int      # micro fraction of coins per day
    deviation_threshold: int           # micro
    shifted_rate: int                  # micro fraction of coins per day
    recovery_days: int = 5
    delay_trigger_days: int = 2
    sensitivity_state: SensitivityState = SensitivityState.INSENSITIVE
    calm_days: int = 0
    smooth: bool = False

    def __post_init__(self):
        if self.shifted_rate <= self.baseline_redemption_rate:
            raise DynamicsError("shifted rate must exceed the baseline rate")
        if self.deviation_threshold <= 0:
            raise DynamicsError("deviation threshold must be positive")


@dataclass(frozen=True)
class ConfidenceState:
    secondary_price: int = PAR
    pending_delay_age: int = 0

    def __post_init__(self):
        if not 0 < self.secondary_price <= PAR:
            raise DynamicsError("secondary price must be positive and at most par")


def redemption_demand(model: RunModel, conf: ConfidenceState, coins: Amount) -> Amount:
    """Today's requested redemptions; mutates the model's regime state.

    The regime flips to sensitive on the day the deviation first
    reaches the threshold (boundary inclusive) or delays age past the
    trigger, and that day's demand is already at the shifted rate.
    """
    deviation = PAR - conf.secondary_price
    if model.sensitivity_state is SensitivityState.INSENSITIVE:
        if (deviation >= model.deviation_threshold
                or conf.pending_delay_age >= model.delay_trigger_days):
            model.sensitivity_state = SensitivityState.SENSITIVE
            model.calm_days = 0
    else:
        if deviation == 0 and conf.pending_delay_age == 0:
            model.calm_days += 1
            if model.calm_days >= model.recovery_days:
                model.sensitivity_state = SensitivityState.INSENSITIVE
                model.calm_days = 0
        else:
            model.calm_days = 0
    if model.sensitivity_state is SensitivityState.SENSITIVE:
        rate = model.shifted_rate
    elif model.smooth:
        rate = _smooth_rate(model, deviation)
    else:
        rate = model.baseline_redemption_rate
    return mul_frac(coins, rate)


def _smooth_rate(model: RunModel, deviation: int) -> int:
    """Linear ramp from baseline to shifted across `SMOOTH_WIDTH` below threshold."""
    start = model.deviation_threshold - SMOOTH_WIDTH
    if deviation <= start:
        return model.baseline_redemption_rate
    span = model.deviation_threshold - start
    frac = (deviation - start) * MICRO // span
    return model.baseline_redemption_rate + mul_frac(
        model.shifted_rate - model.baseline_redemption_rate, frac)


@dataclass(frozen=True)
class PriceParams:
    overdue_coeff: int = 100_000       # micro decline per unit overdue/coins
    failure_coeff: int = 100_000       # direct-access variant
    reversion: int = 500_000           # micro share of the gap closed per calm day
    min_price: int = 100_000
    supply_incident_dip: int = 5_000   # price effect of a corrected supply error


@dataclass(frozen=True)
class InterventionResult:
    requested: Amount = 0
    completed: Amount = 0
    pin_target: int = PAR


def update_secondary_price(conf: ConfidenceState, unfilled_redemptions: Amount,
                           coins: Amount, shock_effect: int,
                           access_mode: AccessMode,
                           intervention: InterventionResult | None = None,
                           params: PriceParams = PriceParams()) -> ConfidenceState:
    """End-of-day price move from overdue redemptions, shocks and buys."""
    pressure = 0
    if coins > 0 and unfilled_redemptions > 0:
        coeff = (params.failure_coeff if access_mode is AccessMode.DIRECT
                 else params.overdue_coeff)
        pressure = mul_div(unfilled_redemptions, coeff, coins)
    decline = pressure + shock_effect
    if access_mode is AccessMode.DIRECT:
        price = PAR - decline
    else:
        price = conf.secondary_price - decline
    intervened = (intervention is not None and intervention.requested > 0
                  and intervention.completed > 0)
    if intervened:
        gap = intervention.pin_target - price
        if gap != 0:
            done = min(intervention.completed, intervention.requested)
            price += mul_div(gap, done, intervention.requested)
    if decline == 0 and not intervened:
        gap = PAR - price
        if gap > 0:
            price += max(1, min(mul_frac(gap, params.reversion), gap))
    price = max(params.min_price, price)
    return ConfidenceState(price, conf.pending_delay_age)


class ShockClass(Enum):
    LIVENESS_FAULT = "liveness_fault"
    UNCONTROLLED_SUPPLY = "uncontrolled_supply"
    CONFIDENCE_ONLY = "confidence_only"
    CORRELATED_LIVENESS = "correlated_liveness"


class LikelihoodBand(Enum):
    MOST = "most"
    MODERATE = "moderate"
    LEAST = "least"


class SystemicBand(Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


# Sampled confidence magnitudes per systemic band, micro units. The
# bracket spans observed post-attack drawdowns from ~3.5% to ~30%.
CONFIDENCE_BANDS = {
    SystemicBand.HIGH: (100_000, 300_000),
    SystemicBand.MEDIUM: (35_000, 135_000),
    SystemicBand.LOW: (5_000, 35_000),
}


@dataclass(frozen=True)
class ShockSpec:
    klass: ShockClass
    likelihood_band: LikelihoodBand = LikelihoodBand.LEAST
    systemic_band: SystemicBand = SystemicBand.MEDIUM
    magnitude: int | None = None   # class-specific; micro
    duration: int = 0              # days
    chain: str = "main"
    day: int = 0


@dataclass
class ShockState:
    """Mutable effects the scenario engine consults each day."""

    suspended_until: dict = field(default_factory=dict)   # chain -> day (exclusive)
    scheduled_burns: list = field(default_factory=list)   # (day, issuer, holder, amount)
    price_effects: dict = field(default_factory=dict)     # issuer key -> micro

    def suspended_chains(self, day: int) -> set:
        return {chain for chain, until in self.suspended_until.items() if day < until}


def apply_shock(spec: ShockSpec, world: LedgerWorld, state: ShockState,
                issuers: dict, mint_target: AgentId, rng: SplitMix64,
                params: PriceParams = PriceParams()) -> None:
    """Apply one catalog entry; effects depend on the shock class.

    issuers maps issuer key to its `IssuerBook`, whose configured chain
    the shock's chain selects; mint_target receives erroneous mints.
    """
    if not isinstance(spec.klass, ShockClass):
        raise UnknownShockClass(str(spec.klass))
    world.emit("shock_applied", klass=spec.klass.value, chain=spec.chain,
               magnitude=spec.magnitude, duration=spec.duration,
               likelihood=spec.likelihood_band.value,
               systemic=spec.systemic_band.value)
    if spec.klass in (ShockClass.LIVENESS_FAULT, ShockClass.CORRELATED_LIVENESS):
        until = world.day + max(1, spec.duration)
        state.suspended_until[spec.chain] = max(
            state.suspended_until.get(spec.chain, 0), until)
        return
    on_chain = {key: book.agent for key, book in sorted(issuers.items())
                if book.config.chain == spec.chain}
    if spec.klass is ShockClass.UNCONTROLLED_SUPPLY:
        for key, issuer in on_chain.items():
            coins = world.coins_outstanding(issuer)
            minted = mul_frac(coins, spec.magnitude or 0)
            if minted <= 0:
                continue
            world.transfer_coin(issuer, mint_target, issuer, minted)
            world.emit("uncontrolled_mint", issuer=key, amount=minted)
            if spec.duration <= 0:
                world.transfer_coin(mint_target, issuer, issuer, minted)
                world.emit("corrective_burn", issuer=key, amount=minted)
            else:
                state.scheduled_burns.append(
                    (world.day + spec.duration, issuer, mint_target, minted))
            state.price_effects[key] = state.price_effects.get(key, 0) + \
                params.supply_incident_dip
        return
    if spec.klass is ShockClass.CONFIDENCE_ONLY:
        magnitude = spec.magnitude
        if magnitude is None:
            lo, hi = CONFIDENCE_BANDS[spec.systemic_band]
            magnitude = rng.uniform_int(lo, hi)
        for key in on_chain:
            state.price_effects[key] = state.price_effects.get(key, 0) + magnitude


def run_corrective_burns(world: LedgerWorld, state: ShockState) -> None:
    due = [b for b in state.scheduled_burns if b[0] <= world.day]
    state.scheduled_burns = [b for b in state.scheduled_burns if b[0] > world.day]
    for _, issuer, holder, amount in due:
        held = world.sheet(holder).asset(coin_key(issuer))
        amount = min(amount, held)
        if amount > 0:
            world.transfer_coin(holder, issuer, issuer, amount)
            world.emit("corrective_burn", issuer=issuer.key, amount=amount)
