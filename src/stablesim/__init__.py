"""Deterministic balance-sheet simulator for stablecoin redemption
stress, dealer intermediation capacity, and par-value dynamics."""

from .analytics import (CapitalBand, LeverageReport, LiquidityReport, SlrReport,
                        classify_fdicia, leverage_ratio, slr)
from .config import (ParseError, PRESETS, ScenarioConfig, ValidationError,
                     load_config, parse_config)
from .dynamics import (ConfidenceState, RunModel, SensitivityState, ShockClass,
                       ShockSpec, apply_shock, redemption_demand,
                       update_secondary_price)
from .engine import AuditFailure, RunOutput, run, sweep
from .instruments import (PortfolioState, RepoPosition, RepoRegistry, close_repo,
                          default_loss, mark_treasuries, open_reverse_repo,
                          roll_repo, step_portfolio)
from .ledger import (AgentId, AgentKind, AuditReport, BalanceSheet, DurationClass,
                     LedgerWorld, WorldSnapshot)
from .market import DealerBook, Market, VolumeDecomposition, decompose
from .money import MICRO, PAR, Amount, mul_div, mul_frac
from .settlement import (AccessMode, Funding, IssuerBook, ParMode, ParPolicy, Route,
                         SettlementEngine, intervene)

__version__ = "0.1.0"
