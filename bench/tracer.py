"""Span tracing of stablesim's public entry points, from outside the program.

`Tracer.installed()` replaces each entry point in `ENTRY_POINTS` with a
wrapper that records a span (id, parent id, name, start, end) in memory,
and puts every original back when the block ends. A function is patched
in every stablesim module that holds it, because callers look it up in
their own module (`from .dynamics import redemption_demand` binds the
name in `stablesim.engine`); a method is patched on its class.

`money` and `rng` helpers and the ledger's accessors (`sheet`,
`tbill_value`, `emit`, ...) are not wrapped: they run hundreds of
thousands of times and their time counts as their callers' self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "stablesim"
# module -> names of the wrapped functions and Class.method entry points
ENTRY_POINTS = {
    "config": ("parse_config",),
    "engine": ("build_scenario", "run", "sweep",
               "RunOutput.daily_csv", "RunOutput.market_csv",
               "RunOutput.analytics_csv", "RunOutput.summary_json",
               "RunOutput.events_jsonl", "SweepReport.matrix_csv"),
    "ledger": ("LedgerWorld.post", "LedgerWorld.post_transfer",
               "LedgerWorld.transfer_tbill", "LedgerWorld.grant_tbill",
               "LedgerWorld.remark_tbills", "LedgerWorld.audit"),
    "instruments": ("open_reverse_repo", "close_or_default_repo", "roll_repo",
                    "mark_treasuries", "RepoRegistry.open_positions",
                    "RepoRegistry.by_lender", "RepoRegistry.free_face",
                    "RepoRegistry.total_principal"),
    "settlement": ("intervene", "plan_mint",
                   "SettlementEngine.begin_day", "SettlementEngine.coins_outstanding",
                   "SettlementEngine.submit_redemption", "SettlementEngine.submit_mint",
                   "SettlementEngine.plan_pending", "SettlementEngine.note_fill",
                   "SettlementEngine.credit_proceeds",
                   "SettlementEngine.process_repo_legs", "SettlementEngine.payout_pass",
                   "SettlementEngine.mint_pass", "SettlementEngine.overdue_amount",
                   "SettlementEngine.queue_age", "SettlementEngine.sweep_delay_flags"),
    "market": ("draw_srf", "Market.begin_day", "Market.capacity",
               "Market.submit_sale", "Market.resubmit_carryover",
               "Market.funding_gap_liquidation", "Market.settle_due",
               "Market.offload_inventory", "Market.apply_day_impact"),
    "dynamics": ("redemption_demand", "update_secondary_price", "apply_shock",
                 "run_corrective_burns"),
    "analytics": ("leverage_ratio", "slr", "liquidity_metrics", "analytics_row"),
}

_MARK = "__stablesim_bench_span__"


class Tracer:
    """Records spans in memory; `spans` holds (id, parent, name, start_ns,
    end_ns) tuples in the order the spans end, parent -1 at the top."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []   # (owner, attribute, original)
        self.missing: list[str] = []      # entry points the program no longer has

    def wrap(self, fn, name: str, defaults: dict | None = None):
        """`fn` recording a span named `name`; `defaults` fills unset kwargs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if defaults:
                for key, value in defaults.items():
                    kwargs.setdefault(key, value)
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        setattr(traced, _MARK, name)
        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self, defaults: dict | None = None) -> None:
        """Wrap every entry point; `defaults` maps span name -> kwargs.

        An entry point the program no longer has is listed in `missing`
        and left out; its time then counts as its callers' self time.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        defaults = defaults or {}
        for module_name in ENTRY_POINTS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, entries in ENTRY_POINTS.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for entry in entries:
                name = f"{module_name}.{entry.rsplit('.', 1)[-1]}"
                cls_name, _, method = entry.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                if method not in getattr(owner, "__dict__", {}):
                    self.missing.append(f"{module_name}.{entry}")
                    continue
                if cls_name:
                    self._patch(owner, method, self.wrap(owner.__dict__[method], name,
                                                         defaults.get(name)))
                    continue
                original = getattr(module, entry)
                traced = self.wrap(original, name, defaults.get(name))
                for holder in modules:
                    if getattr(holder, entry, None) is original:
                        self._patch(holder, entry, traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self, defaults: dict | None = None):
        try:
            self.install(defaults)
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Write the spans as TSV: id, parent, name, start_ns, duration_ns."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ns\tduration_ns\n")
            for sid, parent, name, start, end in sorted(self.spans):
                out.write(f"{sid}\t{parent}\t{name}\t{start}\t{end - start}\n")


def is_wrapper(obj) -> bool:
    return hasattr(obj, _MARK)


def self_times(spans) -> dict:
    """Span id -> its duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; the part of a span its children cover is
    the sum of their durations.
    """
    covered: dict = defaultdict(int)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: end - start - covered[sid] for sid, _p, _n, start, end in spans}


def summarize(spans) -> dict:
    """Span name -> {"calls", "total_ns", "self_ns"} over all spans."""
    own = self_times(spans)
    out: dict = {}
    for sid, _parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += own[sid]
    return out
