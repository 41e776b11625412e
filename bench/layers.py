"""Per-layer metrics of a traced run: spans plus a day-end probe.

Layers are the stablesim modules; see README.md for what each metric
should move and on which workload.
"""

from __future__ import annotations

import time

from tracer import summarize

NS = 1e-9


class DayProbe:
    """`on_day_end` hook: day timestamps, request and carryover state, and
    counts from the events emitted since the previous call. A run starts
    again at day 0, so one probe can watch every point of a sweep."""

    def __init__(self):
        self.runs: list = []   # per run: (day-end entry ns, exit ns) pairs
        self.open_shares: list = []
        self.carryover_peak = 0
        self.events = 0
        self.regime_flips = 0
        self.sale_requested = 0
        self.sale_filled = 0
        self._seen = 0

    def __call__(self, scn, day: int) -> None:
        entered = time.perf_counter_ns()
        if day == 0:
            self.runs.append([])
            self._seen = 0
        events = scn.world.events
        for event in events[self._seen:]:
            kind = event["type"]
            if kind == "regime_flip":
                self.regime_flips += 1
            elif kind == "sale_cleared":
                self.sale_requested += event["requested"]
                self.sale_filled += event["filled"]
        self.events += len(events) - self._seen
        self._seen = len(events)
        total = opened = 0
        for book in scn.settle.issuers.values():
            total += len(book.requests)
            opened += sum(1 for record in book.requests if not record.completed)
        if total:
            self.open_shares.append(opened / total)
        self.carryover_peak = max(self.carryover_peak, len(scn.market.carryover))
        self.runs[-1].append((entered, time.perf_counter_ns()))

    def day_growth(self) -> float:
        """Mean day time in the last tenth of the horizon over the first
        tenth, averaged over runs. Day d lasts from the probe's exit on day
        d-1 to its entry on day d, so day 0 (which includes the build) and
        the probe's own time are left out."""
        ratios = []
        for marks in self.runs:
            days = [enter - leave for (_, leave), (enter, _) in zip(marks, marks[1:])]
            if len(days) < 2:
                continue
            tenth = max(1, len(days) // 10)
            first = sum(days[:tenth])
            if first > 0:
                ratios.append(sum(days[-tenth:]) / first)
        return sum(ratios) / len(ratios) if ratios else 0.0


def metrics(spans, probe: DayProbe, output_bytes: int) -> dict:
    """Metric name -> (value, unit) for one traced run."""
    by_name = summarize(spans)

    def total(*names):
        return sum(by_name.get(n, {}).get("total_ns", 0) for n in names) * NS

    def own(*names):
        return sum(by_name.get(n, {}).get("self_ns", 0) for n in names) * NS

    def calls(*names):
        return sum(by_name.get(n, {}).get("calls", 0) for n in names)

    def layer(name):
        return [n for n in by_name if n.split(".", 1)[0] == name]

    emit = ("engine.daily_csv", "engine.market_csv", "engine.analytics_csv",
            "engine.summary_json", "engine.events_jsonl", "engine.matrix_csv")
    posting = ("ledger.post", "ledger.post_transfer", "ledger.transfer_tbill",
               "ledger.grant_tbill", "ledger.remark_tbills")
    scans = ("settlement.overdue_amount", "settlement.queue_age",
             "settlement.sweep_delay_flags")
    submitted = probe.sale_requested
    return {
        "config.parse_s": (own(*layer("config")), "s"),
        "engine.build_s": (own("engine.build_scenario"), "s"),
        "engine.self_s": (own("engine.run", "engine.sweep"), "s"),
        "engine.emit_s": (total(*emit), "s"),
        "engine.output_bytes": (output_bytes, "bytes"),
        "engine.day_growth": (probe.day_growth(), "ratio"),
        "ledger.audit_s": (total("ledger.audit"), "s"),
        "ledger.audit_calls": (calls("ledger.audit"), "count"),
        "ledger.post_s": (own(*posting), "s"),
        "ledger.post_calls": (calls("ledger.post"), "count"),
        "ledger.events": (probe.events, "count"),
        "settlement.self_s": (own(*layer("settlement")), "s"),
        "settlement.plan_pending_s": (total("settlement.plan_pending"), "s"),
        "settlement.payout_pass_s": (total("settlement.payout_pass"), "s"),
        "settlement.scan_s": (total(*scans), "s"),
        "settlement.requests": (calls("settlement.submit_redemption"), "count"),
        "settlement.open_share": (
            sum(probe.open_shares) / len(probe.open_shares) if probe.open_shares else 0.0,
            "ratio"),
        "market.self_s": (own(*layer("market")), "s"),
        "market.submit_sale_s": (total("market.submit_sale"), "s"),
        "market.submit_sale_calls": (calls("market.submit_sale"), "count"),
        "market.settle_due_s": (total("market.settle_due"), "s"),
        "market.fill_ratio": (probe.sale_filled / submitted if submitted else 0.0, "ratio"),
        "market.carryover_peak": (probe.carryover_peak, "count"),
        "instruments.self_s": (own(*layer("instruments")), "s"),
        "instruments.repo_rolls": (calls("instruments.roll_repo"), "count"),
        "instruments.marks": (calls("instruments.mark_treasuries"), "count"),
        "dynamics.self_s": (own(*layer("dynamics")), "s"),
        "dynamics.regime_flips": (probe.regime_flips, "count"),
        "analytics.self_s": (own(*layer("analytics")), "s"),
        "analytics.calls": (calls(*layer("analytics")), "count"),
    }
