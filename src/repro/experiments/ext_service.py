"""Extension experiment: the query service under open-loop load.

The paper evaluates its scheme on fixed 90-second closed loops
(Sec. VI); this extension asks what the same partitioning decisions
buy a *service* that faces offered load it does not control:

* **load table** — throughput, shedding and per-tenant p99 versus
  offered arrival rate, for no partitioning, the paper's static scheme,
  and the adaptive controller.  At low load all three coincide (the
  machine is never contended); at high load the unpartitioned baseline
  completes fewer requests per second and hands the OLTP tenant a
  worse tail, while the adaptive controller converges to the static
  scheme's behaviour without having been given the scheme.
* **shift table** — the adaptive controller across an OLAP-heavy ->
  OLTP-heavy mix shift at mid-run.  ``converge_ticks`` counts the
  control intervals from the shift to the controller's last
  reconfiguration; a small bound demonstrates the re-convergence the
  paper lists as future work (Sec. VIII).

Every run is seeded and the per-composition solve memo is shared
across the whole experiment, so the comparison is deterministic and
cheap: identical compositions under different policies/rates are
solved once.
"""

from __future__ import annotations

from ..serve import QueryService, ServiceConfig
from ..serve.service import ServiceReport
from .reporting import format_table
from .runner import FigureResult

SEED = 7
LOAD_RATES = (8.0, 16.0, 32.0)
FAST_LOAD_RATES = (8.0, 32.0)
POLICIES = ("none", "static", "adaptive")
DURATION_S = 15.0
FAST_DURATION_S = 8.0
SHIFT_DURATION_S = 16.0
FAST_SHIFT_DURATION_S = 10.0


def _converge_ticks(report: ServiceReport, after_s: float = 0.0) -> int:
    """Control ticks from ``after_s`` to the last reconfiguration."""
    controller = report.controller
    if not controller.get("enabled"):
        return 0
    interval = report.config.control_interval_s
    changes = [
        t for t in controller["change_times_s"] if t >= after_s
    ]
    if not changes:
        return 0
    return int(round((changes[-1] - after_s) / interval))


def _row(
    table: str, report: ServiceReport, converge_after_s: float = 0.0
) -> tuple:
    olap = report.verdict_for("olap")
    oltp = report.verdict_for("oltp")
    controller = report.controller
    return (
        table,
        report.config.rate_per_s,
        report.config.policy,
        round(report.completed_per_s, 3),
        report.shed,
        round(olap.p99_s, 4),
        round(oltp.p99_s, 4),
        report.slo_ok,
        controller.get("reconfigurations", 0),
        _converge_ticks(report, converge_after_s),
    )


def run(fast: bool = False) -> FigureResult:
    rates = FAST_LOAD_RATES if fast else LOAD_RATES
    duration = FAST_DURATION_S if fast else DURATION_S
    shift_duration = (
        FAST_SHIFT_DURATION_S if fast else SHIFT_DURATION_S
    )
    solve_memo: dict = {}

    result = FigureResult(
        figure_id="ext_service",
        title=(
            "Extension (Sec. VIII): open-loop query service — "
            "throughput and tail latency vs offered load, and "
            "adaptive re-convergence across a mix shift"
        ),
        headers=(
            "table", "rate_per_s", "policy", "completed_per_s",
            "shed", "p99_olap_s", "p99_oltp_s", "slo_ok",
            "reconfigs", "converge_ticks",
        ),
    )

    reports: dict[tuple[float, str], ServiceReport] = {}
    for rate in rates:
        for policy in POLICIES:
            config = ServiceConfig(
                profile="poisson",
                policy=policy,
                mix="olap",
                duration_s=duration,
                rate_per_s=rate,
                seed=SEED,
            )
            report = QueryService(config, solve_memo=solve_memo).run()
            reports[(rate, policy)] = report
            result.add(*_row("load", report))

    top = max(rates)
    none_tp = reports[(top, "none")].completed_per_s
    static_tp = reports[(top, "static")].completed_per_s
    adaptive_tp = reports[(top, "adaptive")].completed_per_s
    result.notes.append(
        f"rate {top:g}/s: completed/s none={none_tp:.2f} "
        f"static={static_tp:.2f} adaptive={adaptive_tp:.2f} "
        f"(static/none = {static_tp / none_tp:.3f}x)"
    )

    shift_at = shift_duration / 2.0
    shift_config = ServiceConfig(
        profile="poisson",
        policy="adaptive",
        mix="shift",
        duration_s=shift_duration,
        rate_per_s=max(rates),
        seed=SEED,
        shift_at_s=shift_at,
    )
    shift_report = QueryService(
        shift_config, solve_memo=solve_memo
    ).run()
    result.add(*_row("shift", shift_report, converge_after_s=shift_at))
    post_shift = _converge_ticks(shift_report, shift_at)
    result.notes.append(
        f"mix shift at {shift_at:g}s: controller re-converged "
        f"{post_shift} control tick(s) after the shift "
        f"({shift_report.controller['reconfigurations']} "
        f"reconfigurations total)"
    )
    return result


def main(fast: bool = False) -> FigureResult:
    result = run(fast=fast)
    print(format_table(result.headers, result.rows, title=result.title))
    for note in result.notes:
        print(f"note: {note}")
    return result


if __name__ == "__main__":
    main()
