//! Chaos campaign smoke: randomized fault schedules over concurrent scans.
//!
//! Runs `btr_server::chaos::run_campaign` — each schedule is a fresh
//! simulated object store with a randomized [`btr_s3sim::FaultPlan`]
//! (sometimes plus a permanently bit-flipped stored block), a fresh scan
//! service, eight concurrent scans, and classification of every outcome. The campaign's
//! pass condition is structural, not a throughput number: zero panics,
//! zero scans whose output diverges from the fault-free reference, and
//! zero failures that are not typed and attributed to an injected fault.
//! `BENCH_chaos.json` records the verdict and the fault-tolerance
//! machinery's activity counters (retries, hedges, breaker transitions,
//! quarantines) for CI trend-watching.

use crate::{time_it, Table};
use btr_server::{run_campaign, ChaosConfig, ChaosReport};

/// Schedules to run; `BENCH_CHAOS_SCHEDULES` overrides (check.sh keeps the
/// smoke small, the acceptance test in btr-server runs 1,000).
pub fn bench_schedules() -> usize {
    std::env::var("BENCH_CHAOS_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// Campaign result plus wall-clock time.
#[derive(Debug, Clone)]
pub struct ChaosBench {
    /// The campaign's aggregated report.
    pub report: ChaosReport,
    /// Wall-clock seconds for the whole campaign.
    pub seconds: f64,
}

/// Runs the campaign at the given size.
pub fn measure(schedules: usize, seed: u64) -> ChaosBench {
    let config = ChaosConfig {
        seed,
        schedules,
        ..ChaosConfig::default()
    };
    let (report, seconds) = time_it(|| run_campaign(&config).expect("campaign setup"));
    ChaosBench { report, seconds }
}

/// `bin/all` entry point: the campaign ignores `rows` (its relation size is
/// part of the schedule recipe) and scales by `BENCH_CHAOS_SCHEDULES`.
pub fn run(_rows: usize, seed: u64) -> String {
    render(&measure(bench_schedules(), seed))
}

/// Renders the campaign verdict and activity counters.
pub fn render(bench: &ChaosBench) -> String {
    let r = &bench.report;
    let mut out = String::new();
    out.push_str(&format!(
        "chaos campaign: {} schedules, {} scans in {:.2}s — {}\n\n",
        r.schedules,
        r.scans_run,
        bench.seconds,
        if r.is_clean() { "CLEAN" } else { "DIRTY" },
    ));
    let mut t = Table::new(&["counter", "value"]);
    let rows: &[(&str, u64)] = &[
        ("scans ok (byte-identical)", r.scans_ok),
        ("scans failed (typed)", r.scans_failed),
        ("panics", r.panics),
        ("divergent", r.divergent),
        ("unattributed failures", r.unattributed),
        ("deadline exceeded", r.deadline_exceeded),
        ("retry budget exhausted", r.budget_exhausted),
        ("breaker fail-fast", r.breaker_open),
        ("quarantined-block failures", r.quarantined),
        ("retries exhausted", r.fetch_failed),
        ("retries", r.retries),
        ("hedges issued", r.hedges_issued),
        ("hedges won", r.hedges_won),
        ("breaker transitions", r.breaker_transitions),
        ("blocks quarantined", r.blocks_quarantined),
    ];
    for (name, value) in rows {
        t.row(vec![(*name).to_string(), value.to_string()]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nsimulated backoff charged: {:.2}s (wall time is real, backoff is not)\n",
        r.backoff_seconds
    ));
    out
}

/// Renders `measure` as JSON for `BENCH_chaos.json` (hand-rolled — the
/// workspace is hermetic, no serde).
pub fn json(bench: &ChaosBench, schedules: usize, seed: u64) -> String {
    let r = &bench.report;
    format!(
        "{{\n  \"schedules\": {schedules},\n  \"seed\": {seed},\n  \
         \"scans_run\": {},\n  \"scans_ok\": {},\n  \"scans_failed\": {},\n  \
         \"panics\": {},\n  \"divergent\": {},\n  \"unattributed\": {},\n  \
         \"deadline_exceeded\": {},\n  \"budget_exhausted\": {},\n  \
         \"breaker_open\": {},\n  \"quarantined\": {},\n  \"fetch_failed\": {},\n  \
         \"retries\": {},\n  \"backoff_seconds\": {:.3},\n  \
         \"hedges_issued\": {},\n  \"hedges_won\": {},\n  \
         \"breaker_transitions\": {},\n  \"blocks_quarantined\": {},\n  \
         \"clean\": {},\n  \"wall_seconds\": {:.3}\n}}\n",
        r.scans_run,
        r.scans_ok,
        r.scans_failed,
        r.panics,
        r.divergent,
        r.unattributed,
        r.deadline_exceeded,
        r.budget_exhausted,
        r.breaker_open,
        r.quarantined,
        r.fetch_failed,
        r.retries,
        r.backoff_seconds,
        r.hedges_issued,
        r.hedges_won,
        r.breaker_transitions,
        r.blocks_quarantined,
        r.is_clean(),
        bench.seconds,
    )
}
