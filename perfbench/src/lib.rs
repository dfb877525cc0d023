//! End-to-end and per-layer benchmark of the DPDN pipeline: synthesis,
//! characterisation, trace capture, archive storage, attacks, TVLA and MTD,
//! each workload ending in the paper's verdicts.
//!
//! One run sets a workload up several times (the median is `setup_s`), then
//! runs its campaign in a closed loop — the next campaign starts when the
//! previous one has finished — until the run's time is spent.  Every
//! campaign checks its verdicts.  An untraced run reports the end-to-end
//! metrics over all its campaigns.  A traced run alternates untraced
//! and traced campaigns, writes the traced campaigns' spans to a file, and
//! derives the per-layer metrics from that file (see `README.md`).

pub mod host;
pub mod io;
pub mod keyrec;
pub mod library;
pub mod trace;
pub mod tvla;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dpl_obs::Json;
use trace::{LayerTotals, Trace, Tracer};

/// The secret key nibble of every campaign.
pub const CAMPAIGN_KEY: u8 = 0xA;

/// Traces per archive chunk, in every archive and shard a campaign writes.
pub const CHUNK_TRACES: usize = 1 << 16;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Where traced runs write their span files, relative to the working
/// directory.
pub const TRACE_DIR: &str = ".bench_out";

/// A workload and the sizes it runs at.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    KeyrecOocF64(keyrec::Size),
    TvlaCompactShards(tvla::Size),
    LibraryToMtd(library::Size),
}

impl Workload {
    /// The workload of a name, at full size.
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "keyrec_ooc_f64" => Some(Workload::KeyrecOocF64(keyrec::FULL)),
            "tvla_compact_shards" => Some(Workload::TvlaCompactShards(tvla::FULL)),
            "library_to_mtd" => Some(Workload::LibraryToMtd(library::FULL)),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::KeyrecOocF64(_) => "keyrec_ooc_f64",
            Workload::TvlaCompactShards(_) => "tvla_compact_shards",
            Workload::LibraryToMtd(_) => "library_to_mtd",
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of campaigns to run (at least one campaign always runs, two
    /// in a traced run).
    pub seconds: f64,
    pub trace: bool,
}

/// Verdict checks of a run: how many ran and what failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(describe());
        }
    }

    /// Counts an error that ended a set-up or campaign early.
    pub fn error(&mut self, message: String) {
        self.attempted += 1;
        self.failures.push(message);
    }
}

/// What one campaign measured outside any tracing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// Traces captured, and the seconds from the first simulated trace to
    /// the last `finish()` (for `library_to_mtd`: the MTD generators).
    pub capture: (f64, f64),
    /// Campaign traces per attack, TVLA or MTD call summed over the calls,
    /// and the seconds those calls took (for `library_to_mtd`: the MTD
    /// sweeps without their generators).
    pub assess: (f64, f64),
    /// Bytes a trace takes in the campaign's storage.
    pub bytes_per_trace: f64,
}

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Campaigns run untraced and traced.
    pub campaigns: (usize, usize),
    /// The span file of a traced run.
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.checks.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(&name, m)| {
                let metric = Json::object(vec![
                    ("value", Json::F64(m.value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (name, metric)
            })
            .collect();
        Json::object(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.checks.attempted)),
            ("failed", Json::U64(self.checks.failures.len() as u64)),
            ("metrics", Json::object(metrics)),
        ])
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a non-empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

enum Prepared {
    Keyrec(Box<keyrec::Keyrec>),
    Tvla(tvla::Tvla),
    Library(library::Library),
}

impl Prepared {
    fn setup(
        workload: Workload,
        seed: u64,
        scratch: &Path,
        checks: &mut Checks,
    ) -> Result<Prepared, String> {
        Ok(match workload {
            Workload::KeyrecOocF64(size) => Prepared::Keyrec(Box::new(keyrec::Keyrec::setup(
                seed, size, scratch, checks,
            )?)),
            Workload::TvlaCompactShards(size) => {
                Prepared::Tvla(tvla::Tvla::setup(seed, size, scratch, checks)?)
            }
            Workload::LibraryToMtd(size) => {
                Prepared::Library(library::Library::setup(seed, size, checks)?)
            }
        })
    }

    /// Runs one campaign under a `bench.campaign` root span; returns it
    /// with its wall-clock seconds.
    fn campaign(&self, tracer: &Tracer, checks: &mut Checks) -> Result<(Campaign, f64), String> {
        let start = Instant::now();
        let campaign = {
            let _root = tracer.span("bench.campaign");
            match self {
                Prepared::Keyrec(w) => w.campaign(tracer, checks),
                Prepared::Tvla(w) => w.campaign(tracer, checks),
                Prepared::Library(w) => w.campaign(tracer, checks),
            }?
        };
        Ok((campaign, start.elapsed().as_secs_f64()))
    }
}

/// Runs a workload: set-ups, then campaigns until `seconds` are spent.
///
/// # Errors
///
/// Returns an error when the scratch directory or the span file cannot be
/// written.  Pipeline errors and wrong verdicts are not errors of the run:
/// they are counted as failed checks.
pub fn run(options: &RunOptions) -> Result<RunResult, String> {
    let scratch = host::ScratchDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = Instant::now();
        match Prepared::setup(options.workload, options.seed, scratch.path(), &mut checks) {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                checks.error(format!("set-up: {e}"));
                break;
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Some(prepared) = prepared else {
        return Ok(RunResult {
            checks,
            metrics: BTreeMap::new(),
            campaigns: (0, 0),
            trace_file: None,
        });
    };

    let untraced = Tracer::new(false);
    let traced = Tracer::new(options.trace);
    let mut plain: Vec<(Campaign, f64)> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        let traced_turn = options.trace && plain.len() > traced_walls.len();
        let tracer = if traced_turn { &traced } else { &untraced };
        let (campaign, wall) = match prepared.campaign(tracer, &mut checks) {
            Ok(done) => done,
            Err(e) => {
                checks.error(format!("campaign: {e}"));
                break;
            }
        };
        eprintln!(
            "{} campaign: {wall:.3} s (capture {:.3} s, assess {:.3} s)",
            if traced_turn { "traced" } else { "untraced" },
            campaign.capture.1,
            campaign.assess.1
        );
        if traced_turn {
            traced_walls.push(wall);
        } else {
            plain.push((campaign, wall));
        }
        // Start another campaign only if one more of this length fits.
        let enough = !options.trace || !traced_walls.is_empty();
        if enough && start.elapsed().as_secs_f64() + wall > options.seconds {
            break;
        }
    }
    drop(prepared);
    drop(scratch);

    let mut metrics = BTreeMap::new();
    let mut trace_file = None;
    if options.trace && !traced_walls.is_empty() {
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = Path::new(TRACE_DIR).join(format!(
            "{}-seed{}-pid{}.tsv",
            options.workload.name(),
            options.seed,
            std::process::id()
        ));
        traced
            .write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let plain_walls: Vec<f64> = plain.iter().map(|(_, wall)| *wall).collect();
        metrics = layer_metrics(&Trace::load(&path)?, median(&plain_walls));
        trace_file = Some(path);
    } else if !options.trace && !plain.is_empty() {
        metrics = end_to_end_metrics(&plain, &setup_s);
    }
    Ok(RunResult {
        checks,
        metrics,
        campaigns: (plain.len(), traced_walls.len()),
        trace_file,
    })
}

fn metric(value: f64, unit: &'static str) -> Metric {
    Metric { value, unit }
}

/// The end-to-end metrics of an untraced run, over all its campaigns: the
/// mean campaign, and traces over seconds summed across the campaigns.
///
/// The host's speed drifts within a run, so the campaigns of one run are
/// not independent samples: a median over them jumps between the host's
/// fast and slow phases, while sums weigh every phase by its length.
fn end_to_end_metrics(
    campaigns: &[(Campaign, f64)],
    setup_s: &[f64],
) -> BTreeMap<&'static str, Metric> {
    let sum = |f: &dyn Fn(&Campaign, f64) -> f64| -> f64 {
        campaigns.iter().map(|(c, wall)| f(c, *wall)).sum()
    };
    let count = campaigns.len() as f64;
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", metric(median(setup_s), "s"));
    metrics.insert("wall_s", metric(sum(&|_, wall| wall) / count, "s"));
    metrics.insert(
        "capture_traces_per_s",
        metric(
            sum(&|c, _| c.capture.0) / sum(&|c, _| c.capture.1),
            "traces/s",
        ),
    );
    metrics.insert(
        "assess_traces_per_s",
        metric(
            sum(&|c, _| c.assess.0) / sum(&|c, _| c.assess.1),
            "traces/s",
        ),
    );
    metrics.insert(
        "archive_bytes_per_trace",
        metric(sum(&|c, _| c.bytes_per_trace) / count, "B"),
    );
    metrics.insert(
        "peak_rss_mb",
        metric(host::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    );
    metrics
}

/// Span names owned by the benchmark itself (glue, not a layer).
fn is_bench(name: &str) -> bool {
    name.starts_with("bench.")
}

/// The per-layer metrics of one traced campaign.
fn campaign_layers(
    trace: &Trace,
    totals: &LayerTotals,
    root: &trace::Span,
) -> BTreeMap<&'static str, Metric> {
    let wall = root.duration_ns() as f64 * 1e-9;
    let s = |name: &str| totals.self_s(name);
    let mut m = BTreeMap::new();
    let mut seconds = |key: &'static str, span: &str| {
        m.insert(key, metric(s(span), "s"));
    };
    for (key, span) in [
        ("crypto.simulate_s", "crypto.simulate"),
        ("crypto.table_build_s", "crypto.table_build"),
        ("store.append_s", "store.append"),
        ("store.encode_s", "store.encode"),
        ("store.write_s", "store.write"),
        ("store.fsync_s", "store.fsync"),
        ("store.finish_s", "store.finish"),
        ("store.manifest_s", "store.manifest"),
        ("store.open_s", "store.open"),
        ("store.read_s", "store.read"),
        ("store.decode_s", "store.decode"),
        ("power.dpa_fold_s", "power.dpa_fold"),
        ("power.cpa_fold_s", "power.cpa_fold"),
        ("eval.tvla1_fold_s", "eval.tvla1_fold"),
        ("eval.tvla2_fold_s", "eval.tvla2_fold"),
        ("eval.mtd_s", "eval.mtd"),
        ("sim.characterize_s", "sim.characterize"),
        ("core.synth_s", "core.synth"),
        ("core.verify_s", "core.verify"),
        ("cells.build_s", "cells.build"),
        ("verify.prove_s", "verify.prove"),
        ("verify.lint_s", "verify.lint"),
        ("verify.cert_s", "verify.cert"),
    ] {
        seconds(key, span);
    }
    let count = |v: u64| metric(v as f64, "count");
    m.insert("store.write_calls", count(totals.calls("store.write")));
    m.insert(
        "store.bytes_written",
        metric(totals.work("store.write") as f64, "B"),
    );
    m.insert("store.fsyncs", count(totals.calls("store.fsync")));
    m.insert("store.read_calls", count(totals.calls("store.read")));
    m.insert(
        "store.bytes_read",
        metric(totals.work("store.read") as f64, "B"),
    );
    m.insert("store.chunks", count(totals.calls("store.decode")));
    let read_s = s("store.read");
    let gbps = if read_s > 0.0 {
        totals.work("store.read") as f64 / read_s / 1e9
    } else {
        0.0
    };
    m.insert("store.read_gbps", metric(gbps, "GB/s"));
    m.insert(
        "store.shard_skew",
        metric(shard_skew(trace, root.id), "ratio"),
    );
    m.insert("core.devices", count(totals.work("core.synth")));
    m.insert("core.fc_cells", count(totals.work("core.verify")));
    m.insert("verify.bdd_nodes", count(totals.work("verify.prove")));
    let events = totals.calls("sim.characterize");
    m.insert("sim.events", count(events));
    let characterize_s = s("sim.characterize");
    m.insert(
        "sim.events_per_s",
        metric(
            if characterize_s > 0.0 {
                events as f64 / characterize_s
            } else {
                0.0
            },
            "events/s",
        ),
    );
    let event_ms: Vec<f64> = totals
        .durations
        .get("sim.characterize")
        .map(|d| d.iter().map(|s| s * 1e3).collect())
        .unwrap_or_default();
    m.insert(
        "sim.event_ms.p50",
        metric(percentile(&event_ms, 50.0), "ms"),
    );
    m.insert(
        "sim.event_ms.p95",
        metric(percentile(&event_ms, 95.0), "ms"),
    );
    let minor: f64 = [
        "core.synth",
        "core.verify",
        "cells.build",
        "crypto.table_build",
        "verify.prove",
        "verify.lint",
        "verify.cert",
    ]
    .iter()
    .map(|n| s(n))
    .sum();
    m.insert("trace.minor_layer_share", metric(minor / wall, "ratio"));
    let layers: f64 = totals
        .self_s
        .iter()
        .filter(|(name, _)| !is_bench(name))
        .map(|(_, t)| t)
        .sum();
    m.insert("trace.coverage", metric(layers / wall, "ratio"));
    m.insert("trace.wall_s", metric(wall, "s"));
    m
}

/// Slowest shard's capture time over the mean, averaged over the captures
/// of a campaign (1 when nothing was sharded).
fn shard_skew(trace: &Trace, root: trace::SpanId) -> f64 {
    let captures: Vec<trace::SpanId> = trace
        .spans
        .iter()
        .filter(|s| s.name == "bench.capture" && s.parent == root)
        .map(|s| s.id)
        .collect();
    let skews: Vec<f64> = captures
        .iter()
        .filter_map(|&capture| {
            let shards: Vec<f64> = trace
                .spans
                .iter()
                .filter(|s| s.parent == capture && s.name == "bench.shard")
                .map(|s| s.duration_ns() as f64)
                .collect();
            let mean = shards.iter().sum::<f64>() / shards.len() as f64;
            (!shards.is_empty() && mean > 0.0)
                .then(|| shards.iter().copied().fold(0.0, f64::max) / mean)
        })
        .collect();
    if skews.is_empty() {
        1.0
    } else {
        skews.iter().sum::<f64>() / skews.len() as f64
    }
}

/// The per-layer metrics of a traced run: medians over its traced
/// campaigns, plus the tracing overhead and the host ceilings.
fn layer_metrics(trace: &Trace, plain_wall: f64) -> BTreeMap<&'static str, Metric> {
    let per_campaign: Vec<BTreeMap<&'static str, Metric>> = trace
        .roots("bench.campaign")
        .into_iter()
        .map(|root| campaign_layers(trace, &trace.totals(root.id), root))
        .collect();
    let mut metrics = BTreeMap::new();
    if let Some(first) = per_campaign.first() {
        for (&name, m) in first {
            let values: Vec<f64> = per_campaign.iter().map(|c| c[name].value).collect();
            metrics.insert(name, metric(median(&values), m.unit));
        }
    }
    let traced_wall = metrics.get("trace.wall_s").map_or(f64::NAN, |m| m.value);
    metrics.insert("trace.overhead", metric(traced_wall / plain_wall, "ratio"));
    let llc = host::llc_bytes().unwrap_or(32 << 20);
    let (memcpy, checksum) = host::ceilings(llc);
    metrics.insert("host.memcpy_gbps", metric(memcpy, "GB/s"));
    metrics.insert("store.checksum_gbps", metric(checksum, "GB/s"));
    metrics
}
