//! `tvla_compact_shards`: one fixed-vs-random campaign per logic style,
//! captured as i16 samples with shuffle compression into two shards written
//! in parallel, then assessed by first- and second-order TVLA over the
//! merged shards.  The codec, the parallel shard writers, the shard merge
//! and the Welch folds do the work, on a working set that fits in the LLC.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    simulate_tvla_trace_range_into, synthesize_sbox_with_key, GateEnergyTable, GateNetlist,
    LeakageModel, LeakageOptions,
};
use dpl_eval::{interleaved_partition, tvla_streaming, tvla_streaming_second_order};
use dpl_power::{TraceSet, MAX_INPUT_CLASSES};
use dpl_store::{
    ArchiveMeta, CampaignManifest, Compression, ModelTag, Quantization, SampleEncoding, ShardMeta,
    ShardedReader,
};

use crate::io::{create_archive, CaptureSink, TimedSource};
use crate::trace::{SpanId, Tracer};
use crate::{Campaign, Checks, CAMPAIGN_KEY, CHUNK_TRACES};

/// The fixed plaintext nibble of every campaign.
const FIXED_PLAINTEXT: u64 = 0x3;

/// Shards per style, each written by its own thread.
const SHARDS: usize = 2;

/// Sizes of one campaign.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Traces per logic style.
    pub traces: usize,
    /// Traces per style of the untimed warm-up campaign run during set-up.
    pub warmup: usize,
}

/// 8 Mi traces per style: the size at which the paper's ordering holds.
pub const FULL: Size = Size {
    traces: 8 << 20,
    warmup: 1 << 18,
};

/// The four built-in styles, with whether TVLA must detect leakage.
const STYLES: [(LeakageModel, ModelTag, bool); 4] = [
    (LeakageModel::HammingWeight, ModelTag::HammingWeight, true),
    (LeakageModel::GenuineSabl, ModelTag::GenuineSabl, true),
    (
        LeakageModel::FullyConnectedSabl,
        ModelTag::FullyConnectedSabl,
        false,
    ),
    (LeakageModel::EnhancedSabl, ModelTag::EnhancedSabl, false),
];

struct Style {
    model: LeakageModel,
    tag: ModelTag,
    leaks: bool,
    table: GateEnergyTable,
    quantization: Quantization,
}

pub struct Tvla {
    netlist: GateNetlist,
    styles: Vec<Style>,
    options: LeakageOptions,
    dir: PathBuf,
    size: Size,
}

impl Tvla {
    /// Synthesises the S-box datapath, builds the four energy tables,
    /// derives each style's i16 scale from its first traces and runs a small
    /// untimed campaign through the same code.
    pub fn setup(
        seed: u64,
        size: Size,
        scratch: &Path,
        checks: &mut Checks,
    ) -> Result<Self, String> {
        let netlist = synthesize_sbox_with_key().map_err(|e| format!("synthesis: {e}"))?;
        let options = LeakageOptions {
            relative_noise: 0.01,
            seed,
        };
        let capacitance = CapacitanceModel::default();
        let mut styles = Vec::new();
        for (model, tag, leaks) in STYLES {
            let table = GateEnergyTable::build(model, &capacitance)
                .map_err(|e| format!("energy table: {e}"))?;
            let quantization = probe_quantization(&netlist, &table, &options)?;
            styles.push(Style {
                model,
                tag,
                leaks,
                table,
                quantization,
            });
        }
        let tvla = Tvla {
            netlist,
            styles,
            options,
            dir: scratch.to_path_buf(),
            size,
        };
        tvla.run(size.warmup, &Tracer::new(false), checks)?;
        Ok(tvla)
    }

    pub fn campaign(&self, tracer: &Tracer, checks: &mut Checks) -> Result<Campaign, String> {
        self.run(self.size.traces, tracer, checks)
    }

    fn run(&self, traces: usize, tracer: &Tracer, checks: &mut Checks) -> Result<Campaign, String> {
        let mut capture_s = 0.0;
        let mut assess_s = 0.0;
        let mut archive_bytes = 0u64;
        for style in &self.styles {
            let stem = format!("tvla-{}", style.model.short_name());
            let manifest_path = self.dir.join(format!("{stem}.json"));

            let start = Instant::now();
            let plan = {
                let _span = tracer.span("bench.capture");
                self.capture(style, traces, &stem, &manifest_path, tracer)?
            };
            capture_s += start.elapsed().as_secs_f64();
            for shard in &plan {
                archive_bytes += std::fs::metadata(self.dir.join(&shard.path))
                    .map_err(|e| format!("shard size: {e}"))?
                    .len();
            }

            let open = || -> Result<_, String> {
                let _span = tracer.span("store.open");
                let reader = ShardedReader::open(&manifest_path)
                    .map_err(|e| format!("open campaign: {e}"))?;
                Ok(TimedSource::new(reader, tracer))
            };
            let mut source = open()?;
            let start = Instant::now();
            let first = {
                let _span = tracer.span("eval.tvla1_fold");
                tvla_streaming(&mut source, interleaved_partition)
                    .map_err(|e| format!("first-order TVLA: {e}"))?
            };
            assess_s += start.elapsed().as_secs_f64();
            let mut source = open()?;
            let start = Instant::now();
            let second = {
                let _span = tracer.span("eval.tvla2_fold");
                tvla_streaming_second_order(&mut source, interleaved_partition)
                    .map_err(|e| format!("second-order TVLA: {e}"))?
            };
            assess_s += start.elapsed().as_secs_f64();
            for shard in &plan {
                std::fs::remove_file(self.dir.join(&shard.path))
                    .map_err(|e| format!("remove shard: {e}"))?;
            }
            std::fs::remove_file(&manifest_path).map_err(|e| format!("remove manifest: {e}"))?;

            eprintln!(
                "  {:>8}: max |t| first order {:.2}, second order {:.2}",
                style.model.short_name(),
                first.max_abs_t(),
                second.max_abs_t()
            );
            for (order, result) in [("first", &first), ("second", &second)] {
                checks.check(result.leaks() == style.leaks, || {
                    format!(
                        "{} {order}-order TVLA: max |t| = {:.2}, expected {}",
                        style.model.short_name(),
                        result.max_abs_t(),
                        if style.leaks {
                            "LEAKAGE DETECTED"
                        } else {
                            "no leakage"
                        }
                    )
                });
            }
        }
        let total = (traces * self.styles.len()) as f64;
        Ok(Campaign {
            capture: (total, capture_s),
            assess: (2.0 * total, assess_s),
            bytes_per_trace: archive_bytes as f64 / total,
        })
    }

    /// Captures one style's campaign into chunk-aligned shards, one thread
    /// per shard, and saves the manifest over them.
    fn capture(
        &self,
        style: &Style,
        traces: usize,
        stem: &str,
        manifest_path: &Path,
        tracer: &Tracer,
    ) -> Result<Vec<ShardMeta>, String> {
        let chunk = CHUNK_TRACES;
        let per_shard = traces.div_ceil(chunk).div_ceil(SHARDS).max(1) * chunk;
        let mut plan = Vec::new();
        let mut start = 0usize;
        while start < traces {
            let count = per_shard.min(traces - start);
            plan.push(ShardMeta {
                path: format!("{stem}-shard-{:03}.dpltrc", plan.len()),
                traces: count as u64,
                start: start as u64,
            });
            start += count;
        }
        let meta = ArchiveMeta::scalar_tvla(chunk, style.tag, self.options.seed)
            .with_encoding(SampleEncoding::I16(style.quantization))
            .with_compression(Compression::Shuffle);
        let parent = tracer.current();
        let outcomes: Vec<Result<Option<Vec<u64>>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .iter()
                .map(|shard| {
                    scope.spawn(move || self.capture_shard(style, shard, meta, parent, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a shard writer panicked".into()))
                })
                .collect()
        });
        let mut union: Option<Vec<u64>> = Some(Vec::new());
        for outcome in outcomes {
            match (outcome?, union.as_mut()) {
                (Some(inputs), Some(all)) => {
                    all.extend(inputs);
                    all.sort_unstable();
                    all.dedup();
                }
                _ => union = None,
            }
        }
        let distinct = union
            .filter(|all| all.len() <= MAX_INPUT_CLASSES)
            .map_or(0, |all| all.len() as u32);
        let _span = tracer.span("store.manifest");
        CampaignManifest::new(plan.clone(), distinct)
            .and_then(|m| m.save(manifest_path))
            .map_err(|e| format!("manifest: {e}"))?;
        Ok(plan)
    }

    fn capture_shard(
        &self,
        style: &Style,
        shard: &ShardMeta,
        meta: ArchiveMeta,
        parent: SpanId,
        tracer: &Tracer,
    ) -> Result<Option<Vec<u64>>, String> {
        let _span = tracer.span_under("bench.shard", parent);
        let path = self.dir.join(&shard.path);
        let mut writer =
            create_archive(&path, meta, tracer).map_err(|e| format!("create shard: {e}"))?;
        let distinct = {
            let mut sink = CaptureSink::new(&mut writer, tracer).tracking_distinct();
            {
                let _span = tracer.span("crypto.simulate");
                simulate_tvla_trace_range_into(
                    &self.netlist,
                    &style.table,
                    CAMPAIGN_KEY,
                    FIXED_PLAINTEXT,
                    shard.start,
                    shard.traces,
                    &self.options,
                    &mut sink,
                )
                .map_err(|e| format!("shard capture: {e}"))?;
            }
            sink.distinct_inputs().map(<[u64]>::to_vec)
        };
        let _span = tracer.span("store.finish");
        writer.finish().map_err(|e| format!("finish shard: {e}"))?;
        Ok(distinct)
    }
}

/// The i16 scale of a style: twice the largest magnitude among the
/// campaign's first 1024 traces, spread over the positive i16 range.
fn probe_quantization(
    netlist: &GateNetlist,
    table: &GateEnergyTable,
    options: &LeakageOptions,
) -> Result<Quantization, String> {
    let mut probe = TraceSet::new();
    let Ok(()) = simulate_tvla_trace_range_into(
        netlist,
        table,
        CAMPAIGN_KEY,
        FIXED_PLAINTEXT,
        0,
        1024,
        options,
        &mut probe,
    );
    let max_abs = (0..probe.len())
        .flat_map(|t| probe.trace_samples(t))
        .fold(0.0f64, |m, v| m.max(v.abs()));
    Quantization::new(max_abs * 2.0 / f64::from(i16::MAX)).map_err(|e| format!("quantization: {e}"))
}
