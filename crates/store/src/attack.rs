//! The out-of-core fold driver and the DPA/CPA attacks built on it.
//!
//! [`run_fold`] and [`run_fold_salvage`] feed any [`Fold`] chunk by chunk
//! from a [`ChunkSource`], pass after pass, so peak memory is one chunk no
//! matter how many traces the campaign holds.  They share one loop over
//! passes × chunks and differ only in the read: strict reads decode into
//! one reused [`TraceSet`] and abort on the first bad chunk; salvage reads
//! skip damaged chunks.
//!
//! Folding chunk by chunk performs the exact same floating-point operations
//! as one update over the whole set, so [`dpa_attack_streaming`] /
//! [`cpa_attack_streaming`] are **bit-identical** to the in-memory
//! `dpl_power::dpa_attack` / `cpa_attack` on the same traces.

use std::io::{Read, Seek};

use dpl_obs::{names, rate_per_sec, Obs, SpanGuard};
use dpl_power::{AttackResult, CpaAccumulator, DpaAccumulator, Fold, InputProfile, TraceSet};

use crate::error::{Result, StoreError};
use crate::fault::RetryPolicy;
use crate::reader::{ArchiveReader, ChunkSource};
use crate::salvage::{DamageReport, SalvageOutcome};

/// Chunk-granular fold telemetry: accumulates locally (no lock traffic in
/// the hot loop beyond the reader's own counters) and flushes counters plus
/// peak-throughput gauges when the fold finishes.  Without a context every
/// call is a plain pass-through.
struct FoldObs {
    obs: Option<Obs>,
    span: Option<SpanGuard>,
    samples_per_trace: usize,
    traces: u64,
    updates: u64,
}

impl FoldObs {
    fn start(obs: Option<Obs>, span_name: &str, samples_per_trace: usize) -> Self {
        let span = obs.as_ref().map(|o| o.span(span_name));
        FoldObs {
            obs,
            span,
            samples_per_trace,
            traces: 0,
            updates: 0,
        }
    }

    /// Counts one chunk, advances the progress plane by its trace count,
    /// then runs the fold `step` under a `fold.update` phase span, so
    /// accumulator arithmetic is attributed separately from archive I/O.
    fn update<T>(&mut self, chunk: &TraceSet, step: impl FnOnce() -> T) -> T {
        let Some(obs) = &self.obs else { return step() };
        self.traces += chunk.len() as u64;
        self.updates += 1;
        obs.progress_advance(chunk.len() as u64);
        let _phase = obs.phase("fold.update", names::FOLD_UPDATE_NS);
        step()
    }

    /// Flushes counters and rate gauges and closes the span (annotated with
    /// the fold's trace/byte/update totals).
    fn finish(self) {
        let (Some(obs), Some(span)) = (self.obs, self.span) else {
            return;
        };
        // Trace payload bytes: 8-byte input + 8 bytes per sample, per trace.
        let bytes = self.traces * (8 + 8 * self.samples_per_trace as u64);
        span.arg("traces", self.traces);
        span.arg("bytes", bytes);
        span.arg("updates", self.updates);
        let elapsed = span.finish();
        obs.counter_add(names::FOLD_TRACES, self.traces);
        obs.counter_add(names::FOLD_UPDATES, self.updates);
        if let Some(rate) = rate_per_sec(self.traces, elapsed) {
            obs.gauge_max(names::FOLD_TRACES_PER_SEC, rate);
        }
        if let Some(rate) = rate_per_sec(bytes, elapsed) {
            obs.gauge_max(names::FOLD_BYTES_PER_SEC, rate);
        }
    }
}

/// The one chunk loop: for every pass and chunk, `read(pass, index, chunk)`
/// fills `chunk` and says whether to fold it; `watch` observes every folded
/// chunk.
fn drive<F, E>(
    mut fold: F,
    mut watch: FoldObs,
    chunks: usize,
    mut read: impl FnMut(usize, usize, &mut TraceSet) -> Result<bool>,
) -> std::result::Result<F::Output, E>
where
    F: Fold,
    E: From<StoreError> + From<F::Error>,
{
    let mut chunk = TraceSet::new();
    for pass in 0..F::PASSES {
        if pass > 0 {
            fold.begin_second_pass()?;
        }
        for index in 0..chunks {
            if read(pass, index, &mut chunk)? {
                watch.update(&chunk, || fold.update(&chunk))?;
            }
        }
    }
    watch.finish();
    Ok(fold.finalize()?)
}

/// Folds every chunk of `source`, in order, once per pass of `fold`, with
/// strict reads into one reused decode buffer; the fold's telemetry lands
/// in the source's context under a span named `span`.
///
/// # Errors
///
/// Returns the first chunk failure (I/O, truncation, checksum mismatch) or
/// fold error.
pub fn run_fold<S, F, E>(source: &mut S, fold: F, span: &str) -> std::result::Result<F::Output, E>
where
    S: ChunkSource + ?Sized,
    F: Fold,
    E: From<StoreError> + From<F::Error>,
{
    let watch = FoldObs::start(source.obs().cloned(), span, source.samples_per_trace());
    let chunks = source.chunk_count();
    drive(fold, watch, chunks, |_, index, chunk| {
        source.read_chunk_into(index, chunk)?;
        Ok(true)
    })
}

/// [`run_fold`] under the salvage rules of [`mod@crate::salvage`]: damaged
/// chunks are skipped in every pass and recorded in the returned
/// [`DamageReport`], after retrying transient I/O errors under `retry`.
///
/// # Errors
///
/// Returns an error for non-chunk-local failures, a fold error (e.g. no
/// surviving traces), or — as a [`StoreError::FormatViolation`] naming the
/// chunk — a chunk that verified in pass 1 but failed in pass 2.
pub fn run_fold_salvage<R, F, E>(
    reader: &mut ArchiveReader<R>,
    fold: F,
    span: &str,
    retry: &RetryPolicy,
) -> std::result::Result<(F::Output, DamageReport), E>
where
    R: Read + Seek,
    F: Fold,
    E: From<StoreError> + From<F::Error>,
{
    let watch = FoldObs::start(reader.obs().cloned(), span, reader.samples_per_trace());
    let chunks = reader.chunk_count();
    let mut report = DamageReport {
        chunks_scanned: chunks,
        traces_total: reader.trace_count(),
        ..DamageReport::default()
    };
    let mut damaged = vec![false; chunks];
    let output = drive::<F, E>(fold, watch, chunks, |pass, index, chunk| {
        if damaged[index] {
            return Ok(false);
        }
        match reader.read_chunk_salvage(index, retry)? {
            SalvageOutcome::Intact(set) => {
                if pass == 0 {
                    report.traces_read += set.len() as u64;
                }
                *chunk = set;
                Ok(true)
            }
            SalvageOutcome::Damaged(d) if pass == 0 => {
                damaged[index] = true;
                report.damaged.push(d);
                Ok(false)
            }
            SalvageOutcome::Damaged(d) => Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {} verified in pass 1 but failed in pass 2 ({}); \
                     refusing to finalize inconsistent passes",
                    d.chunk, d.cause
                ),
            }),
        }
    })?;
    Ok((output, report))
}

/// The accumulator bookkeeping implied by the campaign's recorded distinct
/// input count: class aggregation when the writer saw few distinct inputs,
/// the diverse-input fallback otherwise.  Either way the single matching
/// mode is maintained — never Auto's double bookkeeping.
pub(crate) fn profile_of<S: ChunkSource + ?Sized>(source: &S) -> InputProfile {
    match source.distinct_inputs() {
        Some(_) => InputProfile::FewClasses,
        None => InputProfile::Diverse,
    }
}

/// Difference-of-means DPA folded chunk-by-chunk over any [`ChunkSource`]
/// — a single archive or a sharded campaign.
///
/// Bit-identical to `dpl_power::dpa_attack` over the same traces.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty archive, or any chunk
/// failure (I/O, truncation, checksum mismatch).
pub fn dpa_attack_streaming<S, F>(
    source: &mut S,
    key_guesses: u64,
    selection: F,
) -> Result<AttackResult>
where
    S: ChunkSource + ?Sized,
    F: Fn(u64, u64) -> bool,
{
    let accumulator = DpaAccumulator::with_profile(key_guesses, selection, profile_of(source))?;
    run_fold(source, accumulator, "store.dpa_attack_streaming")
}

/// Correlation power analysis folded over any [`ChunkSource`] in two
/// passes (the second pass re-reads the chunks to center on the sealed
/// means).
///
/// Bit-identical to `dpl_power::cpa_attack` over the same traces.
///
/// # Errors
///
/// Returns an error for zero guesses, an empty archive, or any chunk
/// failure (I/O, truncation, checksum mismatch).
pub fn cpa_attack_streaming<S, F>(
    source: &mut S,
    key_guesses: u64,
    model: F,
) -> Result<AttackResult>
where
    S: ChunkSource + ?Sized,
    F: Fn(u64, u64) -> f64,
{
    let accumulator = CpaAccumulator::with_profile(key_guesses, model, profile_of(source))?;
    run_fold(source, accumulator, "store.cpa_attack_streaming")
}
