//! Out-of-core TVLA over `dpl-store` archives.
//!
//! Every fold here runs the Welch accumulators, which implement
//! [`dpl_power::Fold`], through the chunk-loop driver of `dpl-store`
//! ([`dpl_store::run_fold`] / [`dpl_store::run_fold_salvage`]).  The
//! sequential folds ([`tvla_streaming`], [`tvla_streaming_second_order`],
//! [`tvla_salvage`]) are **bit-identical** to the in-memory
//! [`crate::tvla()`] / [`crate::tvla_second_order`] over the same traces —
//! the same guarantee the out-of-core attacks of `dpl-store` give.
//!
//! [`tvla_parallel`] shards work by **sample column**, not by chunk: each
//! scoped-thread worker runs the same driver over a column view of its own
//! source holding the columns `w, w+n, w+2n, ...`.  Every (group, column)
//! slot therefore receives the exact addition sequence of the sequential
//! fold, and the assembled result is **bit-identical to the sequential fold
//! for any worker count**.  The price is that every worker reads (and
//! checksums) every chunk, which is the right trade for the multi-sample
//! traces TVLA sweeps target; for single-sample archives the fold degrades
//! gracefully to one effective worker.

use std::io::{Read, Seek};

use dpl_obs::{names, Obs};
use dpl_power::TraceSet;
use dpl_store::{
    run_fold, run_fold_salvage, ArchiveMeta, ArchiveReader, ChunkSource, DamageReport,
    Result as StoreResult, RetryPolicy,
};

use crate::tvla::{SecondOrderWelchAccumulator, WelchAccumulator};
use crate::{Result, TvlaGroup, TvlaResult};

/// Which t-test a TVLA evaluation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TvlaOrder {
    /// First-order Welch t-test on the raw samples.
    #[default]
    First,
    /// Second-order t-test on centered-product preprocessed samples
    /// (`y = (x - group mean)²`).
    Second,
}

impl TvlaOrder {
    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TvlaOrder::First => "first-order",
            TvlaOrder::Second => "second-order (centered product)",
        }
    }
}

/// First-order Welch t-test folded chunk-by-chunk over any
/// [`ChunkSource`] — a single archive or a sharded campaign
/// ([`dpl_store::ShardedReader`]) alike, with one decode buffer reused
/// across chunks.
///
/// Bit-identical to [`crate::tvla()`] over the same traces.
///
/// # Errors
///
/// Returns an error for an empty archive or any chunk failure (I/O,
/// truncation, checksum mismatch).
pub fn tvla_streaming<S, F>(source: &mut S, partition: F) -> Result<TvlaResult>
where
    S: ChunkSource + ?Sized,
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    run_fold(
        source,
        WelchAccumulator::new(partition),
        "eval.tvla_streaming",
    )
}

/// Second-order (centered-product) t-test folded over an archive in two
/// passes; the second pass re-reads the chunks to center on the sealed
/// per-group means.
///
/// Bit-identical to [`crate::tvla_second_order`] over the same traces.
///
/// # Errors
///
/// Returns an error for an empty archive or any chunk failure.
pub fn tvla_streaming_second_order<S, F>(source: &mut S, partition: F) -> Result<TvlaResult>
where
    S: ChunkSource + ?Sized,
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    run_fold(
        source,
        SecondOrderWelchAccumulator::new(partition),
        "eval.tvla_streaming_second_order",
    )
}

/// TVLA over the surviving chunks of a damaged archive.
///
/// Bit-identical to [`tvla_streaming`] / [`tvla_streaming_second_order`] on
/// a clean archive.  On a damaged one, surviving traces are folded in
/// archive order with the lost traces simply absent — the partition
/// function sees the *compacted* global index — so the result equals the
/// strict statistic over an archive written without the lost chunks'
/// traces.  Whole chunks are kept or excluded, never split.
///
/// # Errors
///
/// Returns an error when damage leaves no usable traces, or (second order)
/// when a chunk that verified in pass 1 fails in pass 2 — the passes must
/// fold the same traces, so that inconsistency fails closed.
pub fn tvla_salvage<R, F>(
    reader: &mut ArchiveReader<R>,
    partition: F,
    order: TvlaOrder,
    retry: &RetryPolicy,
) -> Result<(TvlaResult, DamageReport)>
where
    R: Read + Seek,
    F: Fn(u64, u64) -> Option<TvlaGroup>,
{
    let span = "eval.tvla_salvage";
    match order {
        TvlaOrder::First => run_fold_salvage(reader, WelchAccumulator::new(partition), span, retry),
        TvlaOrder::Second => run_fold_salvage(
            reader,
            SecondOrderWelchAccumulator::new(partition),
            span,
            retry,
        ),
    }
}

fn default_worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// A [`ChunkSource`] exposing only the sample columns `first, first + step,
/// ...` of another source — the share one [`tvla_parallel`] worker folds.
/// It carries no telemetry context: the parallel fold reports through its
/// own span.
struct ColumnView<S> {
    source: S,
    columns: Vec<usize>,
    meta: ArchiveMeta,
    full: TraceSet,
}

impl<S: ChunkSource> ColumnView<S> {
    fn new(source: S, first: usize, step: usize) -> Self {
        let columns: Vec<usize> = (first..source.samples_per_trace()).step_by(step).collect();
        let meta = ArchiveMeta {
            samples_per_trace: columns.len(),
            ..*source.meta()
        };
        ColumnView {
            source,
            columns,
            meta,
            full: TraceSet::new(),
        }
    }
}

impl<S: ChunkSource> ChunkSource for ColumnView<S> {
    fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    fn trace_count(&self) -> u64 {
        self.source.trace_count()
    }

    fn chunk_count(&self) -> usize {
        self.source.chunk_count()
    }

    fn distinct_inputs(&self) -> Option<usize> {
        self.source.distinct_inputs()
    }

    fn read_chunk(&mut self, index: usize) -> StoreResult<TraceSet> {
        let mut set = TraceSet::new();
        self.read_chunk_into(index, &mut set)?;
        Ok(set)
    }

    fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> StoreResult<()> {
        self.source.read_chunk_into(index, &mut self.full)?;
        let (full, columns) = (&self.full, &self.columns);
        let traces = full.len();
        set.refill_columns(columns.len(), traces, |inputs, data| {
            inputs.extend_from_slice(full.inputs());
            for (j, &column) in columns.iter().enumerate() {
                data[j * traces..(j + 1) * traces].copy_from_slice(full.sample_column(column));
            }
            Ok(())
        })
    }

    fn obs(&self) -> Option<&Obs> {
        None
    }
}

/// Scoped-thread parallel TVLA over any reopenable [`ChunkSource`] (a
/// single archive or a [`dpl_store::ShardedReader`] campaign), sharded by
/// **sample column**: worker `w` of `n` opens its own source via `open` and
/// folds columns `w, w+n, w+2n, ...` through the ordinary sequential fold,
/// so every column's sums are built by the exact addition sequence of the
/// sequential fold.
///
/// The result is **bit-identical to [`tvla_streaming`] /
/// [`tvla_streaming_second_order`] (and hence to the in-memory statistic)
/// for any worker count** — asserted by the integration tests.  Workers
/// default to the available parallelism (capped at 8) and are clamped to
/// the number of sample columns.
///
/// With a telemetry context the whole fold runs under an
/// `eval.tvla_parallel` span (annotated with the worker and trace counts),
/// the assembly of the per-worker results is attributed to a `fold.merge`
/// phase span, and each reunion counts into `fold.merges`.  The workers'
/// own folds are not observed.
///
/// # Errors
///
/// Returns an error for an empty or unopenable campaign, or any chunk or
/// fold failure in any worker.
pub fn tvla_parallel<S, O, F>(
    open: O,
    partition: F,
    order: TvlaOrder,
    workers: Option<usize>,
    obs: Option<&Obs>,
) -> Result<TvlaResult>
where
    S: ChunkSource,
    O: Fn() -> StoreResult<S> + Sync,
    F: Fn(u64, u64) -> Option<TvlaGroup> + Sync,
{
    let probe = open()?;
    let samples = probe.samples_per_trace();
    let traces = probe.trace_count();
    drop(probe);
    let workers = workers
        .unwrap_or_else(default_worker_count)
        .clamp(1, samples.max(1));
    let span = obs.map(|o| o.span("eval.tvla_parallel"));

    let (open, partition) = (&open, &partition);
    let partials: Vec<Result<TvlaResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let mut view = ColumnView::new(open()?, worker, workers);
                    match order {
                        TvlaOrder::First => tvla_streaming(&mut view, partition),
                        TvlaOrder::Second => tvla_streaming_second_order(&mut view, partition),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("TVLA worker panicked"))
            .collect()
    });

    let merge_phase = obs.map(|o| o.phase("fold.merge", names::FOLD_MERGE_NS));
    let mut t = vec![0.0; samples];
    let mut counts = [0u64; 2];
    for (worker, partial) in partials.into_iter().enumerate() {
        // Every worker classifies every trace, so the counts agree.
        let partial = partial?;
        counts = partial.counts;
        for (slot, value) in t.iter_mut().skip(worker).step_by(workers).zip(partial.t) {
            *slot = value;
        }
    }
    drop(merge_phase);
    if let Some(obs) = obs {
        obs.counter_add(names::FOLD_MERGES, workers as u64);
        obs.counter_add(names::FOLD_TRACES, traces);
    }
    if let Some(span) = span {
        span.arg("workers", workers as u64);
        span.arg("traces", traces);
        span.finish();
    }
    Ok(TvlaResult { t, counts })
}
