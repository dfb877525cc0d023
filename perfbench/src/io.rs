//! Wrappers that time the calls the store makes into the file system and
//! the calls the folds make into the store, from outside both.
//!
//! Every wrapper forwards to what it wraps; with a disabled tracer the only
//! added work is one branch per call.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

use dpl_power::{TraceSet, TraceSink, MAX_INPUT_CLASSES};
use dpl_store::{ArchiveMeta, ArchiveWriter, ChunkSource, StoreError, SyncWrite};

use crate::trace::{SpanId, Tracer};

/// A file whose `read`, `write` and `fsync` calls are spans
/// (`store.read`, `store.write`, `store.fsync`) counting the bytes moved.
#[derive(Debug)]
pub struct TimedFile<'t> {
    file: File,
    tracer: &'t Tracer,
}

impl<'t> TimedFile<'t> {
    pub fn create(path: &Path, tracer: &'t Tracer) -> std::io::Result<Self> {
        Ok(TimedFile {
            file: File::create(path)?,
            tracer,
        })
    }

    pub fn open(path: &Path, tracer: &'t Tracer) -> std::io::Result<Self> {
        Ok(TimedFile {
            file: File::open(path)?,
            tracer,
        })
    }
}

impl Read for TimedFile<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut span = self.tracer.span("store.read");
        let read = self.file.read(buf)?;
        span.add(read as u64);
        Ok(read)
    }
}

impl Write for TimedFile<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut span = self.tracer.span("store.write");
        let written = self.file.write(buf)?;
        span.add(written as u64);
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Seek for TimedFile<'_> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
}

impl SyncWrite for TimedFile<'_> {
    fn sync_contents(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        let _span = self.tracer.span("store.fsync");
        self.file.sync_all()
    }
}

/// One in this many buffered `record` calls is timed in a traced run.
pub const APPEND_SAMPLE: u64 = 16;

/// The trace sink of a capture: forwards every trace to an archive writer
/// and, for a shard, keeps its distinct inputs for the campaign manifest.
///
/// In a traced run, a `record` call that flushes a chunk is a
/// `store.encode` span (serialise + checksum, with its `store.write`
/// children).  The other calls only buffer the trace; every
/// [`APPEND_SAMPLE`]th one is timed, and their count times the sampled mean
/// (less the cost of the clock reads) is the `store.append` aggregate.
/// What is left of the enclosing `crypto.simulate` span is the generator's
/// own time.  Sampling keeps the clock reads off most of a path that costs
/// about 100 ns per trace.  An untraced capture that keeps no distinct
/// inputs needs none of this and passes the writer itself as the sink.
pub struct CaptureSink<'w, 't> {
    writer: &'w mut ArchiveWriter<TimedFile<'t>>,
    tracer: &'t Tracer,
    /// The distinct inputs seen, kept only for a shard.
    distinct: Option<Vec<u64>>,
    append_parent: SpanId,
    append_calls: u64,
    sampled_calls: u64,
    sampled_ns: u64,
}

impl<'w, 't> CaptureSink<'w, 't> {
    pub fn new(writer: &'w mut ArchiveWriter<TimedFile<'t>>, tracer: &'t Tracer) -> Self {
        CaptureSink {
            writer,
            tracer,
            distinct: None,
            append_parent: 0,
            append_calls: 0,
            sampled_calls: 0,
            sampled_ns: 0,
        }
    }

    /// Keeps the distinct inputs seen, as a shard writer must for the
    /// campaign manifest.
    pub fn tracking_distinct(mut self) -> Self {
        self.distinct = Some(Vec::with_capacity(MAX_INPUT_CLASSES + 1));
        self
    }

    /// The distinct inputs seen, or `None` when they are not kept or pass
    /// the attacks' class-aggregation limit (the manifest then records 0).
    pub fn distinct_inputs(&self) -> Option<&[u64]> {
        self.distinct
            .as_deref()
            .filter(|inputs| inputs.len() <= MAX_INPUT_CLASSES)
    }
}

impl Drop for CaptureSink<'_, '_> {
    fn drop(&mut self) {
        if self.sampled_calls > 0 {
            let mean = self.sampled_ns as f64 / self.sampled_calls as f64;
            let total = (mean * self.append_calls as f64) as u64;
            self.tracer
                .aggregate(self.append_parent, "store.append", self.append_calls, total);
        }
    }
}

impl TraceSink for CaptureSink<'_, '_> {
    type Error = StoreError;

    fn record(&mut self, input: u64, samples: &[f64]) -> Result<(), StoreError> {
        if let Some(distinct) = &mut self.distinct {
            if distinct.len() <= MAX_INPUT_CLASSES && !distinct.contains(&input) {
                distinct.push(input);
            }
        }
        if !self.tracer.enabled() {
            return self.writer.append(input, samples);
        }
        let chunk = self.writer.meta().chunk_traces as u64;
        if (self.writer.traces_written() + 1).is_multiple_of(chunk) {
            let _span = self.tracer.span("store.encode");
            return self.writer.append(input, samples);
        }
        self.append_calls += 1;
        if self.append_calls % APPEND_SAMPLE != 1 {
            return self.writer.append(input, samples);
        }
        if self.sampled_calls == 0 {
            self.append_parent = self.tracer.current();
        }
        let start = Instant::now();
        let outcome = self.writer.append(input, samples);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sampled_ns += elapsed.saturating_sub(self.tracer.clock_ns());
        self.sampled_calls += 1;
        outcome
    }
}

/// Creates an archive writer over a [`TimedFile`].
pub fn create_archive<'t>(
    path: &Path,
    meta: ArchiveMeta,
    tracer: &'t Tracer,
) -> Result<ArchiveWriter<TimedFile<'t>>, StoreError> {
    ArchiveWriter::new(TimedFile::create(path, tracer)?, meta)
}

/// A chunk source whose chunk reads are `store.decode` spans: their self
/// time is checksum verification plus decoding, and any `store.read`
/// children are the file reads beneath.  The folds above it see only the
/// wrapped source.
pub struct TimedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
}

impl<'t, S: ChunkSource> TimedSource<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TimedSource { inner, tracer }
    }
}

impl<S: ChunkSource> ChunkSource for TimedSource<'_, S> {
    fn meta(&self) -> &ArchiveMeta {
        self.inner.meta()
    }

    fn trace_count(&self) -> u64 {
        self.inner.trace_count()
    }

    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    fn distinct_inputs(&self) -> Option<usize> {
        self.inner.distinct_inputs()
    }

    fn read_chunk(&mut self, index: usize) -> dpl_store::Result<TraceSet> {
        let _span = self.tracer.span("store.decode");
        self.inner.read_chunk(index)
    }

    fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> dpl_store::Result<()> {
        let _span = self.tracer.span("store.decode");
        self.inner.read_chunk_into(index, set)
    }

    fn obs(&self) -> Option<&dpl_obs::Obs> {
        self.inner.obs()
    }
}
