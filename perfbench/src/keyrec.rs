//! `keyrec_ooc_f64`: a Hamming-weight key-recovery campaign captured into
//! one plain-f64 archive larger than the last-level cache, then attacked
//! out of core by DPA and CPA.  Raw archive I/O and the attack folds do the
//! work; no codec runs.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    present_sbox, simulate_traces_into, synthesize_sbox_with_key, GateEnergyTable, GateNetlist,
    LeakageModel, LeakageOptions,
};
use dpl_power::TraceSink;
use dpl_store::{
    cpa_attack_streaming, dpa_attack_streaming, ArchiveMeta, ArchiveReader, ModelTag, StoreError,
};

use crate::io::{create_archive, CaptureSink, TimedFile, TimedSource};
use crate::trace::Tracer;
use crate::{Campaign, Checks, CAMPAIGN_KEY, CHUNK_TRACES};

/// Sizes of one campaign.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Traces captured and attacked per campaign.
    pub traces: usize,
    /// Traces of the untimed warm-up campaign run during set-up.
    pub warmup: usize,
}

/// 32 Mi one-sample traces: a 512 MiB archive, at least four times the
/// 105 MiB LLC of the reference host.
pub const FULL: Size = Size {
    traces: 32 << 20,
    warmup: 1 << 20,
};

pub struct Keyrec {
    netlist: GateNetlist,
    table: GateEnergyTable,
    options: LeakageOptions,
    path: PathBuf,
    size: Size,
}

fn selection(plaintext: u64, guess: u64) -> bool {
    present_sbox((plaintext ^ guess) as u8).count_ones() >= 2
}

fn hw_model(plaintext: u64, guess: u64) -> f64 {
    f64::from(present_sbox((plaintext ^ guess) as u8).count_ones())
}

impl Keyrec {
    /// Synthesises the S-box datapath, builds its energy table and runs a
    /// small untimed campaign through the same code.
    pub fn setup(
        seed: u64,
        size: Size,
        scratch: &Path,
        checks: &mut Checks,
    ) -> Result<Self, String> {
        let netlist = synthesize_sbox_with_key().map_err(|e| format!("synthesis: {e}"))?;
        let table =
            GateEnergyTable::build(LeakageModel::HammingWeight, &CapacitanceModel::default())
                .map_err(|e| format!("energy table: {e}"))?;
        let keyrec = Keyrec {
            netlist,
            table,
            options: LeakageOptions {
                relative_noise: 0.01,
                seed,
            },
            path: scratch.join("keyrec.dpltrc"),
            size,
        };
        keyrec.run(size.warmup, &Tracer::new(false), checks)?;
        Ok(keyrec)
    }

    pub fn campaign(&self, tracer: &Tracer, checks: &mut Checks) -> Result<Campaign, String> {
        self.run(self.size.traces, tracer, checks)
    }

    fn simulate(
        &self,
        traces: usize,
        sink: &mut impl TraceSink<Error = StoreError>,
    ) -> Result<(), String> {
        simulate_traces_into(
            &self.netlist,
            &self.table,
            CAMPAIGN_KEY,
            traces,
            &self.options,
            sink,
        )
        .map_err(|e| format!("capture: {e}"))
    }

    fn run(&self, traces: usize, tracer: &Tracer, checks: &mut Checks) -> Result<Campaign, String> {
        let meta = ArchiveMeta::scalar(CHUNK_TRACES, ModelTag::HammingWeight, self.options.seed);

        let capture_start = Instant::now();
        let mut writer =
            create_archive(&self.path, meta, tracer).map_err(|e| format!("create archive: {e}"))?;
        if tracer.enabled() {
            let mut sink = CaptureSink::new(&mut writer, tracer);
            let _span = tracer.span("crypto.simulate");
            self.simulate(traces, &mut sink)?;
        } else {
            self.simulate(traces, &mut writer)?;
        }
        let written = {
            let _span = tracer.span("store.finish");
            writer
                .finish()
                .map_err(|e| format!("finish archive: {e}"))?
        };
        drop(writer);
        let capture_s = capture_start.elapsed().as_secs_f64();
        checks.check(written == traces as u64, || {
            format!("archive holds {written} traces, {traces} were captured")
        });
        let archive_bytes = std::fs::metadata(&self.path)
            .map_err(|e| format!("archive size: {e}"))?
            .len();

        let open = || -> Result<_, String> {
            let file = TimedFile::open(&self.path, tracer).map_err(|e| format!("open: {e}"))?;
            let reader = {
                let _span = tracer.span("store.open");
                ArchiveReader::new(BufReader::new(file))
                    .map_err(|e| format!("open archive: {e}"))?
            };
            Ok(TimedSource::new(reader, tracer))
        };
        let mut assess_s = 0.0;
        let mut source = open()?;
        let start = Instant::now();
        let dpa = {
            let _span = tracer.span("power.dpa_fold");
            dpa_attack_streaming(&mut source, 16, selection).map_err(|e| format!("DPA: {e}"))?
        };
        assess_s += start.elapsed().as_secs_f64();
        let mut source = open()?;
        let start = Instant::now();
        let cpa = {
            let _span = tracer.span("power.cpa_fold");
            cpa_attack_streaming(&mut source, 16, hw_model).map_err(|e| format!("CPA: {e}"))?
        };
        assess_s += start.elapsed().as_secs_f64();
        std::fs::remove_file(&self.path).map_err(|e| format!("remove archive: {e}"))?;

        eprintln!(
            "  best guesses: DPA {:#X} (ratio {:.3}), CPA {:#X} (ratio {:.3})",
            dpa.best_guess,
            dpa.distinguishing_ratio(),
            cpa.best_guess,
            cpa.distinguishing_ratio()
        );
        let key = u64::from(CAMPAIGN_KEY);
        checks.check(dpa.best_guess == key, || {
            format!("DPA recovered {:#X}, expected {key:#X}", dpa.best_guess)
        });
        checks.check(cpa.best_guess == key, || {
            format!("CPA recovered {:#X}, expected {key:#X}", cpa.best_guess)
        });
        Ok(Campaign {
            capture: (traces as f64, capture_s),
            assess: (2.0 * traces as f64, assess_s),
            bytes_per_trace: archive_bytes as f64 / traces as f64,
        })
    }
}
