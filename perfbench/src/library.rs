//! `library_to_mtd`: the paper's design flow.  Every library cell is
//! synthesised in the genuine, fully connected and enhanced styles, checked,
//! assembled into a SABL gate and transient-characterised event by event;
//! every verified circuit is proven, linted and certified; and one profiled
//! CPA measurements-to-disclosure sweep runs per logic style.  The
//! transient simulator does most of the work; no archive is written.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dpl_cells::{characterize_cycles, CapacitanceModel, EventOptions, SablCell};
use dpl_core::{Dpdn, GateKind};
use dpl_crypto::{
    simulate_traces_with_table, synthesize_sbox_with_key, EnergyCache, GateEnergyTable,
    GateNetlist, LeakageModel, LeakageOptions,
};
use dpl_eval::{mtd_campaign, MtdConfig, PrefixCpa};
use dpl_verify::{
    check_certificate, emit_certificate, lint, prove_equivalent, CertificateRequest, EnergyFacts,
    NetlistRecord, VerifiedCircuit,
};

use crate::trace::Tracer;
use crate::{Campaign, Checks, CAMPAIGN_KEY};

/// Sizes of one campaign.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Library cells synthesised and characterised (from the start of
    /// `GateKind::all()`).
    pub kinds: usize,
    /// Verified circuits proven, linted and certified (from the start of
    /// `VerifiedCircuit::all()`).
    pub circuits: usize,
    /// Trace counts at which each MTD sweep scores the attack.
    pub mtd_grid: &'static [usize],
}

/// Repetitions of each MTD sweep.  Eight make the ordering check robust:
/// Hamming weight discloses at 25 traces, while genuine SABL succeeds in
/// about one attack in five there, so seven successes out of eight happen
/// for about one seed in 20 000.
const MTD_REPETITIONS: usize = 8;

/// All 18 cells in three styles, all 20 verified circuits, and MTD sweeps
/// from 25 to 25 600 traces.
pub const FULL: Size = Size {
    kinds: GateKind::COUNT,
    circuits: usize::MAX,
    mtd_grid: &[25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600],
};

/// The untimed warm-up campaign of every set-up: one cell, one circuit and
/// the full MTD sweeps.
const WARMUP: Size = Size {
    kinds: 1,
    circuits: 1,
    ..FULL
};

/// The DPDN styles of the design flow.
const DPDN_STYLES: [LeakageModel; 3] = [
    LeakageModel::GenuineSabl,
    LeakageModel::FullyConnectedSabl,
    LeakageModel::EnhancedSabl,
];

/// The styles of the MTD sweeps, Hamming weight first.
const MTD_STYLES: [LeakageModel; 4] = [
    LeakageModel::HammingWeight,
    LeakageModel::GenuineSabl,
    LeakageModel::FullyConnectedSabl,
    LeakageModel::EnhancedSabl,
];

/// Worker threads of a campaign (the host's `nproc`).  Two workers draw on
/// both cores, so a campaign's wall clock averages over their speeds.
const WORKERS: usize = 2;

/// One unit of a campaign's work.
#[derive(Debug, Clone, Copy)]
enum Job {
    Characterize(GateKind, LeakageModel),
    Verify(VerifiedCircuit),
    Mtd(LeakageModel),
}

/// What one MTD sweep found and measured.
struct Sweep {
    mtd: Option<usize>,
    /// Traces the generator made, the bytes their sets held, and its time.
    generated: usize,
    generated_bytes: usize,
    generate_s: f64,
    /// Campaign traces fed to the engines, and the sweep's time without the
    /// generator.
    fed: usize,
    assess_s: f64,
}

pub struct Library {
    capacitance: CapacitanceModel,
    events: EventOptions,
    sbox: GateNetlist,
    seed: u64,
    size: Size,
}

impl Library {
    /// Synthesises the MTD target and runs a small untimed campaign through
    /// the same code.
    pub fn setup(seed: u64, size: Size, checks: &mut Checks) -> Result<Self, String> {
        let capacitance = CapacitanceModel::default();
        let events = EventOptions {
            vdd: capacitance.vdd,
            ..EventOptions::default()
        };
        let sbox = synthesize_sbox_with_key().map_err(|e| format!("synthesis: {e}"))?;
        let library = Library {
            capacitance,
            events,
            sbox,
            seed,
            size,
        };
        let warmup = Library {
            size: WARMUP,
            ..library
        };
        warmup.campaign(&Tracer::new(false), checks)?;
        Ok(Library { size, ..warmup })
    }

    /// Runs the campaign's jobs on [`WORKERS`] threads, each taking the next
    /// job when it is done, then checks the MTD verdicts.
    pub fn campaign(&self, tracer: &Tracer, checks: &mut Checks) -> Result<Campaign, String> {
        let mut jobs = Vec::new();
        for &kind in GateKind::all().iter().take(self.size.kinds) {
            jobs.extend(DPDN_STYLES.map(|style| Job::Characterize(kind, style)));
        }
        jobs.extend(
            VerifiedCircuit::all()
                .into_iter()
                .take(self.size.circuits)
                .map(Job::Verify),
        );
        jobs.extend(MTD_STYLES.map(Job::Mtd));

        let next = AtomicUsize::new(0);
        let parent = tracer.current();
        // A worker's checks, and its sweeps or the error that stopped it.
        let work = || -> (Checks, Result<Vec<(LeakageModel, Sweep)>, String>) {
            let _span = tracer.span_under("bench.worker", parent);
            let mut checks = Checks::default();
            let mut sweeps = Vec::new();
            while let Some(&job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                let done = match job {
                    Job::Characterize(kind, style) => {
                        self.characterize(kind, style, tracer, &mut checks)
                    }
                    Job::Verify(circuit) => self.verify(circuit, tracer, &mut checks),
                    Job::Mtd(style) => self.mtd(style, tracer).map(|s| sweeps.push((style, s))),
                };
                if let Err(e) = done {
                    // Leave the other workers no job to start.
                    next.store(jobs.len(), Ordering::Relaxed);
                    return (checks, Err(e));
                }
            }
            (checks, Ok(sweeps))
        };
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS).map(|_| scope.spawn(work)).collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut sweeps = Vec::new();
        let mut error = None;
        for (done, swept) in outcomes {
            checks.attempted += done.attempted;
            checks.failures.extend(done.failures);
            match swept {
                Ok(swept) => sweeps.extend(swept),
                Err(e) => error = error.or(Some(e)),
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        sweeps.sort_by_key(|(style, _)| MTD_STYLES.iter().position(|s| s == style));
        Self::check_mtd(&sweeps, checks)
    }

    /// Synthesises, checks, builds and characterises one cell in one style.
    fn characterize(
        &self,
        kind: GateKind,
        style: LeakageModel,
        tracer: &Tracer,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let constant_power = style != LeakageModel::GenuineSabl;
        let dpdn = {
            let mut span = tracer.span("core.synth");
            let (expr, ns) = kind.expression();
            let dpdn = match style {
                LeakageModel::FullyConnectedSabl => Dpdn::fully_connected(&expr, &ns),
                LeakageModel::EnhancedSabl => Dpdn::fully_connected_enhanced(&expr, &ns),
                _ => Dpdn::genuine(&expr, &ns),
            }
            .map_err(|e| format!("{kind} synthesis: {e}"))?;
            span.add(dpdn.device_count() as u64);
            dpdn
        };
        let fully_connected = {
            let mut span = tracer.span("core.verify");
            let report = dpdn.verify().map_err(|e| format!("{kind} check: {e}"))?;
            let fully_connected = report.is_fully_connected();
            if constant_power && fully_connected {
                span.add(1);
            }
            fully_connected
        };
        if constant_power {
            checks.check(fully_connected, || {
                format!("{kind} {} DPDN is not fully connected", style.short_name())
            });
        }
        let cell = {
            let _span = tracer.span("cells.build");
            SablCell::new(&dpdn, &self.capacitance)
        };
        let mut finite = true;
        for assignment in 0..(1u64 << cell.input_count()) {
            let _span = tracer.span("sim.characterize");
            let profile =
                characterize_cycles(cell.circuit(), cell.pins(), &[assignment], &self.events)
                    .map_err(|e| format!("{kind} event {assignment}: {e}"))?;
            finite &= profile.cycles().iter().all(|c| c.energy.is_finite());
        }
        checks.check(finite, || {
            format!(
                "{kind} {} has a non-finite event energy",
                style.short_name()
            )
        });
        Ok(())
    }

    /// Proves, lints and certifies one circuit under the enhanced style.
    fn verify(
        &self,
        circuit: VerifiedCircuit,
        tracer: &Tracer,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let name = circuit.name();
        let proof = {
            let mut span = tracer.span("verify.prove");
            let proof = prove_equivalent(&circuit);
            if let Ok(report) = &proof {
                span.add(report.bdd_nodes as u64);
            }
            proof
        };
        checks.check(proof.is_ok(), || format!("{name}: proof failed: {proof:?}"));

        let findings = {
            let _span = tracer.span("verify.lint");
            let netlist = circuit.netlist().map_err(|e| format!("{name}: {e}"))?;
            let record = NetlistRecord::from_netlist(&netlist);
            let table = GateEnergyTable::for_circuit(
                LeakageModel::EnhancedSabl,
                &self.capacitance,
                &netlist,
            )
            .map_err(|e| format!("{name}: energy table: {e}"))?;
            let facts =
                EnergyFacts::from_table(&table, &netlist, CertificateRequest::STRICT_TOLERANCE);
            lint(&record, Some((&facts, Some(table.digest()))))
        };
        checks.check(findings.is_empty(), || {
            format!("{name}: lint findings {findings:?}")
        });

        let replay = {
            let _span = tracer.span("verify.cert");
            emit_certificate(&CertificateRequest {
                circuit,
                model: LeakageModel::EnhancedSabl.into(),
                tolerance: CertificateRequest::STRICT_TOLERANCE,
            })
            .and_then(|certificate| check_certificate(&certificate.to_text()))
        };
        checks.check(replay.as_ref().is_ok_and(|r| r.circuit == name), || {
            format!("{name}: certificate replay failed: {replay:?}")
        });
        Ok(())
    }

    /// One profiled-CPA MTD sweep.  The generator's time is the capture;
    /// the rest of the sweep is the assessment.
    fn mtd(&self, style: LeakageModel, tracer: &Tracer) -> Result<Sweep, String> {
        let config = MtdConfig::new(self.size.mtd_grid.to_vec(), MTD_REPETITIONS, self.seed);
        let generated = Cell::new(0usize);
        let generated_bytes = Cell::new(0usize);
        let generate_s = Cell::new(0.0f64);
        let (table, cache) = {
            let _span = tracer.span("crypto.table_build");
            let table = GateEnergyTable::build(style, &self.capacitance)
                .map_err(|e| format!("energy table: {e}"))?;
            let cache = EnergyCache::new(&self.sbox, &table);
            (table, cache)
        };
        let generate = |seed: u64, n: usize| {
            let _span = tracer.span("crypto.simulate");
            let start = Instant::now();
            let options = LeakageOptions {
                relative_noise: 0.02,
                seed,
            };
            let set = simulate_traces_with_table(&self.sbox, &table, CAMPAIGN_KEY, n, &options);
            generate_s.set(generate_s.get() + start.elapsed().as_secs_f64());
            generated.set(generated.get() + set.len());
            let samples: usize = (0..set.samples_per_trace())
                .map(|column| size_of_val(set.sample_column(column)))
                .sum();
            generated_bytes.set(generated_bytes.get() + size_of_val(set.inputs()) + samples);
            set
        };
        let engine = || {
            let cache = cache.clone();
            PrefixCpa::new(16, move |plaintext, guess| {
                cache.energy(plaintext, guess as u8)
            })
        };
        let start = Instant::now();
        let curve = {
            let _span = tracer.span("eval.mtd");
            mtd_campaign(&config, u64::from(CAMPAIGN_KEY), generate, engine)
                .map_err(|e| format!("{} MTD: {e}", style.short_name()))?
        };
        let sweep_s = start.elapsed().as_secs_f64();
        Ok(Sweep {
            mtd: curve.mtd,
            generated: generated.get(),
            generated_bytes: generated_bytes.get(),
            generate_s: generate_s.get(),
            fed: MTD_REPETITIONS * self.size.mtd_grid[self.size.mtd_grid.len() - 1],
            assess_s: sweep_s - generate_s.get(),
        })
    }

    /// Checks the MTD order of the sweeps (in [`MTD_STYLES`] order) and sums
    /// them into the campaign's capture and assessment.
    fn check_mtd(
        sweeps: &[(LeakageModel, Sweep)],
        checks: &mut Checks,
    ) -> Result<Campaign, String> {
        let [hw, genuine, fc, enhanced] = match sweeps {
            [(_, hw), (_, genuine), (_, fc), (_, enhanced)] => {
                [hw.mtd, genuine.mtd, fc.mtd, enhanced.mtd]
            }
            _ => return Err(format!("{} of 4 MTD sweeps ran", sweeps.len())),
        };
        eprintln!("  MTD: hw {hw:?}, genuine {genuine:?}, fc {fc:?}, enhanced {enhanced:?}");
        checks.check(hw.is_some(), || {
            "the Hamming-weight model never disclosed".into()
        });
        checks.check(
            hw.unwrap_or(usize::MAX) < genuine.unwrap_or(usize::MAX),
            || format!("MTD order broken: hw {hw:?}, genuine {genuine:?}"),
        );
        checks.check(fc.is_none(), || {
            format!("fully connected disclosed at {fc:?}")
        });
        checks.check(enhanced.is_none(), || {
            format!("enhanced disclosed at {enhanced:?}")
        });

        let sum = |f: fn(&Sweep) -> f64| sweeps.iter().map(|(_, s)| f(s)).sum::<f64>();
        let traces = sum(|s| s.generated as f64);
        Ok(Campaign {
            capture: (traces, sum(|s| s.generate_s)),
            assess: (sum(|s| s.fed as f64), sum(|s| s.assess_s)),
            // The generated trace sets are held in memory, not archived.
            bytes_per_trace: sum(|s| s.generated_bytes as f64) / traces,
        })
    }
}
