//! Transient-simulation based characterisation of differential cells.
//!
//! [`simulate_event`] reproduces the paper's Fig. 3 setup: one precharge /
//! evaluate / precharge sequence of a single gate with a chosen input, with
//! the supply current recorded.  [`characterize_cycles`] chains many
//! evaluation cycles with different inputs and reports the charge drawn from
//! the supply in every cycle, which is the measurement behind the CVSL
//! power-variation comparison and the DPA traces.

use dpl_sim::{
    Circuit, NodeId as SimNodeId, PiecewiseLinear, Stimulus, TransientConfig, TransientResult,
    TransientSimulator,
};

use crate::error::CellError;
use crate::Result;

/// The externally visible pins of a differential cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPins {
    /// The clock input (low = precharge, high = evaluation).
    pub clk: SimNodeId,
    /// For every gate input, the true and the false rail.
    pub inputs: Vec<(SimNodeId, SimNodeId)>,
    /// The output that follows the gate function (stays high when `f = 1`).
    pub out: SimNodeId,
    /// The complementary output.
    pub out_b: SimNodeId,
}

/// Timing and electrical options for event simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventOptions {
    /// Clock period in seconds (half precharge, half evaluation).
    pub period: f64,
    /// Rise/fall time of the clock and input edges.
    pub transition: f64,
    /// Supply voltage.
    pub vdd: f64,
    /// How long the inputs stay complementary into the following precharge
    /// phase, so the internal nodes of the pull-down network are recharged
    /// through it.
    pub input_hold: f64,
    /// Number of warm-up cycles prepended (and discarded) before the
    /// measured cycles in [`characterize_cycles`].
    pub warmup_cycles: usize,
    /// Transient-solver configuration.
    pub sim: TransientConfig,
}

impl Default for EventOptions {
    fn default() -> Self {
        EventOptions {
            period: 4.0e-9,
            transition: 50.0e-12,
            vdd: 1.8,
            input_hold: 1.0e-9,
            warmup_cycles: 1,
            sim: TransientConfig::default(),
        }
    }
}

fn check_assignment(assignment: u64, inputs: usize) -> Result<()> {
    if inputs < 64 && assignment >= (1u64 << inputs) {
        return Err(CellError::AssignmentOutOfRange { assignment, inputs });
    }
    Ok(())
}

fn clock_source(opts: &EventOptions, cycles: usize) -> PiecewiseLinear {
    let mut points = vec![(0.0, 0.0)];
    for cycle in 0..cycles {
        let t0 = cycle as f64 * opts.period;
        let half = opts.period / 2.0;
        points.push((t0 + half, 0.0));
        points.push((t0 + half + opts.transition, opts.vdd));
        points.push((t0 + opts.period, opts.vdd));
        points.push((t0 + opts.period + opts.transition, 0.0));
    }
    PiecewiseLinear::new(points)
}

fn input_sources(pins: &CellPins, assignments: &[u64], opts: &EventOptions) -> Vec<Stimulus> {
    let mut stimuli = Vec::new();
    for (bit, &(true_rail, false_rail)) in pins.inputs.iter().enumerate() {
        let mut true_points = vec![(0.0, 0.0)];
        let mut false_points = vec![(0.0, 0.0)];
        for (cycle, &assignment) in assignments.iter().enumerate() {
            let t0 = cycle as f64 * opts.period;
            let eval = t0 + opts.period / 2.0;
            let release = t0 + opts.period + opts.input_hold;
            let value = (assignment >> bit) & 1 == 1;
            let (active, inactive) = if value {
                (&mut true_points, &mut false_points)
            } else {
                (&mut false_points, &mut true_points)
            };
            active.push((eval, 0.0));
            active.push((eval + opts.transition, opts.vdd));
            active.push((release, opts.vdd));
            active.push((release + opts.transition, 0.0));
            // The inactive rail stays low; add anchors so later cycles can
            // raise it again cleanly.
            inactive.push((eval, 0.0));
            inactive.push((release + opts.transition, 0.0));
        }
        stimuli.push(Stimulus::new(true_rail, PiecewiseLinear::new(true_points)));
        stimuli.push(Stimulus::new(
            false_rail,
            PiecewiseLinear::new(false_points),
        ));
    }
    stimuli
}

/// Simulates a single precharge / evaluate / precharge sequence of the cell
/// with the given complementary input `assignment` and returns the full
/// transient result (node voltages and supply current).
///
/// # Errors
///
/// Returns an error if the assignment references unknown inputs or the
/// simulation fails.
pub fn simulate_event(
    circuit: &Circuit,
    pins: &CellPins,
    assignment: u64,
    opts: &EventOptions,
) -> Result<TransientResult> {
    check_assignment(assignment, pins.inputs.len())?;
    let assignments = [assignment];
    let mut stimuli = input_sources(pins, &assignments, opts);
    stimuli.push(Stimulus::new(pins.clk, clock_source(opts, 1)));
    let sim = TransientSimulator::new(circuit.clone(), opts.sim)?;
    let duration = 1.5 * opts.period;
    Ok(sim.run(&stimuli, &[], duration)?)
}

/// The supply charge and energy drawn during one evaluation cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleEnergy {
    /// Zero-based index of the (measured) cycle.
    pub cycle: usize,
    /// The complementary input applied during the cycle.
    pub assignment: u64,
    /// Charge drawn from the supply during the cycle window, in coulombs.
    pub charge: f64,
    /// Energy drawn from the supply during the cycle window, in joules.
    pub energy: f64,
}

/// Per-cycle energy profile of a cell over an input sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleProfile {
    cycles: Vec<CycleEnergy>,
}

impl CycleProfile {
    /// The measured cycles.
    pub fn cycles(&self) -> &[CycleEnergy] {
        &self.cycles
    }

    /// The per-cycle energies.
    pub fn energies(&self) -> Vec<f64> {
        self.cycles.iter().map(|c| c.energy).collect()
    }

    /// Smallest per-cycle energy.
    pub fn min_energy(&self) -> f64 {
        self.cycles
            .iter()
            .map(|c| c.energy)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest per-cycle energy.
    pub fn max_energy(&self) -> f64 {
        self.cycles
            .iter()
            .map(|c| c.energy)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean per-cycle energy.
    pub fn mean_energy(&self) -> f64 {
        if self.cycles.is_empty() {
            return 0.0;
        }
        self.cycles.iter().map(|c| c.energy).sum::<f64>() / self.cycles.len() as f64
    }

    /// Normalised energy deviation `(max - min) / max`, the figure of merit
    /// used in the constant-power literature.
    pub fn normalized_energy_deviation(&self) -> f64 {
        let max = self.max_energy();
        if max <= 0.0 {
            return 0.0;
        }
        (max - self.min_energy()) / max
    }
}

/// Simulates the cell over a sequence of evaluation cycles, one input
/// assignment per cycle, and reports the supply charge drawn in every cycle
/// window (evaluation phase plus the following precharge phase).
///
/// `opts.warmup_cycles` extra cycles with the first assignment are prepended
/// and discarded so that the measured cycles start from a settled state.
/// Only the supply current is recorded
/// ([`TransientSimulator::run_supply_current`]); the node waveforms are
/// never materialised.
///
/// # Errors
///
/// Returns [`CellError::EmptySequence`] for an empty assignment list, or an
/// error if an assignment is out of range or the simulation fails.
pub fn characterize_cycles(
    circuit: &Circuit,
    pins: &CellPins,
    assignments: &[u64],
    opts: &EventOptions,
) -> Result<CycleProfile> {
    if assignments.is_empty() {
        return Err(CellError::EmptySequence);
    }
    for &a in assignments {
        check_assignment(a, pins.inputs.len())?;
    }
    let mut full: Vec<u64> = Vec::with_capacity(assignments.len() + opts.warmup_cycles);
    for _ in 0..opts.warmup_cycles {
        full.push(assignments[0]);
    }
    full.extend_from_slice(assignments);

    let mut stimuli = input_sources(pins, &full, opts);
    stimuli.push(Stimulus::new(pins.clk, clock_source(opts, full.len())));
    let sim = TransientSimulator::new(circuit.clone(), opts.sim)?;
    let duration = full.len() as f64 * opts.period + opts.period / 2.0;
    let current = sim.run_supply_current(&stimuli, &[], duration)?;

    let dt = current.dt();
    let samples = current.samples();
    let mut cycles = Vec::with_capacity(assignments.len());
    for (k, &assignment) in full.iter().enumerate().skip(opts.warmup_cycles) {
        let window_start = k as f64 * opts.period + opts.period / 2.0;
        let window_end = window_start + opts.period;
        let i0 = (window_start / dt).floor().max(0.0) as usize;
        let i1 = ((window_end / dt).ceil() as usize).min(samples.len());
        let charge: f64 = samples[i0..i1].iter().sum::<f64>() * dt;
        cycles.push(CycleEnergy {
            cycle: k - opts.warmup_cycles,
            assignment,
            charge,
            energy: charge * opts.vdd,
        });
    }
    Ok(CycleProfile { cycles })
}

/// The widest cell [`characterize_events`] will characterise exhaustively:
/// 2^10 = 1024 events is on the order of seconds of transient simulation;
/// anything wider is almost certainly a mistake, not a standard cell
/// (library cells have at most 4 inputs).
pub const MAX_CHARACTERIZED_INPUTS: usize = 10;

/// Transient-characterises the **per-input-event energies** of a cell: for
/// every complementary input assignment `0..2^inputs`, one isolated
/// warmup + measure run of [`characterize_cycles`] with that assignment
/// alone, reporting the supply energy of the measured cycle.
///
/// The result is indexed by assignment — the measurement-derived
/// counterpart of the analytic
/// [`DischargeProfile::energies`](crate::DischargeProfile::energies), and
/// the data behind characterisation-derived gate energy tables.  Isolating
/// each event behind its own warmup cycle (of the same assignment) makes
/// the numbers deterministic and history-free; sequence-dependent memory
/// effects remain visible through [`characterize_cycles`] directly.
///
/// # Errors
///
/// Returns [`CellError::TooManyInputs`] when the cell is too wide for one
/// transient simulation per assignment
/// ([`MAX_CHARACTERIZED_INPUTS`]), or an error if a simulation fails.
pub fn characterize_events(
    circuit: &Circuit,
    pins: &CellPins,
    opts: &EventOptions,
) -> Result<Vec<f64>> {
    let inputs = pins.inputs.len();
    if inputs > MAX_CHARACTERIZED_INPUTS {
        return Err(CellError::TooManyInputs {
            inputs,
            limit: MAX_CHARACTERIZED_INPUTS,
        });
    }
    let mut energies = Vec::with_capacity(1 << inputs);
    for assignment in 0..(1u64 << inputs) {
        let profile = characterize_cycles(circuit, pins, &[assignment], opts)?;
        energies.push(profile.cycles()[0].energy);
    }
    Ok(energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacitance::CapacitanceModel;
    use crate::sabl::SablCell;
    use dpl_core::Dpdn;
    use dpl_logic::parse_expr;

    fn sabl(text: &str, fully_connected: bool) -> SablCell {
        let (f, ns) = parse_expr(text).unwrap();
        let dpdn = if fully_connected {
            Dpdn::fully_connected(&f, &ns).unwrap()
        } else {
            Dpdn::genuine(&f, &ns).unwrap()
        };
        SablCell::new(&dpdn, &CapacitanceModel::default())
    }

    #[test]
    fn event_simulation_draws_supply_charge() {
        let cell = sabl("A.B", true);
        let opts = EventOptions::default();
        let result = simulate_event(cell.circuit(), cell.pins(), 0b11, &opts).unwrap();
        assert!(result.supply_charge() > 1e-15);
        assert!(result.supply_current().peak() > 0.0);
    }

    #[test]
    fn assignment_range_is_checked() {
        let cell = sabl("A.B", true);
        let opts = EventOptions::default();
        assert!(matches!(
            simulate_event(cell.circuit(), cell.pins(), 0b100, &opts),
            Err(CellError::AssignmentOutOfRange { .. })
        ));
        assert!(matches!(
            characterize_cycles(cell.circuit(), cell.pins(), &[], &opts),
            Err(CellError::EmptySequence)
        ));
    }

    #[test]
    fn over_wide_cells_are_rejected_before_any_simulation() {
        let cell = sabl("A.B", true);
        let mut pins = cell.pins().clone();
        let rail = pins.inputs[0];
        pins.inputs = vec![rail; MAX_CHARACTERIZED_INPUTS + 1];
        assert_eq!(
            characterize_events(cell.circuit(), &pins, &EventOptions::default()),
            Err(CellError::TooManyInputs {
                inputs: MAX_CHARACTERIZED_INPUTS + 1,
                limit: MAX_CHARACTERIZED_INPUTS,
            })
        );
    }

    #[test]
    fn per_event_characterization_separates_the_styles() {
        let fc = sabl("A.B", true);
        let genuine = sabl("A.B", false);
        let opts = EventOptions::default();
        let fc_events = characterize_events(fc.circuit(), fc.pins(), &opts).unwrap();
        let genuine_events = characterize_events(genuine.circuit(), genuine.pins(), &opts).unwrap();
        assert_eq!(fc_events.len(), 4);
        assert_eq!(genuine_events.len(), 4);
        let spread = |events: &[f64]| {
            let max = events.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = events.iter().copied().fold(f64::INFINITY, f64::min);
            (max - min) / max
        };
        assert!(fc_events.iter().all(|&e| e > 0.0));
        assert!(
            spread(&fc_events) < 0.05,
            "fc spread {}",
            spread(&fc_events)
        );
        assert!(spread(&genuine_events) > spread(&fc_events));
        // Deterministic: re-characterising yields the same energies.
        let again = characterize_events(fc.circuit(), fc.pins(), &opts).unwrap();
        assert_eq!(fc_events, again);
    }

    #[test]
    fn fully_connected_cell_has_lower_energy_variation_than_genuine() {
        let fc = sabl("A.B", true);
        let genuine = sabl("A.B", false);
        let opts = EventOptions::default();
        // Visit every input event twice in a mixed order so memory effects
        // across cycles show up.
        let sequence = [0b00u64, 0b11, 0b01, 0b00, 0b10, 0b11, 0b01, 0b10];
        let fc_profile = characterize_cycles(fc.circuit(), fc.pins(), &sequence, &opts).unwrap();
        let genuine_profile =
            characterize_cycles(genuine.circuit(), genuine.pins(), &sequence, &opts).unwrap();
        assert_eq!(fc_profile.cycles().len(), sequence.len());
        assert!(fc_profile.min_energy() > 0.0);
        assert!(
            fc_profile.normalized_energy_deviation()
                < genuine_profile.normalized_energy_deviation(),
            "fully connected NED {} should be below genuine NED {}",
            fc_profile.normalized_energy_deviation(),
            genuine_profile.normalized_energy_deviation()
        );
        // The fully connected gate is close to constant power.
        assert!(fc_profile.normalized_energy_deviation() < 0.05);
    }
}
