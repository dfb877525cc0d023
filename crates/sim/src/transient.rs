//! The forward-Euler switch-RC transient solver.
//!
//! A run has one stepping loop.  [`TransientSimulator::run`] first checks
//! its inputs and compiles the circuit into flat arrays: per device the
//! node indices of gate and channel, the on-conductance
//! `conductance_per_width * width`, the polarity and which terminal (if
//! any) is the supply; the conduction thresholds of both polarities; the
//! nodes that follow a stimulus, each with a forward cursor over its
//! piecewise-linear source (time only grows); and the free internal nodes
//! with their capacitances.  The rails are pinned once, before the first
//! step.  The kernel then steps these arrays and hands every sample to a
//! recorder:
//!
//! * [`TransientSimulator::run`] records every node voltage and the supply
//!   current ([`TransientResult`]): the event waveforms of Fig. 3 and the
//!   output checks of the cells;
//! * [`TransientSimulator::run_supply_current`] records the supply current
//!   alone, which is all the energy characterisation reads.
//!
//! Both recorders drive the same kernel, so their supply currents agree bit
//! for bit.  The kernel's floating-point operations and their order are
//! part of its contract: characterised energies must stay bit-identical
//! across any rewrite of it.  The golden digests in
//! `crates/cells/tests/golden_energies.rs` pin per-event energies, a
//! multi-cycle sequence and full event waveforms.

use crate::circuit::{Circuit, MosKind, NodeId, NodeKind};
use crate::error::SimError;
use crate::stimulus::{PwlCursor, Stimulus};
use crate::waveform::Waveform;
use crate::Result;

/// Parameters of a transient simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Integration time step in seconds.  `None` selects a step
    /// automatically from the smallest RC time constant of the circuit.
    pub dt: Option<f64>,
    /// On-conductance per unit of transistor width, in siemens.
    pub conductance_per_width: f64,
    /// Gate threshold as a fraction of the supply voltage, strictly between
    /// 0 and 1.
    pub threshold_fraction: f64,
    /// Maximum number of integration steps before the run is rejected.
    pub max_steps: usize,
}

impl Default for TransientConfig {
    fn default() -> Self {
        TransientConfig {
            vdd: 1.8,
            dt: None,
            conductance_per_width: 5.0e-5,
            threshold_fraction: 0.5,
            max_steps: 4_000_000,
        }
    }
}

/// The result of a transient run: one waveform per node plus the supply
/// current.
#[derive(Debug, Clone)]
pub struct TransientResult {
    dt: f64,
    voltages: Vec<Waveform>,
    supply_current: Waveform,
}

impl TransientResult {
    /// The integration step used.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The voltage waveform of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> &Waveform {
        &self.voltages[node.index()]
    }

    /// The current drawn from the supply rail over time, in amperes.
    pub fn supply_current(&self) -> &Waveform {
        &self.supply_current
    }

    /// Total charge delivered by the supply over the run, in coulombs.
    pub fn supply_charge(&self) -> f64 {
        self.supply_current.integral()
    }

    /// Total energy delivered by the supply over the run, in joules
    /// (`Q · VDD`).
    pub fn supply_energy(&self, vdd: f64) -> f64 {
        self.supply_charge() * vdd
    }
}

/// Explicit (forward-Euler) switch-RC transient solver.
///
/// Transistors are width-scaled conductances that are switched on and off by
/// their gate voltage; every node is a linear capacitor.  Supply and ground
/// nodes are voltage sources; input nodes follow their attached stimulus.
/// This captures the charge bookkeeping of dynamic differential gates — which
/// node capacitances are discharged and how much charge the supply delivers —
/// which is what the paper's Fig. 3/4 measure.
#[derive(Debug, Clone)]
pub struct TransientSimulator {
    circuit: Circuit,
    config: TransientConfig,
}

impl TransientSimulator {
    /// Creates a simulator for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit or the configuration is invalid: a
    /// `vdd`, `conductance_per_width` or `dt` that is not positive, or a
    /// `threshold_fraction` outside `(0, 1)` (NaN included).
    pub fn new(circuit: Circuit, config: TransientConfig) -> Result<Self> {
        circuit.validate()?;
        if config.vdd.is_nan() || config.vdd <= 0.0 {
            return Err(SimError::InvalidParameter {
                message: "vdd must be positive".into(),
            });
        }
        if config.conductance_per_width.is_nan() || config.conductance_per_width <= 0.0 {
            return Err(SimError::InvalidParameter {
                message: "conductance_per_width must be positive".into(),
            });
        }
        if let Some(dt) = config.dt {
            if dt.is_nan() || dt <= 0.0 {
                return Err(SimError::InvalidParameter {
                    message: "dt must be positive".into(),
                });
            }
        }
        let fraction = config.threshold_fraction;
        if fraction.is_nan() || fraction <= 0.0 || fraction >= 1.0 {
            return Err(SimError::InvalidParameter {
                message: format!("threshold_fraction must lie in (0, 1), got {fraction}"),
            });
        }
        Ok(TransientSimulator { circuit, config })
    }

    /// The simulated circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Chooses an integration step: a tenth of the smallest RC time constant
    /// seen by any internal node.
    fn auto_dt(&self) -> f64 {
        let g_unit = self.config.conductance_per_width;
        let mut min_tau = f64::INFINITY;
        for node in self.circuit.nodes() {
            if self.circuit.node_kind(node) != NodeKind::Internal {
                continue;
            }
            let c = self.circuit.capacitance(node);
            let g_total: f64 = self
                .circuit
                .transistors()
                .iter()
                .filter(|t| t.a == node || t.b == node)
                .map(|t| t.width * g_unit)
                .sum();
            if g_total > 0.0 {
                min_tau = min_tau.min(c / g_total);
            }
        }
        if min_tau.is_finite() {
            min_tau / 10.0
        } else {
            1.0e-12
        }
    }

    /// Runs the simulation for `duration` seconds with the given stimuli and
    /// records every node voltage and the supply current.
    ///
    /// Internal and input nodes start at 0 V unless listed in
    /// `initial_high`, which sets them to the supply voltage (useful to
    /// model a precharged state).  A supply or ground node listed there
    /// stays at its rail voltage from the first sample on.  When several
    /// stimuli drive one node, the last one in `stimuli` wins.  A duration
    /// of zero records the initial state alone.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownNode`] if a stimulus or an `initial_high` entry
    ///   names a node outside the circuit,
    /// * [`SimError::UndrivableNode`] if a stimulus is attached to a supply
    ///   or ground node,
    /// * [`SimError::InvalidParameter`] if `duration` is NaN or negative,
    ///   or a stimulus has a NaN breakpoint time,
    /// * [`SimError::TooManySteps`] if `duration / dt` exceeds the configured
    ///   maximum.
    pub fn run(
        &self,
        stimuli: &[Stimulus],
        initial_high: &[NodeId],
        duration: f64,
    ) -> Result<TransientResult> {
        let kernel = self.compile(stimuli, initial_high, duration)?;
        let (dt, samples) = (kernel.dt, kernel.steps + 1);
        let mut voltages: Vec<Vec<f64>> = (0..self.circuit.node_count())
            .map(|_| Vec::with_capacity(samples))
            .collect();
        let mut supply = Vec::with_capacity(samples);
        kernel.run(|voltage, supply_current| {
            for (trace, &v) in voltages.iter_mut().zip(voltage) {
                trace.push(v);
            }
            supply.push(supply_current);
        });
        Ok(TransientResult {
            dt,
            voltages: voltages
                .into_iter()
                .map(|samples| Waveform::from_samples(dt, samples))
                .collect(),
            supply_current: Waveform::from_samples(dt, supply),
        })
    }

    /// Runs the same simulation as [`TransientSimulator::run`] but records
    /// only the current drawn from the supply.  The samples are bit for bit
    /// those of `run(..).supply_current()`; leaving out the node waveforms
    /// saves their memory and time when only the supply charge is needed.
    ///
    /// # Errors
    ///
    /// The same as [`TransientSimulator::run`].
    pub fn run_supply_current(
        &self,
        stimuli: &[Stimulus],
        initial_high: &[NodeId],
        duration: f64,
    ) -> Result<Waveform> {
        let kernel = self.compile(stimuli, initial_high, duration)?;
        let dt = kernel.dt;
        let mut supply = Vec::with_capacity(kernel.steps + 1);
        kernel.run(|_, supply_current| supply.push(supply_current));
        Ok(Waveform::from_samples(dt, supply))
    }

    /// Checks the inputs of a run and compiles the circuit and the stimuli
    /// into the flat arrays the stepping kernel reads.
    fn compile<'s>(
        &self,
        stimuli: &'s [Stimulus],
        initial_high: &[NodeId],
        duration: f64,
    ) -> Result<Kernel<'s>> {
        let circuit = &self.circuit;
        let n = circuit.node_count();
        let vdd = self.config.vdd;
        let in_range = |node: NodeId| {
            if node.index() < n {
                Ok(())
            } else {
                Err(SimError::UnknownNode {
                    index: node.index(),
                })
            }
        };
        let mut source_of = vec![None; n];
        for s in stimuli {
            in_range(s.node)?;
            match circuit.node_kind(s.node) {
                NodeKind::Supply | NodeKind::Ground => {
                    return Err(SimError::UndrivableNode {
                        name: circuit.node_name(s.node).to_string(),
                    })
                }
                NodeKind::Input | NodeKind::Internal => {}
            }
            if s.source.points().iter().any(|&(t, _)| t.is_nan()) {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "stimulus of node `{}` has a NaN breakpoint time",
                        circuit.node_name(s.node)
                    ),
                });
            }
            source_of[s.node.index()] = Some(&s.source);
        }
        for &node in initial_high {
            in_range(node)?;
        }
        if duration.is_nan() || duration < 0.0 {
            return Err(SimError::InvalidParameter {
                message: format!("duration must be zero or positive, got {duration}"),
            });
        }

        let dt = self.config.dt.unwrap_or_else(|| self.auto_dt());
        let steps = (duration / dt).ceil() as usize;
        if steps > self.config.max_steps {
            return Err(SimError::TooManySteps {
                steps,
                maximum: self.config.max_steps,
            });
        }

        // Initial conditions; the rails are pinned here, once.
        let mut voltage = vec![0.0f64; n];
        for &node in initial_high {
            voltage[node.index()] = vdd;
        }
        let mut driven = Vec::new();
        let mut free = Vec::new();
        for node in circuit.nodes() {
            let i = node.index();
            match (circuit.node_kind(node), source_of[i]) {
                (NodeKind::Supply, _) => voltage[i] = vdd,
                (NodeKind::Ground, _) => voltage[i] = 0.0,
                (_, Some(source)) => driven.push((i, source.cursor())),
                (NodeKind::Internal, None) => free.push((i, circuit.capacitance(node))),
                (NodeKind::Input, None) => {}
            }
        }

        let g_unit = self.config.conductance_per_width;
        let threshold = vdd * self.config.threshold_fraction;
        let devices = circuit
            .transistors()
            .iter()
            .map(|tr| {
                let is_supply = |node: NodeId| circuit.node_kind(node) == NodeKind::Supply;
                Device {
                    gate: tr.gate.index(),
                    a: tr.a.index(),
                    b: tr.b.index(),
                    g: g_unit * tr.width,
                    pmos: tr.kind == MosKind::Pmos,
                    supply: match (is_supply(tr.a), is_supply(tr.b)) {
                        (true, false) => SupplyTerminal::A,
                        (false, true) => SupplyTerminal::B,
                        _ => SupplyTerminal::Neither,
                    },
                }
            })
            .collect();

        Ok(Kernel {
            dt,
            steps,
            v_min: -0.5 * vdd,
            v_max: 1.5 * vdd,
            nmos_on_above: threshold,
            pmos_on_below: vdd - threshold,
            voltage,
            devices,
            driven,
            free,
        })
    }
}

/// Which channel terminal of a device, if exactly one, is the supply rail.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SupplyTerminal {
    Neither,
    A,
    B,
}

/// A transistor as the kernel reads it: node indices, its on-conductance
/// and where it meets the supply.
#[derive(Debug, Clone, Copy)]
struct Device {
    gate: usize,
    a: usize,
    b: usize,
    /// On-conductance, `conductance_per_width * width`.
    g: f64,
    pmos: bool,
    supply: SupplyTerminal,
}

/// One run compiled into flat arrays: the only stepping loop of the solver.
#[derive(Debug)]
struct Kernel<'s> {
    dt: f64,
    /// Number of steps; the run records `steps + 1` samples.
    steps: usize,
    /// Free nodes are clamped to `[v_min, v_max]`, half a supply beyond the
    /// rails.
    v_min: f64,
    v_max: f64,
    /// An NMOS device conducts when its gate is above this voltage.
    nmos_on_above: f64,
    /// A PMOS device conducts when its gate is below this voltage.
    pmos_on_below: f64,
    /// Node voltages, rails already pinned.
    voltage: Vec<f64>,
    devices: Vec<Device>,
    /// Nodes that follow a stimulus, in node order.
    driven: Vec<(usize, PwlCursor<'s>)>,
    /// Undriven internal nodes and their capacitances, in node order.
    free: Vec<(usize, f64)>,
}

impl Kernel<'_> {
    /// Steps the circuit from `t = 0` through `steps * dt`, handing the
    /// node voltages and the supply current of every sample to `record`.
    fn run(self, mut record: impl FnMut(&[f64], f64)) {
        let Kernel {
            dt,
            steps,
            v_min,
            v_max,
            nmos_on_above,
            pmos_on_below,
            mut voltage,
            devices,
            mut driven,
            free,
        } = self;
        let mut current_in = vec![0.0f64; voltage.len()];
        for step in 0..=steps {
            let t = step as f64 * dt;
            for (node, source) in &mut driven {
                voltage[*node] = source.value_at(t);
            }

            // Device currents.
            current_in.fill(0.0);
            let mut supply_current = 0.0;
            for d in &devices {
                let vg = voltage[d.gate];
                let conducts = if d.pmos {
                    vg < pmos_on_below
                } else {
                    vg > nmos_on_above
                };
                if !conducts {
                    continue;
                }
                let i_ab = d.g * (voltage[d.a] - voltage[d.b]); // current flowing a -> b
                current_in[d.a] -= i_ab;
                current_in[d.b] += i_ab;
                match d.supply {
                    SupplyTerminal::A => supply_current += i_ab,
                    SupplyTerminal::B => supply_current -= i_ab,
                    SupplyTerminal::Neither => {}
                }
            }

            record(&voltage, supply_current);

            // Integrate the free nodes.
            for &(node, c) in &free {
                let v = voltage[node] + current_in[node] * dt / c;
                voltage[node] = v.clamp(v_min, v_max);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::MosKind;
    use crate::stimulus::PiecewiseLinear;

    fn inverter() -> (Circuit, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd", NodeKind::Supply, 0.0);
        let gnd = ckt.add_node("gnd", NodeKind::Ground, 0.0);
        let inp = ckt.add_node("in", NodeKind::Input, 1e-15);
        let out = ckt.add_node("out", NodeKind::Internal, 20e-15);
        ckt.add_transistor(MosKind::Pmos, inp, vdd, out, 2.0);
        ckt.add_transistor(MosKind::Nmos, inp, out, gnd, 1.0);
        (ckt, inp, out)
    }

    #[test]
    fn inverter_inverts() {
        let (ckt, inp, out) = inverter();
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        // Input low for 2 ns then high for 2 ns.
        let stim = Stimulus::new(inp, PiecewiseLinear::step(0.0, 1.8, 2e-9, 50e-12));
        let result = sim.run(&[stim], &[], 4e-9).unwrap();
        let out_wave = result.voltage(out);
        // After the first nanosecond the output has charged towards VDD.
        assert!(out_wave.at(1.9e-9) > 1.5);
        // After the input rises the output discharges to ground.
        assert!(out_wave.last() < 0.2);
    }

    #[test]
    fn supply_charge_matches_capacitor_charging() {
        let (ckt, inp, out) = inverter();
        let c_out = ckt.capacitance(out);
        let vdd = 1.8;
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        // Keep the input low: the PMOS charges `out` from 0 to VDD.
        let stim = Stimulus::new(inp, PiecewiseLinear::constant(0.0));
        let result = sim.run(&[stim], &[], 5e-9).unwrap();
        let q = result.supply_charge();
        let expected = c_out * vdd;
        let relative_error = (q - expected).abs() / expected;
        assert!(
            relative_error < 0.05,
            "supply charge {q:.3e} differs from C*V {expected:.3e}"
        );
        assert!(result.supply_energy(vdd) > 0.0);
        assert!(result.dt() > 0.0);
    }

    #[test]
    fn initial_high_sets_precharged_state() {
        let (ckt, inp, out) = inverter();
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        // Input high: the NMOS discharges the precharged output; no supply
        // charge should flow (the PMOS is off).
        let stim = Stimulus::new(inp, PiecewiseLinear::constant(1.8));
        let result = sim.run(&[stim], &[out], 5e-9).unwrap();
        assert!(result.voltage(out).at(0.0) > 1.7);
        assert!(result.voltage(out).last() < 0.1);
        assert!(result.supply_charge().abs() < 1e-17);
    }

    #[test]
    fn rejects_bad_configs_and_stimuli() {
        let (ckt, _, _) = inverter();
        let bad = TransientConfig {
            vdd: -1.0,
            ..TransientConfig::default()
        };
        assert!(TransientSimulator::new(ckt.clone(), bad).is_err());

        let bad_dt = TransientConfig {
            dt: Some(0.0),
            ..TransientConfig::default()
        };
        assert!(TransientSimulator::new(ckt.clone(), bad_dt).is_err());

        let sim = TransientSimulator::new(ckt.clone(), TransientConfig::default()).unwrap();
        let vdd_node = ckt.find_node("vdd").unwrap();
        let stim = Stimulus::new(vdd_node, PiecewiseLinear::constant(0.0));
        assert!(matches!(
            sim.run(&[stim], &[], 1e-9),
            Err(SimError::UndrivableNode { .. })
        ));
    }

    #[test]
    fn duration_must_be_a_non_negative_number() {
        let (ckt, inp, _) = inverter();
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        let stim = [Stimulus::new(inp, PiecewiseLinear::constant(0.0))];
        for duration in [f64::NAN, -1e-9, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    sim.run(&stim, &[], duration),
                    Err(SimError::InvalidParameter { .. })
                ),
                "duration {duration}"
            );
            assert!(matches!(
                sim.run_supply_current(&stim, &[], duration),
                Err(SimError::InvalidParameter { .. })
            ));
        }
        // A zero duration records the initial state alone.
        let result = sim.run(&stim, &[], 0.0).unwrap();
        assert_eq!(result.supply_current().len(), 1);
    }

    #[test]
    fn threshold_fraction_must_lie_strictly_between_zero_and_one() {
        let (ckt, _, _) = inverter();
        for fraction in [f64::NAN, 0.0, 1.0, -0.5, 1.5, f64::INFINITY] {
            let config = TransientConfig {
                threshold_fraction: fraction,
                ..TransientConfig::default()
            };
            assert!(
                matches!(
                    TransientSimulator::new(ckt.clone(), config),
                    Err(SimError::InvalidParameter { .. })
                ),
                "threshold_fraction {fraction}"
            );
        }
        let config = TransientConfig {
            threshold_fraction: 0.3,
            ..TransientConfig::default()
        };
        assert!(TransientSimulator::new(ckt, config).is_ok());
    }

    #[test]
    fn unknown_nodes_and_nan_breakpoints_are_rejected() {
        let (ckt, inp, _) = inverter();
        let mut bigger = ckt.clone();
        let outside = bigger.add_node("extra", NodeKind::Input, 1e-15);
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        let stim = Stimulus::new(outside, PiecewiseLinear::constant(0.0));
        assert_eq!(
            sim.run(&[stim], &[], 1e-9).unwrap_err(),
            SimError::UnknownNode { index: 4 }
        );
        let stim = Stimulus::new(inp, PiecewiseLinear::constant(0.0));
        assert_eq!(
            sim.run(&[stim], &[outside], 1e-9).unwrap_err(),
            SimError::UnknownNode { index: 4 }
        );
        let nan_time = Stimulus::new(inp, PiecewiseLinear::new(vec![(f64::NAN, 1.8)]));
        assert!(matches!(
            sim.run(&[nan_time], &[], 1e-9),
            Err(SimError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rails_listed_as_initially_high_stay_at_their_rail_voltage() {
        let (ckt, inp, out) = inverter();
        let vdd_node = ckt.find_node("vdd").unwrap();
        let gnd_node = ckt.find_node("gnd").unwrap();
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        let stim = Stimulus::new(inp, PiecewiseLinear::constant(1.8));
        let result = sim.run(&[stim], &[vdd_node, gnd_node, out], 1e-9).unwrap();
        assert!(result.voltage(gnd_node).samples().iter().all(|&v| v == 0.0));
        assert!(result.voltage(vdd_node).samples().iter().all(|&v| v == 1.8));
        assert_eq!(result.voltage(out).samples()[0], 1.8);
    }

    #[test]
    fn the_last_stimulus_on_a_node_wins() {
        let (ckt, inp, out) = inverter();
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        let low = Stimulus::new(inp, PiecewiseLinear::constant(0.0));
        let high = Stimulus::new(inp, PiecewiseLinear::constant(1.8));
        let result = sim.run(&[low.clone(), high.clone()], &[out], 2e-9).unwrap();
        assert!(result.voltage(inp).samples().iter().all(|&v| v == 1.8));
        // The high input turns the NMOS on: the precharged output falls.
        assert!(result.voltage(out).last() < 0.1);
        let reversed = sim.run(&[high, low], &[], 2e-9).unwrap();
        assert!(reversed.voltage(inp).samples().iter().all(|&v| v == 0.0));
        assert!(reversed.voltage(out).last() > 1.7);
    }

    #[test]
    fn supply_current_recorder_matches_the_full_run_bit_for_bit() {
        let (ckt, inp, out) = inverter();
        let sim = TransientSimulator::new(ckt, TransientConfig::default()).unwrap();
        let stim = [Stimulus::new(
            inp,
            PiecewiseLinear::new(vec![(0.0, 1.8), (1e-9, 1.8), (1.05e-9, 0.0), (2e-9, 0.9)]),
        )];
        let full = sim.run(&stim, &[out], 3e-9).unwrap();
        let supply = sim.run_supply_current(&stim, &[out], 3e-9).unwrap();
        assert_eq!(supply.dt().to_bits(), full.dt().to_bits());
        let bits = |w: &Waveform| w.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&supply), bits(full.supply_current()));
        assert!(full.supply_charge() > 0.0);
    }

    #[test]
    fn too_many_steps_is_rejected() {
        let (ckt, inp, _) = inverter();
        let config = TransientConfig {
            dt: Some(1e-15),
            max_steps: 1000,
            ..TransientConfig::default()
        };
        let sim = TransientSimulator::new(ckt, config).unwrap();
        let stim = Stimulus::new(inp, PiecewiseLinear::constant(0.0));
        assert!(matches!(
            sim.run(&[stim], &[], 1e-6),
            Err(SimError::TooManySteps { .. })
        ));
    }
}
