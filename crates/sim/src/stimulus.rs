use crate::circuit::NodeId;

/// A piecewise-linear voltage source description: a list of `(time, value)`
/// breakpoints.  Between breakpoints the value is interpolated linearly;
/// before the first and after the last breakpoint it is held constant.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    points: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Creates a source from breakpoints; the points are sorted by time.
    pub fn new(mut points: Vec<(f64, f64)>) -> Self {
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        PiecewiseLinear { points }
    }

    /// A constant source.
    pub fn constant(value: f64) -> Self {
        PiecewiseLinear {
            points: vec![(0.0, value)],
        }
    }

    /// A single step from `before` to `after` at time `t_step`, with a
    /// linear transition of `rise_time` seconds.
    pub fn step(before: f64, after: f64, t_step: f64, rise_time: f64) -> Self {
        PiecewiseLinear::new(vec![(t_step, before), (t_step + rise_time, after)])
    }

    /// The value of the source at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        if t <= self.points[0].0 {
            return self.points[0].1;
        }
        if t >= self.points[self.points.len() - 1].0 {
            return self.points[self.points.len() - 1].1;
        }
        for pair in self.points.windows(2) {
            let (t0, v0) = pair[0];
            let (t1, v1) = pair[1];
            if t >= t0 && t <= t1 {
                if (t1 - t0).abs() < f64::EPSILON {
                    return v1;
                }
                let frac = (t - t0) / (t1 - t0);
                return v0 + frac * (v1 - v0);
            }
        }
        self.points[self.points.len() - 1].1
    }

    /// The breakpoints of the source.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// A cursor that evaluates the source at non-decreasing times in
    /// amortised constant time.
    pub(crate) fn cursor(&self) -> PwlCursor<'_> {
        PwlCursor {
            points: &self.points,
            window: 0,
        }
    }
}

/// Evaluates a [`PiecewiseLinear`] at a sequence of times, remembering the
/// segment of the previous time so that a growing `t` costs O(1) per call
/// instead of [`PiecewiseLinear::value_at`]'s scan from the first segment.
///
/// It returns exactly what `value_at` returns, bit for bit, as long as no
/// breakpoint time is NaN: it picks the same segment (the first one whose
/// end is at or after `t`) and runs the same arithmetic on it.  A time
/// earlier than the current segment restarts the search from the first
/// segment, so any order of times is correct and only a growing one fast.
#[derive(Debug, Clone)]
pub(crate) struct PwlCursor<'a> {
    points: &'a [(f64, f64)],
    /// Index of the segment `points[window]..points[window + 1]` that held
    /// the previous time; every earlier segment ends before it.
    window: usize,
}

impl PwlCursor<'_> {
    /// The value of the source at time `t`.
    pub(crate) fn value_at(&mut self, t: f64) -> f64 {
        let points = self.points;
        let Some(&(t_first, v_first)) = points.first() else {
            return 0.0;
        };
        if t <= t_first {
            return v_first;
        }
        let (t_last, v_last) = points[points.len() - 1];
        if t >= t_last {
            return v_last;
        }
        if t <= points[self.window].0 {
            self.window = 0;
        }
        // Terminates: the last segment ends at `t_last > t`.
        while t > points[self.window + 1].0 {
            self.window += 1;
        }
        let (t0, v0) = points[self.window];
        let (t1, v1) = points[self.window + 1];
        if (t1 - t0).abs() < f64::EPSILON {
            return v1;
        }
        let frac = (t - t0) / (t1 - t0);
        v0 + frac * (v1 - v0)
    }
}

/// A stimulus: a piecewise-linear source attached to a circuit node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    /// The driven node.
    pub node: NodeId,
    /// The voltage source.
    pub source: PiecewiseLinear,
}

impl Stimulus {
    /// Attaches `source` to `node`.
    pub fn new(node: NodeId, source: PiecewiseLinear) -> Self {
        Stimulus { node, source }
    }
}

/// Description of a two-phase precharge/evaluate clock.
///
/// The clock is low (precharge) for the first half of the period and high
/// (evaluation) for the second half, repeated `cycles` times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSpec {
    /// Clock period in seconds.
    pub period: f64,
    /// Rise/fall time of every edge, in seconds.
    pub transition: f64,
    /// Supply voltage (the clock swings from 0 to `vdd`).
    pub vdd: f64,
    /// Number of cycles to generate.
    pub cycles: usize,
}

impl ClockSpec {
    /// Builds the piecewise-linear waveform of the clock.  Cycles start in
    /// the evaluation-low (precharge) phase.
    pub fn to_source(self) -> PiecewiseLinear {
        let mut points = vec![(0.0, 0.0)];
        for cycle in 0..self.cycles {
            let t0 = cycle as f64 * self.period;
            let half = self.period / 2.0;
            // Rising edge at the middle of the cycle (start of evaluation).
            points.push((t0 + half, 0.0));
            points.push((t0 + half + self.transition, self.vdd));
            // Falling edge at the end of the cycle (back to precharge).
            points.push((t0 + self.period, self.vdd));
            points.push((t0 + self.period + self.transition, 0.0));
        }
        PiecewiseLinear::new(points)
    }

    /// The time at which the evaluation phase of `cycle` begins.
    pub fn evaluation_start(&self, cycle: usize) -> f64 {
        cycle as f64 * self.period + self.period / 2.0
    }

    /// The total duration covered by the clock.
    pub fn duration(&self) -> f64 {
        self.period * self.cycles as f64 + self.period / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_and_step_sources() {
        let c = PiecewiseLinear::constant(1.8);
        assert_eq!(c.value_at(0.0), 1.8);
        assert_eq!(c.value_at(1.0), 1.8);

        let s = PiecewiseLinear::step(0.0, 1.8, 1.0, 0.1);
        assert_eq!(s.value_at(0.5), 0.0);
        assert!((s.value_at(1.05) - 0.9).abs() < 1e-9);
        assert_eq!(s.value_at(2.0), 1.8);
    }

    #[test]
    fn interpolation_is_monotonic_between_points() {
        let s = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        assert!((s.value_at(0.5) - 0.5).abs() < 1e-12);
        assert!((s.value_at(1.5) - 0.75).abs() < 1e-12);
        assert_eq!(s.points().len(), 3);
    }

    #[test]
    fn empty_source_is_zero() {
        let s = PiecewiseLinear::new(vec![]);
        assert_eq!(s.value_at(5.0), 0.0);
    }

    /// Asserts that a cursor walked over `times` returns `value_at`'s bits.
    fn assert_cursor_matches(source: &PiecewiseLinear, times: &[f64]) {
        let mut cursor = source.cursor();
        for &t in times {
            let (got, want) = (cursor.value_at(t), source.value_at(t));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "t = {t:e}: cursor {got:e}, value_at {want:e} for {:?}",
                source.points()
            );
        }
    }

    #[test]
    fn cursor_matches_value_at_bit_for_bit() {
        let sources = [
            PiecewiseLinear::new(vec![]),
            PiecewiseLinear::constant(1.8),
            PiecewiseLinear::new(vec![(0.3, -0.7)]),
            PiecewiseLinear::step(0.0, 1.8, 1.0, 0.1),
            // A zero-width segment (a vertical edge) in the middle.
            PiecewiseLinear::new(vec![(0.0, 0.0), (0.5, 0.2), (0.5, 1.7), (1.3, 0.4)]),
            // Duplicate times: several breakpoints at one instant.
            PiecewiseLinear::new(vec![
                (0.2, 0.1),
                (0.4, 0.9),
                (0.4, 0.3),
                (0.4, 1.1),
                (0.4, 1.1),
                (0.9, 0.0),
            ]),
            // Segments far narrower than the time grid.
            PiecewiseLinear::new(vec![(0.1, 0.0), (0.1 + 1e-17, 1.0), (0.25, 0.5)]),
            ClockSpec {
                period: 0.4,
                transition: 0.01,
                vdd: 1.8,
                cycles: 3,
            }
            .to_source(),
        ];
        for source in &sources {
            // A regular grid that starts before the first point and ends
            // after the last, the grid of the transient solver.
            let grid: Vec<f64> = (0..=4000).map(|step| step as f64 * 4.1e-4 - 0.05).collect();
            assert_cursor_matches(source, &grid);
            // Exactly on every breakpoint, each visited twice.
            let mut on_points: Vec<f64> = vec![-1.0];
            for &(t, _) in source.points() {
                on_points.extend([t, t]);
            }
            on_points.push(10.0);
            assert_cursor_matches(source, &on_points);
            // Out of order: the cursor restarts and stays exact.
            assert_cursor_matches(source, &[1.2, 0.45, 0.5, 0.05, 0.4, 0.4, 0.2, 10.0, 0.0]);
        }
    }

    #[test]
    fn clock_phases() {
        let clk = ClockSpec {
            period: 2e-9,
            transition: 50e-12,
            vdd: 1.8,
            cycles: 2,
        };
        let w = clk.to_source();
        // Precharge (low) early in the cycle, evaluation (high) after the
        // rising edge in the middle of the cycle.
        assert_eq!(w.value_at(0.5e-9), 0.0);
        assert!((w.value_at(1.5e-9) - 1.8).abs() < 1e-9);
        assert!((clk.evaluation_start(0) - 1e-9).abs() < 1e-15);
        assert!((clk.evaluation_start(1) - 3e-9).abs() < 1e-15);
        assert!(clk.duration() > 4e-9);
        // Second cycle precharge.
        assert!(w.value_at(2.5e-9) < 0.2);
    }

    #[test]
    fn stimulus_binds_node_and_source() {
        use crate::circuit::{Circuit, NodeKind};
        let mut ckt = Circuit::new();
        let n = ckt.add_node("in", NodeKind::Input, 1e-15);
        let st = Stimulus::new(n, PiecewiseLinear::constant(0.0));
        assert_eq!(st.node, n);
        assert_eq!(st.source.value_at(0.0), 0.0);
    }
}
