//! Golden bit-identity pin of the transient characterisation.
//!
//! The digests below are FNV-1a hashes over the `f64::to_bits` of the
//! simulator's outputs: per-event energies of a set of library cells, one
//! multi-cycle sequence (memory effects), and every node waveform plus the
//! supply current of one `simulate_event` per logic style.  They were
//! computed once and must never change: a rewrite of the transient solver
//! is only acceptable if it reproduces every number to the last bit.  If a
//! digest moves, the solver's floating-point operations changed order or
//! content; fix the solver, do not update the digest.

use dpl_cells::{
    characterize_cycles, characterize_events, simulate_event, CapacitanceModel, CellPins, CvslCell,
    EventOptions, SablCell,
};
use dpl_core::{Dpdn, GateKind};
use dpl_sim::{Circuit, TransientResult};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bit patterns of `values`.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

#[derive(Debug, Clone, Copy)]
enum Style {
    Genuine,
    FullyConnected,
    Enhanced,
}

impl Style {
    const ALL: [Style; 3] = [Style::Genuine, Style::FullyConnected, Style::Enhanced];

    fn dpdn(self, kind: GateKind) -> Dpdn {
        let (expr, ns) = kind.expression();
        match self {
            Style::Genuine => Dpdn::genuine(&expr, &ns),
            Style::FullyConnected => Dpdn::fully_connected(&expr, &ns),
            Style::Enhanced => Dpdn::fully_connected_enhanced(&expr, &ns),
        }
        .unwrap()
    }
}

fn sabl(kind: GateKind, style: Style) -> SablCell {
    SablCell::new(&style.dpdn(kind), &CapacitanceModel::default())
}

/// Compares computed digests with the golden ones and reports every
/// mismatch at once.
fn assert_digests(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let names: Vec<&str> = actual.iter().map(|(name, _)| name.as_str()).collect();
    let expected_names: Vec<&str> = expected.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, expected_names, "golden case list changed");
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: got {got:#018x}, golden {want:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "transient results are no longer bit-identical:\n{}",
        mismatches.join("\n")
    );
}

/// Per-event energies of every 2-input cell in every DPDN style, plus the
/// enhanced 3-input XOR (the largest cell of the library).
#[test]
fn per_event_energies_are_bit_identical() {
    let opts = EventOptions::default();
    let mut cells: Vec<(String, SablCell)> = Vec::new();
    for &kind in GateKind::all().iter().filter(|k| k.arity() == 2) {
        for style in Style::ALL {
            cells.push((format!("{kind} {style:?}"), sabl(kind, style)));
        }
    }
    let xor3 = GateKind::Xor3;
    cells.push((format!("{xor3} Enhanced"), sabl(xor3, Style::Enhanced)));

    let actual: Vec<(String, u64)> = cells
        .iter()
        .map(|(name, cell)| {
            let energies = characterize_events(cell.circuit(), cell.pins(), &opts).unwrap();
            (name.clone(), digest(energies))
        })
        .collect();
    assert_digests(
        &actual,
        &[
            ("AND2 Genuine", 0x9449_22c5_f043_edec),
            ("AND2 FullyConnected", 0x986b_5b87_929b_a6c9),
            ("AND2 Enhanced", 0x423b_c805_d925_d755),
            ("OR2 Genuine", 0x1554_fd25_aaea_9da8),
            ("OR2 FullyConnected", 0xab8e_2e70_8f7d_82f5),
            ("OR2 Enhanced", 0xe496_d4c1_b6bb_1081),
            ("XOR2 Genuine", 0xac7e_2fa9_5005_4a62),
            ("XOR2 FullyConnected", 0x29cf_4b1e_23cd_e451),
            ("XOR2 Enhanced", 0x3d4f_29f7_d3eb_6dd6),
            ("ANDNOT Genuine", 0x83d0_6690_761a_c9b0),
            ("ANDNOT FullyConnected", 0xfd59_8caa_1e21_1535),
            ("ANDNOT Enhanced", 0xb22d_5434_8df1_7bed),
            ("XOR3 Enhanced", 0xca11_5ceb_c1d9_e81e),
        ],
    );
}

/// One multi-cycle sequence over a genuine gate, whose energies depend on
/// the previous cycles: charges and energies of every measured cycle.
#[test]
fn multi_cycle_sequence_is_bit_identical() {
    let cell = sabl(GateKind::And2, Style::Genuine);
    let sequence = [0b00u64, 0b11, 0b01, 0b00, 0b10, 0b11, 0b01, 0b10];
    let profile = characterize_cycles(
        cell.circuit(),
        cell.pins(),
        &sequence,
        &EventOptions::default(),
    )
    .unwrap();
    let values = profile.cycles().iter().flat_map(|c| [c.charge, c.energy]);
    assert_digests(
        &[("AND2 Genuine sequence".to_string(), digest(values))],
        &[("AND2 Genuine sequence", 0xfc6c_d05c_8bd2_9320)],
    );
}

/// The time step, every node waveform and the supply current of one event.
fn event_digest(circuit: &Circuit, pins: &CellPins) -> u64 {
    let result: TransientResult =
        simulate_event(circuit, pins, 0b10, &EventOptions::default()).unwrap();
    let mut values = vec![result.dt()];
    for node in circuit.nodes() {
        values.extend_from_slice(result.voltage(node).samples());
    }
    values.extend_from_slice(result.supply_current().samples());
    digest(values)
}

/// Full waveforms of one `simulate_event` per logic style.
#[test]
fn event_waveforms_are_bit_identical() {
    let kind = GateKind::And2;
    let mut actual = Vec::new();
    for style in Style::ALL {
        let cell = sabl(kind, style);
        actual.push((
            format!("SABL {style:?}"),
            event_digest(cell.circuit(), cell.pins()),
        ));
    }
    let cvsl = CvslCell::new(&Style::Genuine.dpdn(kind), &CapacitanceModel::default());
    actual.push((
        "CVSL".to_string(),
        event_digest(cvsl.circuit(), cvsl.pins()),
    ));
    assert_digests(
        &actual,
        &[
            ("SABL Genuine", 0xc818_c1a8_1449_475d),
            ("SABL FullyConnected", 0xeec2_66b6_04c6_b835),
            ("SABL Enhanced", 0x73d0_d592_974c_2a9a),
            ("CVSL", 0x6682_34bd_0636_53c5),
        ],
    );
}
