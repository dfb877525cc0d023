//! End-to-end out-of-core integration: a capture campaign streamed to a
//! chunked archive, then attacked chunk-by-chunk without ever materializing
//! the full trace set — with scores bit-identical to the in-memory attacks.

use std::path::PathBuf;

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    present_sbox, simulate_traces_into, synthesize_sbox_with_key, GateEnergyTable, LeakageModel,
    LeakageOptions, Present80,
};
use dpl_power::{cpa_attack, dpa_attack, TraceSet, TraceSink};
use dpl_store::{
    cpa_attack_streaming, dpa_attack_streaming, ArchiveMeta, ArchiveReader, ArchiveWriter,
    CampaignKind, Compression, ModelTag, SampleEncoding,
};

fn temp_archive(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpl_it_{}_{}.dpltrc", name, std::process::id()))
}

fn selection(plaintext: u64, guess: u64) -> bool {
    present_sbox((plaintext ^ guess) as u8).count_ones() >= 2
}

fn model(plaintext: u64, guess: u64) -> f64 {
    present_sbox((plaintext ^ guess) as u8).count_ones() as f64
}

/// The out-of-core contract: DPA/CPA over a multi-chunk archive 8x larger
/// than the reader's in-memory chunk budget return bit-identical scores to
/// the in-memory attacks on the same traces.
#[test]
fn out_of_core_attacks_are_bit_identical_on_a_multi_chunk_archive() {
    const CHUNK: usize = 128;
    const TRACES: usize = 1024; // 8 chunks = 8x the chunk budget.
    let key = 0xAu8;
    let netlist = synthesize_sbox_with_key().expect("synthesis");
    let capacitance = CapacitanceModel::default();
    let table = GateEnergyTable::build(LeakageModel::HammingWeight, &capacitance).expect("table");
    let options = LeakageOptions {
        relative_noise: 0.02,
        seed: 99,
    };

    // Capture straight to disk...
    let path = temp_archive("bit_identical");
    let meta = ArchiveMeta::scalar(CHUNK, ModelTag::HammingWeight, options.seed);
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    simulate_traces_into(&netlist, &table, key, TRACES, &options, &mut writer).expect("capture");
    assert_eq!(writer.finish().expect("finish"), TRACES as u64);

    // ...and the same campaign into the in-memory oracle (identical RNG
    // stream by contract).
    let mut oracle = TraceSet::new();
    simulate_traces_into(&netlist, &table, key, TRACES, &options, &mut oracle).expect("oracle");

    let mut reader = ArchiveReader::open(&path)
        .expect("open")
        .with_chunk_budget(CHUNK)
        .expect("budget");
    assert_eq!(reader.trace_count(), TRACES as u64);
    assert_eq!(reader.chunk_count(), TRACES / CHUNK);
    assert!(reader.trace_count() >= 4 * reader.chunk_budget() as u64);

    let dpa_streamed = dpa_attack_streaming(&mut reader, 16, selection).expect("dpa");
    let dpa_memory = dpa_attack(&oracle, 16, selection).expect("dpa oracle");
    assert_eq!(dpa_streamed.scores, dpa_memory.scores);
    assert_eq!(dpa_streamed.best_guess, dpa_memory.best_guess);
    assert_eq!(dpa_streamed.best_guess, u64::from(key));

    let cpa_streamed = cpa_attack_streaming(&mut reader, 16, model).expect("cpa");
    let cpa_memory = cpa_attack(&oracle, 16, model).expect("cpa oracle");
    assert_eq!(cpa_streamed.scores, cpa_memory.scores);
    assert_eq!(cpa_streamed.best_guess, cpa_memory.best_guess);
    assert_eq!(cpa_streamed.best_guess, u64::from(key));

    let _ = std::fs::remove_file(&path);
}

/// Multi-round leakage scenario: 31-sample traces (one Hamming-weight
/// sample per PRESENT-80 round) over full 64-bit plaintexts — too many
/// distinct inputs for class aggregation, so the attacks' diverse-input
/// path is exercised out-of-core, and a first-round DPA still recovers the
/// first round-key nibble from the archived traces.
#[test]
fn multi_round_present80_archive_supports_out_of_core_dpa() {
    const TRACES: usize = 3000;
    const CHUNK: usize = 256;
    let cipher = Present80::new([0x42; 10]);
    let key_nibble = cipher.round_keys()[0] & 0xF;

    let path = temp_archive("present80");
    let meta = ArchiveMeta {
        samples_per_trace: dpl_crypto::PRESENT_ROUNDS,
        chunk_traces: CHUNK,
        model: ModelTag::Unspecified,
        seed: 7,
        campaign: CampaignKind::Attack,
        table_digest: 0,
        encoding: SampleEncoding::F64,
        compression: Compression::None,
    };
    let mut writer = ArchiveWriter::create(&path, meta).expect("create");
    let mut oracle = TraceSet::new();
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for _ in 0..TRACES {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        let plaintext = state;
        let (_, rounds) = cipher.encrypt_trace(plaintext);
        let samples: Vec<f64> = rounds
            .iter()
            .map(|&round_state| round_state.count_ones() as f64)
            .collect();
        writer.append(plaintext, &samples).expect("append");
        TraceSink::record(&mut oracle, plaintext, &samples).expect("oracle");
    }
    assert_eq!(writer.finish().expect("finish"), TRACES as u64);

    let first_round_selection = |plaintext: u64, guess: u64| {
        present_sbox(((plaintext ^ guess) & 0xF) as u8).count_ones() >= 2
    };

    let mut reader = ArchiveReader::open(&path).expect("open");
    assert_eq!(reader.samples_per_trace(), dpl_crypto::PRESENT_ROUNDS);
    assert_eq!(reader.read_all().expect("read_all"), oracle);

    let streamed = dpa_attack_streaming(&mut reader, 16, first_round_selection).expect("dpa");
    let in_memory = dpa_attack(&oracle, 16, first_round_selection).expect("dpa oracle");
    assert_eq!(streamed.scores, in_memory.scores);
    assert_eq!(streamed.best_guess, in_memory.best_guess);
    assert_eq!(
        streamed.best_guess, key_nibble,
        "first-round DPA should recover round-key nibble {key_nibble:#X}"
    );

    let _ = std::fs::remove_file(&path);
}
