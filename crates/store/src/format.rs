//! The on-disk archive format: header layout, model tags and checksums.
//!
//! An archive is one fixed-size little-endian header followed by a sequence
//! of trace chunks.  Three header versions exist:
//!
//! ```text
//! version 1 (56 bytes)                    version 2 (64 bytes)
//! offset  size  field                     offset  size  field
//!      0     8  magic  "DPLTRCv1"              0     8  magic  "DPLTRCv2"
//!      8     4  format version (1)             8     4  format version (2)
//!     12     4  samples per trace             12     4  samples per trace
//!     16     4  traces per full chunk         16     4  traces per full chunk
//!     20     4  leakage-model tag             20     4  leakage-model tag
//!     24     8  RNG seed of the campaign      24     8  RNG seed of the campaign
//!     32     8  total trace count             32     8  total trace count
//!     40     4  distinct input count          40     4  distinct input count
//!     44     4  campaign kind                 44     4  campaign kind
//!     48     8  FNV-1a 64 of bytes 0..48      48     8  energy-table digest
//!                                             56     8  FNV-1a 64 of bytes 0..56
//!
//! version 3 (80 bytes)
//! offset  size  field
//!      0    56  as version 2 (magic "DPLTRCv3", format version 3)
//!     56     4  sample-encoding tag   (crate::SampleEncoding)
//!     60     4  chunk-compression tag (crate::Compression)
//!     64     8  quantization scale (f64 bits; 0 unless the i16 encoding)
//!     72     8  FNV-1a 64 of bytes 0..72
//! ```
//!
//! Version 2 adds the **energy-table digest**
//! (`dpl_crypto::GateEnergyTable::digest`, `0` = unrecorded) and widens the
//! model-tag code space to the characterisation-derived models.  Version 3
//! adds the **compact sample encodings** and the built-in chunk compressor
//! (see [`crate::encode`]), recording the encoding, compression and
//! quantization contract so every analysis tool can honour them.  The
//! writer picks the *lowest* version that can represent the metadata:
//! campaigns with a legacy built-in model tag and no digest produce
//! byte-identical version-1 archives, full-precision uncompressed campaigns
//! never pay the v3 header, and every legacy archive still decodes.  A
//! model tag out of range for its header version is rejected with the typed
//! [`StoreError::UnknownModelTag`].
//!
//! The distinct-input count lets the out-of-core attacks pick the matching
//! accumulator bookkeeping up front (class aggregation vs. the
//! diverse-input fallback) instead of paying for both.
//!
//! Every chunk holds up to `chunk_traces` traces (the final chunk may be
//! shorter) and is self-checking:
//!
//! ```text
//! [k: u32] [inputs: k x u64] [samples: k x S x f64, sample-major] [FNV-1a 64 of all previous chunk bytes]
//! ```
//!
//! The sample block is **sample-major** (column `s` occupies `k`
//! consecutive values), mirroring the columnar `TraceSet` layout, so a chunk
//! loads with zero transposition.  Version-3 archives generalize the chunk
//! to a variable-length body:
//!
//! ```text
//! [k: u32] [body_len: u32] [body: encoded inputs + samples] [FNV-1a 64 of all previous chunk bytes]
//! ```
//!
//! where the body is produced by `encode::encode_body` under the
//! header-recorded encoding and compression; `body_len` is validated
//! against `encode::max_body_len` before any allocation, so a
//! forged length cannot cause an unbounded read.  The writer emits a zeroed
//! placeholder
//! header first and only writes the real header in
//! [`crate::ArchiveWriter::finish`]: an interrupted capture leaves a file
//! that fails to open with [`crate::StoreError::BadMagic`] instead of
//! parsing as a shorter, silently valid archive.
//!
//! ## On-disk recovery invariants
//!
//! The format is crash-consistent by construction; `crate::recover` and the
//! salvage reads rely only on the following invariants, which every writer
//! path maintains:
//!
//! 1. **Header-last commit.**  The header is zeroed until `finish`, and
//!    `finish` makes the chunk data durable (`SyncWrite::sync_contents`)
//!    *before* writing the header, then makes the header durable.  A valid
//!    header therefore promises bytes that are already on stable storage: a
//!    crash at any operation leaves either an unfinished (placeholder or
//!    torn-header) file or a complete one — never a valid header over
//!    missing chunks.
//! 2. **Chunks are self-describing and self-checking.**  Each chunk's
//!    leading `k` (plus, for version 3, its explicit `body_len`) together
//!    with the campaign metadata (which the resuming capture knows
//!    independently) determine its exact byte length, and its trailing
//!    FNV-1a 64 covers every preceding chunk byte.  A scan can therefore
//!    walk chunks forward from the header boundary with no index
//!    structure, and any torn or bit-flipped chunk fails its checksum.
//! 3. **Append-only body, fixed chunking.**  In versions 1–2 chunk `i`
//!    starts at `header_len + i * chunk_len(chunk_traces, samples)`; in
//!    version 3 chunk `i` starts immediately after chunk `i - 1` at the
//!    offset the self-describing walk reaches.  Only the last chunk may
//!    hold fewer than `chunk_traces` traces (`0 < k < chunk_traces`), and
//!    only `finish` writes it.  Hence in an unfinished file every *valid
//!    prefix* of full chunks
//!    is exactly the data acknowledged before the crash, a trailing valid
//!    partial chunk can only mean the crash hit the finish path (its traces
//!    are re-buffered, not lost), and the first invalid byte marks where
//!    torn data begins — truncating there is always safe.
//!
//! Together these give the recovery guarantee: `resume` over the valid
//! prefix followed by re-appending the remaining traces reproduces, byte
//! for byte, the archive an uninterrupted capture would have written.

use crate::encode::{Compression, SampleEncoding};
use crate::error::{Result, StoreError};

/// The 8 magic bytes of a version-1 archive.
pub const MAGIC: [u8; 8] = *b"DPLTRCv1";

/// The 8 magic bytes of a version-2 archive.
pub const MAGIC_V2: [u8; 8] = *b"DPLTRCv2";

/// The 8 magic bytes of a version-3 archive.
pub const MAGIC_V3: [u8; 8] = *b"DPLTRCv3";

/// The newest format version this crate writes (older ones remain
/// readable, and the writer emits the lowest version that can represent an
/// archive's metadata).
pub const CURRENT_VERSION: u32 = 3;

/// Size of the version-1 header in bytes.
pub const HEADER_LEN: usize = 56;

/// Size of the version-2 header in bytes.
pub const HEADER_LEN_V2: usize = 64;

/// Size of the version-3 header in bytes.
pub const HEADER_LEN_V3: usize = 80;

/// Size of a chunk's trace-count prefix in bytes.
pub const CHUNK_PREFIX_LEN: usize = 4;

/// Size of a version-3 chunk's body-length field in bytes (it follows the
/// trace-count prefix).
pub const CHUNK_BODY_LEN_LEN: usize = 4;

/// Size of a chunk's trailing checksum in bytes.
pub const CHUNK_CHECKSUM_LEN: usize = 8;

/// The chunk and header checksum: FNV-1a 64, re-exported from `dpl-power`
/// so every layer hashes with one function.
pub use dpl_power::fnv1a64;

/// The energy model a capture campaign simulated, recorded so a later
/// attack run can pick the right hypothesis (e.g. a profiled CPA table).
///
/// This mirrors `dpl_crypto::EnergyModel` without depending on it: the
/// store sits below the crypto layer so generators can stream into it.
/// Codes 0..=4 are the version-1 tags; the `Characterized*` tags (codes
/// 5..=8, header version 2) mark campaigns whose energies came from
/// transient characterisation of the SABL cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ModelTag {
    /// The campaign did not record a model (or was not simulated).
    #[default]
    Unspecified,
    /// SABL gates on genuine DPDNs (the paper's insecure baseline).
    GenuineSabl,
    /// SABL gates on fully connected DPDNs (§4).
    FullyConnectedSabl,
    /// SABL gates on enhanced fully connected DPDNs (§5).
    EnhancedSabl,
    /// Static-CMOS Hamming-weight leakage.
    HammingWeight,
    /// Transient-characterized SABL gates on genuine DPDNs.
    CharacterizedGenuineSabl,
    /// Transient-characterized SABL gates on fully connected DPDNs.
    CharacterizedFullyConnectedSabl,
    /// Transient-characterized SABL gates on enhanced DPDNs.
    CharacterizedEnhancedSabl,
    /// The Hamming-weight model under the characterized source (which
    /// falls back to the built-in constants — recorded distinctly so the
    /// campaign's model identity round-trips).
    CharacterizedHammingWeight,
}

impl ModelTag {
    /// The on-disk encoding of the tag.
    pub fn code(self) -> u32 {
        match self {
            ModelTag::Unspecified => 0,
            ModelTag::GenuineSabl => 1,
            ModelTag::FullyConnectedSabl => 2,
            ModelTag::EnhancedSabl => 3,
            ModelTag::HammingWeight => 4,
            ModelTag::CharacterizedGenuineSabl => 5,
            ModelTag::CharacterizedFullyConnectedSabl => 6,
            ModelTag::CharacterizedEnhancedSabl => 7,
            ModelTag::CharacterizedHammingWeight => 8,
        }
    }

    /// Decodes an on-disk tag written by a header of the given format
    /// version.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownModelTag`] for a code outside the
    /// version's range — version 1 headers can only carry codes 0..=4.
    pub fn from_code(code: u32, version: u32) -> Result<Self> {
        let tag = match code {
            0 => ModelTag::Unspecified,
            1 => ModelTag::GenuineSabl,
            2 => ModelTag::FullyConnectedSabl,
            3 => ModelTag::EnhancedSabl,
            4 => ModelTag::HammingWeight,
            5 => ModelTag::CharacterizedGenuineSabl,
            6 => ModelTag::CharacterizedFullyConnectedSabl,
            7 => ModelTag::CharacterizedEnhancedSabl,
            8 => ModelTag::CharacterizedHammingWeight,
            _ => return Err(StoreError::UnknownModelTag { code, version }),
        };
        if version < 2 && tag.is_characterized() {
            return Err(StoreError::UnknownModelTag { code, version });
        }
        Ok(tag)
    }

    /// `true` for the transient-characterized model tags (codes 5..=8).
    pub fn is_characterized(self) -> bool {
        self.code() > 4
    }

    /// The built-in (version-1) tag of the same logic style.
    pub fn base_style(self) -> ModelTag {
        match self {
            ModelTag::CharacterizedGenuineSabl => ModelTag::GenuineSabl,
            ModelTag::CharacterizedFullyConnectedSabl => ModelTag::FullyConnectedSabl,
            ModelTag::CharacterizedEnhancedSabl => ModelTag::EnhancedSabl,
            ModelTag::CharacterizedHammingWeight => ModelTag::HammingWeight,
            other => other,
        }
    }

    /// The characterized tag of the same logic style ([`ModelTag::Unspecified`]
    /// has none).
    pub fn characterized(self) -> Option<ModelTag> {
        match self.base_style() {
            ModelTag::GenuineSabl => Some(ModelTag::CharacterizedGenuineSabl),
            ModelTag::FullyConnectedSabl => Some(ModelTag::CharacterizedFullyConnectedSabl),
            ModelTag::EnhancedSabl => Some(ModelTag::CharacterizedEnhancedSabl),
            ModelTag::HammingWeight => Some(ModelTag::CharacterizedHammingWeight),
            _ => None,
        }
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ModelTag::Unspecified => "unspecified",
            ModelTag::GenuineSabl => "SABL (genuine DPDN)",
            ModelTag::FullyConnectedSabl => "SABL (fully connected DPDN)",
            ModelTag::EnhancedSabl => "SABL (enhanced DPDN)",
            ModelTag::HammingWeight => "static CMOS (Hamming weight)",
            ModelTag::CharacterizedGenuineSabl => "SABL (genuine DPDN), transient-characterized",
            ModelTag::CharacterizedFullyConnectedSabl => {
                "SABL (fully connected DPDN), transient-characterized"
            }
            ModelTag::CharacterizedEnhancedSabl => "SABL (enhanced DPDN), transient-characterized",
            ModelTag::CharacterizedHammingWeight => {
                "static CMOS (Hamming weight), transient-characterized"
            }
        }
    }
}

/// What kind of measurement campaign an archive holds — the discipline a
/// later analysis needs in order to interpret the traces.
///
/// The kind is recorded in header bytes 44..48 (zero before this field
/// existed, which is exactly [`CampaignKind::Attack`], so pre-TVLA archives
/// decode unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CampaignKind {
    /// A key-recovery campaign: every trace processed a uniformly random
    /// plaintext under the secret key.  DPA/CPA run directly over it.
    #[default]
    Attack,
    /// An interleaved fixed-vs-random TVLA campaign: traces at **even**
    /// global indices processed one fixed plaintext, traces at odd indices a
    /// random one.  The Welch t-test partitions by trace-index parity;
    /// key-recovery attacks over such an archive are statistically
    /// meaningless (half the traces share one plaintext).
    TvlaInterleaved,
}

impl CampaignKind {
    /// The on-disk encoding of the kind.
    pub fn code(self) -> u32 {
        match self {
            CampaignKind::Attack => 0,
            CampaignKind::TvlaInterleaved => 1,
        }
    }

    /// Decodes an on-disk campaign kind.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptHeader`] for an unknown code.
    pub fn from_code(code: u32) -> Result<Self> {
        Ok(match code {
            0 => CampaignKind::Attack,
            1 => CampaignKind::TvlaInterleaved,
            other => {
                return Err(StoreError::CorruptHeader {
                    message: format!("unknown campaign kind {other}"),
                })
            }
        })
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CampaignKind::Attack => "key-recovery attack",
            CampaignKind::TvlaInterleaved => "TVLA (interleaved fixed-vs-random)",
        }
    }
}

/// The campaign metadata fixed when an archive is created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchiveMeta {
    /// Samples recorded per trace (>= 1).
    pub samples_per_trace: usize,
    /// Traces per full chunk (>= 1); also the reader's natural in-memory
    /// budget.
    pub chunk_traces: usize,
    /// The leakage model the traces were simulated under.
    pub model: ModelTag,
    /// The RNG seed of the capture campaign, for reproducibility.
    pub seed: u64,
    /// The measurement discipline of the campaign (attack vs TVLA).
    pub campaign: CampaignKind,
    /// Digest of the simulated hypothesis as recorded by the capture tool
    /// — e.g. `dpl_crypto::GateEnergyTable::digest` combined with the
    /// attack-circuit name, as the `repro` CLI records it; `0` =
    /// unrecorded.  The store carries the value opaquely; recording one
    /// promotes the header to format version 2.
    pub table_digest: u64,
    /// How sample values are stored on disk.  Anything but the default
    /// lossless [`SampleEncoding::F64`] promotes the header to format
    /// version 3.
    pub encoding: SampleEncoding,
    /// Whether chunk bodies run through the built-in compressor.  Anything
    /// but [`Compression::None`] promotes the header to format version 3.
    pub compression: Compression,
}

impl ArchiveMeta {
    /// Metadata for a single-sample key-recovery campaign with the given
    /// chunk size.
    pub fn scalar(chunk_traces: usize, model: ModelTag, seed: u64) -> Self {
        ArchiveMeta {
            samples_per_trace: 1,
            chunk_traces,
            model,
            seed,
            campaign: CampaignKind::Attack,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        }
    }

    /// Metadata for a single-sample interleaved fixed-vs-random TVLA
    /// campaign with the given chunk size.
    pub fn scalar_tvla(chunk_traces: usize, model: ModelTag, seed: u64) -> Self {
        ArchiveMeta {
            campaign: CampaignKind::TvlaInterleaved,
            ..ArchiveMeta::scalar(chunk_traces, model, seed)
        }
    }

    /// The same metadata with the energy-table digest recorded (promotes
    /// the archive to header version 2).
    pub fn with_table_digest(self, digest: u64) -> Self {
        ArchiveMeta {
            table_digest: digest,
            ..self
        }
    }

    /// The same metadata with the given sample encoding (a non-`F64`
    /// encoding promotes the archive to header version 3).
    pub fn with_encoding(self, encoding: SampleEncoding) -> Self {
        ArchiveMeta { encoding, ..self }
    }

    /// The same metadata with the given chunk compression
    /// ([`Compression::Shuffle`] promotes the archive to header version 3).
    pub fn with_compression(self, compression: Compression) -> Self {
        ArchiveMeta {
            compression,
            ..self
        }
    }

    /// The lowest header version that can represent this metadata: 1 for a
    /// legacy built-in model tag with no digest (byte-identical to archives
    /// written before version 2 existed), 2 with characterized models or a
    /// digest, 3 as soon as a compact encoding or compression is in play.
    pub fn format_version(&self) -> u32 {
        if self.encoding != SampleEncoding::F64 || self.compression != Compression::None {
            3
        } else if self.model.is_characterized() || self.table_digest != 0 {
            2
        } else {
            1
        }
    }

    /// The header length of [`ArchiveMeta::format_version`].
    pub fn header_len(&self) -> usize {
        match self.format_version() {
            1 => HEADER_LEN,
            2 => HEADER_LEN_V2,
            _ => HEADER_LEN_V3,
        }
    }

    /// Validates the field ranges the format can represent.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.samples_per_trace == 0 {
            return Err(StoreError::FormatViolation {
                message: "samples_per_trace must be at least 1".into(),
            });
        }
        if self.chunk_traces == 0 {
            return Err(StoreError::FormatViolation {
                message: "chunk_traces must be at least 1".into(),
            });
        }
        if self.samples_per_trace > u32::MAX as usize || self.chunk_traces > u32::MAX as usize {
            return Err(StoreError::FormatViolation {
                message: "samples_per_trace and chunk_traces must fit in 32 bits".into(),
            });
        }
        Ok(())
    }
}

/// Serialized bytes of a size-`k` version-1/2 chunk: prefix + inputs +
/// samples + checksum.
pub(crate) fn chunk_len(k: usize, samples_per_trace: usize) -> u64 {
    CHUNK_PREFIX_LEN as u64
        + (k as u64) * 8
        + (k as u64) * (samples_per_trace as u64) * 8
        + CHUNK_CHECKSUM_LEN as u64
}

/// Serialized bytes of a version-3 chunk with the given body length:
/// prefix + body length + body + checksum.
pub(crate) fn chunk_len_v3(body_len: u64) -> u64 {
    (CHUNK_PREFIX_LEN + CHUNK_BODY_LEN_LEN + CHUNK_CHECKSUM_LEN) as u64 + body_len
}

/// Encodes the header for the given metadata, trace count and distinct
/// input count (0 = too many to track), at the metadata's format version.
pub(crate) fn encode_header(meta: &ArchiveMeta, trace_count: u64, distinct_inputs: u32) -> Vec<u8> {
    let version = meta.format_version();
    let mut header = vec![0u8; meta.header_len()];
    header[0..8].copy_from_slice(match version {
        1 => &MAGIC,
        2 => &MAGIC_V2,
        _ => &MAGIC_V3,
    });
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..16].copy_from_slice(&(meta.samples_per_trace as u32).to_le_bytes());
    header[16..20].copy_from_slice(&(meta.chunk_traces as u32).to_le_bytes());
    header[20..24].copy_from_slice(&meta.model.code().to_le_bytes());
    header[24..32].copy_from_slice(&meta.seed.to_le_bytes());
    header[32..40].copy_from_slice(&trace_count.to_le_bytes());
    header[40..44].copy_from_slice(&distinct_inputs.to_le_bytes());
    header[44..48].copy_from_slice(&meta.campaign.code().to_le_bytes());
    let payload_end = if version == 1 {
        48
    } else {
        header[48..56].copy_from_slice(&meta.table_digest.to_le_bytes());
        if version == 2 {
            56
        } else {
            header[56..60].copy_from_slice(&meta.encoding.code().to_le_bytes());
            header[60..64].copy_from_slice(&meta.compression.code().to_le_bytes());
            header[64..72].copy_from_slice(&meta.encoding.scale_bits().to_le_bytes());
            72
        }
    };
    let checksum = fnv1a64(&header[0..payload_end]);
    header[payload_end..payload_end + 8].copy_from_slice(&checksum.to_le_bytes());
    header
}

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// The header version a file's leading magic bytes announce: `Some(1)`,
/// `Some(2)`, `Some(3)`, or `None` for anything else (not an archive).
/// The reader uses this to know how many header bytes to fetch before
/// [`decode_header`].
pub(crate) fn version_of_magic(magic: &[u8; 8]) -> Option<u32> {
    if *magic == MAGIC {
        Some(1)
    } else if *magic == MAGIC_V2 {
        Some(2)
    } else if *magic == MAGIC_V3 {
        Some(3)
    } else {
        None
    }
}

/// The header length of a given format version (the number of bytes the
/// reader fetches once the magic announces the version).
pub(crate) fn header_len_of_version(version: u32) -> usize {
    match version {
        1 => HEADER_LEN,
        2 => HEADER_LEN_V2,
        _ => HEADER_LEN_V3,
    }
}

/// Decodes and validates a complete header (56 bytes for version 1, 64 for
/// version 2, 80 for version 3), returning the metadata, trace count and
/// recorded distinct input count.
pub(crate) fn decode_header(header: &[u8]) -> Result<(ArchiveMeta, u64, u32)> {
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[0..8]);
    let Some(magic_version) = version_of_magic(&magic) else {
        return Err(StoreError::BadMagic { found: magic });
    };
    let version = u32_at(header, 8);
    if version != magic_version {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    debug_assert_eq!(header.len(), header_len_of_version(version));
    let payload_end = match version {
        1 => 48,
        2 => 56,
        _ => 72,
    };
    let stored = u64_at(header, payload_end);
    let computed = fnv1a64(&header[0..payload_end]);
    if stored != computed {
        return Err(StoreError::CorruptHeader {
            message: format!("header checksum {stored:#018X} != computed {computed:#018X}"),
        });
    }
    let meta = ArchiveMeta {
        samples_per_trace: u32_at(header, 12) as usize,
        chunk_traces: u32_at(header, 16) as usize,
        model: ModelTag::from_code(u32_at(header, 20), version)?,
        seed: u64_at(header, 24),
        campaign: CampaignKind::from_code(u32_at(header, 44))?,
        table_digest: if version == 1 { 0 } else { u64_at(header, 48) },
        encoding: if version < 3 {
            SampleEncoding::F64
        } else {
            SampleEncoding::from_code(u32_at(header, 56), u64_at(header, 64))?
        },
        compression: if version < 3 {
            Compression::None
        } else {
            Compression::from_code(u32_at(header, 60))?
        },
    };
    if meta.samples_per_trace == 0 || meta.chunk_traces == 0 {
        return Err(StoreError::CorruptHeader {
            message: "zero samples_per_trace or chunk_traces".into(),
        });
    }
    let trace_count = u64_at(header, 32);
    // Bound the implied file size up front (in u128, which cannot overflow
    // for 32/64-bit fields) so all later u64 offset arithmetic is safe: a
    // forged header must surface as CorruptHeader, never as an integer
    // overflow or a bogus huge allocation.  For version 3 the bound uses
    // the compressor's worst case, which only widens the tolerance.
    let chunk_bytes = CHUNK_PREFIX_LEN as u128
        + CHUNK_BODY_LEN_LEN as u128
        + (meta.chunk_traces as u128) * 10
        + (meta.chunk_traces as u128) * (meta.samples_per_trace as u128) * 8
        + 256
        + CHUNK_CHECKSUM_LEN as u128;
    let chunk_count = (trace_count as u128).div_ceil(meta.chunk_traces as u128);
    let implied_len = header.len() as u128 + chunk_count * chunk_bytes;
    if implied_len > u64::MAX as u128 {
        return Err(StoreError::CorruptHeader {
            message: format!("header implies an impossible file size ({implied_len} bytes)"),
        });
    }
    let distinct_inputs = u32_at(header, 40);
    if distinct_inputs as usize > dpl_power::MAX_INPUT_CLASSES {
        return Err(StoreError::CorruptHeader {
            message: format!(
                "distinct input count {distinct_inputs} exceeds the class-aggregation limit {}",
                dpl_power::MAX_INPUT_CLASSES
            ),
        });
    }
    Ok((meta, trace_count, distinct_inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_headers_round_trip() {
        let meta = ArchiveMeta {
            samples_per_trace: 3,
            chunk_traces: 512,
            model: ModelTag::GenuineSabl,
            seed: 0xDEAD_BEEF_2005,
            campaign: CampaignKind::TvlaInterleaved,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        };
        assert_eq!(meta.format_version(), 1);
        let header = encode_header(&meta, 12345, 16);
        assert_eq!(header.len(), HEADER_LEN);
        assert_eq!(&header[0..8], &MAGIC);
        let (decoded, count, distinct) = decode_header(&header).unwrap();
        assert_eq!(decoded, meta);
        assert_eq!(count, 12345);
        assert_eq!(distinct, 16);
    }

    #[test]
    fn v2_headers_round_trip_digest_and_characterized_tags() {
        for meta in [
            ArchiveMeta::scalar(64, ModelTag::CharacterizedGenuineSabl, 9),
            ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9).with_table_digest(0xABCD_EF01),
            ArchiveMeta::scalar_tvla(8, ModelTag::CharacterizedFullyConnectedSabl, 3)
                .with_table_digest(42),
        ] {
            assert_eq!(meta.format_version(), 2);
            assert_eq!(meta.header_len(), HEADER_LEN_V2);
            let header = encode_header(&meta, 777, 16);
            assert_eq!(header.len(), HEADER_LEN_V2);
            assert_eq!(&header[0..8], &MAGIC_V2);
            let (decoded, count, distinct) = decode_header(&header).unwrap();
            assert_eq!(decoded, meta);
            assert_eq!(count, 777);
            assert_eq!(distinct, 16);
        }
    }

    #[test]
    fn v3_headers_round_trip_encodings_and_compression() {
        let q = crate::Quantization::new(0.0625).unwrap();
        for meta in [
            ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9).with_encoding(SampleEncoding::F32),
            ArchiveMeta::scalar(64, ModelTag::GenuineSabl, 9)
                .with_encoding(SampleEncoding::I16(q))
                .with_compression(Compression::Shuffle),
            ArchiveMeta::scalar_tvla(8, ModelTag::CharacterizedEnhancedSabl, 3)
                .with_table_digest(42)
                .with_compression(Compression::Shuffle),
        ] {
            assert_eq!(meta.format_version(), 3);
            assert_eq!(meta.header_len(), HEADER_LEN_V3);
            let header = encode_header(&meta, 777, 16);
            assert_eq!(header.len(), HEADER_LEN_V3);
            assert_eq!(&header[0..8], &MAGIC_V3);
            let (decoded, count, distinct) = decode_header(&header).unwrap();
            assert_eq!(decoded, meta);
            assert_eq!(count, 777);
            assert_eq!(distinct, 16);
        }

        // Every flipped v3 payload byte fails the checksum.
        let meta = ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9)
            .with_encoding(SampleEncoding::I16(q));
        let good = encode_header(&meta, 100, 16);
        for offset in 12..72 {
            let mut bad = good.clone();
            bad[offset] ^= 0x10;
            assert!(
                matches!(decode_header(&bad), Err(StoreError::CorruptHeader { .. })),
                "offset {offset}"
            );
        }

        // Forged encoding/compression tags with self-consistent checksums
        // are typed corruption, not panics.
        for (offset, value) in [(56usize, 9u32), (60, 7)] {
            let mut forged = good.clone();
            forged[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            let checksum = fnv1a64(&forged[0..72]);
            forged[72..80].copy_from_slice(&checksum.to_le_bytes());
            assert!(matches!(
                decode_header(&forged),
                Err(StoreError::CorruptHeader { .. })
            ));
        }
    }

    #[test]
    fn default_campaigns_stay_on_legacy_header_versions() {
        // The compact-encoding fields must not disturb the
        // lowest-representable-version discipline: a plain f64
        // uncompressed campaign still writes v1/v2 bytes.
        let v1 = ArchiveMeta::scalar(8, ModelTag::HammingWeight, 5);
        assert_eq!(v1.format_version(), 1);
        let v2 = ArchiveMeta::scalar(8, ModelTag::CharacterizedGenuineSabl, 5);
        assert_eq!(v2.format_version(), 2);
        assert_eq!(
            v2.with_compression(Compression::Shuffle).format_version(),
            3
        );
    }

    #[test]
    fn characterized_tags_are_out_of_range_for_v1_headers() {
        // A forged v1 header carrying a characterized (or unknown) tag code
        // with a self-consistent checksum must fail with the *typed* error,
        // not a generic corruption message.
        let meta = ArchiveMeta::scalar(8, ModelTag::HammingWeight, 5);
        for code in [5u32, 99] {
            let mut forged = encode_header(&meta, 40, 16);
            forged[20..24].copy_from_slice(&code.to_le_bytes());
            let checksum = fnv1a64(&forged[0..48]);
            forged[48..56].copy_from_slice(&checksum.to_le_bytes());
            assert_eq!(
                decode_header(&forged),
                Err(StoreError::UnknownModelTag { code, version: 1 })
            );
        }
        // And an unknown code is equally typed in a v2 header.
        let meta = ArchiveMeta::scalar(8, ModelTag::CharacterizedGenuineSabl, 5);
        let mut forged = encode_header(&meta, 40, 16);
        forged[20..24].copy_from_slice(&77u32.to_le_bytes());
        let checksum = fnv1a64(&forged[0..56]);
        forged[56..64].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_header(&forged),
            Err(StoreError::UnknownModelTag {
                code: 77,
                version: 2
            })
        );
    }

    #[test]
    fn header_corruption_is_detected() {
        let meta = ArchiveMeta::scalar(64, ModelTag::HammingWeight, 7);
        let good = encode_header(&meta, 100, 16);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_header(&bad_magic),
            Err(StoreError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        // The version is checked before the checksum so future formats get a
        // clean error, not "corrupt".
        assert!(matches!(
            decode_header(&bad_version),
            Err(StoreError::UnsupportedVersion { found: 99 })
        ));

        // Any flipped payload byte fails the header checksum.
        for offset in 12..48 {
            let mut bad = good.clone();
            bad[offset] ^= 0x10;
            assert!(
                matches!(decode_header(&bad), Err(StoreError::CorruptHeader { .. })),
                "offset {offset}"
            );
        }

        // Same for the digest bytes of a v2 header.
        let v2 = encode_header(
            &ArchiveMeta::scalar(64, ModelTag::CharacterizedEnhancedSabl, 7),
            100,
            16,
        );
        for offset in 48..56 {
            let mut bad = v2.clone();
            bad[offset] ^= 0x10;
            assert!(
                matches!(decode_header(&bad), Err(StoreError::CorruptHeader { .. })),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn forged_header_sizes_are_rejected_not_overflowed() {
        // Maxed-out fields with a valid checksum must surface as
        // CorruptHeader, not as integer overflow in the offset arithmetic
        // or a bogus huge allocation.
        let huge = ArchiveMeta {
            samples_per_trace: u32::MAX as usize,
            chunk_traces: u32::MAX as usize,
            model: ModelTag::Unspecified,
            seed: 0,
            campaign: CampaignKind::Attack,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        };
        let header = encode_header(&huge, u64::MAX, 0);
        assert!(matches!(
            decode_header(&header),
            Err(StoreError::CorruptHeader { .. })
        ));

        // A distinct-input count over the class-aggregation limit is
        // equally corrupt (the writer never records one).
        let meta = ArchiveMeta::scalar(8, ModelTag::Unspecified, 0);
        let header = encode_header(&meta, 100, 65);
        assert!(matches!(
            decode_header(&header),
            Err(StoreError::CorruptHeader { .. })
        ));
        let header = encode_header(&meta, 100, 64);
        assert!(decode_header(&header).is_ok());
    }

    #[test]
    fn campaign_kinds_round_trip_and_legacy_zero_is_attack() {
        for kind in [CampaignKind::Attack, CampaignKind::TvlaInterleaved] {
            assert_eq!(CampaignKind::from_code(kind.code()).unwrap(), kind);
            assert!(!kind.label().is_empty());
        }
        assert!(CampaignKind::from_code(9).is_err());

        // The field occupies the formerly-reserved (always zero) bytes
        // 44..48: a pre-TVLA header decodes as an Attack campaign.
        let meta = ArchiveMeta::scalar(8, ModelTag::HammingWeight, 5);
        let header = encode_header(&meta, 40, 16);
        assert_eq!(header[44..48], [0, 0, 0, 0]);
        let (decoded, _, _) = decode_header(&header).unwrap();
        assert_eq!(decoded.campaign, CampaignKind::Attack);

        // A TVLA campaign round-trips through the same bytes.
        let tvla = ArchiveMeta::scalar_tvla(8, ModelTag::HammingWeight, 5);
        let header = encode_header(&tvla, 40, 16);
        let (decoded, _, _) = decode_header(&header).unwrap();
        assert_eq!(decoded.campaign, CampaignKind::TvlaInterleaved);

        // An unknown kind with a self-consistent checksum is corrupt.
        let mut forged = header;
        forged[44] = 7;
        let checksum = fnv1a64(&forged[0..48]);
        forged[48..56].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_header(&forged),
            Err(StoreError::CorruptHeader { .. })
        ));
    }

    #[test]
    fn model_tags_round_trip() {
        for tag in [
            ModelTag::Unspecified,
            ModelTag::GenuineSabl,
            ModelTag::FullyConnectedSabl,
            ModelTag::EnhancedSabl,
            ModelTag::HammingWeight,
            ModelTag::CharacterizedGenuineSabl,
            ModelTag::CharacterizedFullyConnectedSabl,
            ModelTag::CharacterizedEnhancedSabl,
            ModelTag::CharacterizedHammingWeight,
        ] {
            assert_eq!(
                ModelTag::from_code(tag.code(), CURRENT_VERSION).unwrap(),
                tag
            );
            assert!(!tag.label().is_empty());
            assert_eq!(tag.is_characterized(), tag.code() > 4);
            assert!(!tag.base_style().is_characterized());
            if tag != ModelTag::Unspecified {
                let charac = tag.characterized().unwrap();
                assert!(charac.is_characterized());
                assert_eq!(charac.base_style(), tag.base_style());
            } else {
                assert_eq!(tag.characterized(), None);
            }
        }
        assert!(matches!(
            ModelTag::from_code(77, CURRENT_VERSION),
            Err(StoreError::UnknownModelTag {
                code: 77,
                version: CURRENT_VERSION
            })
        ));
    }

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_detects_single_byte_flips() {
        let data: Vec<u8> = (0..=255u8).collect();
        let baseline = fnv1a64(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv1a64(&flipped), baseline, "byte {i}");
        }
    }

    #[test]
    fn meta_validation() {
        assert!(ArchiveMeta::scalar(0, ModelTag::Unspecified, 0)
            .validate()
            .is_err());
        let mut meta = ArchiveMeta::scalar(8, ModelTag::Unspecified, 0);
        meta.samples_per_trace = 0;
        assert!(meta.validate().is_err());
        assert!(ArchiveMeta::scalar(8, ModelTag::Unspecified, 0)
            .validate()
            .is_ok());
    }
}
