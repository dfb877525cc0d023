//! The one distinct-input tracker of the workspace.
//!
//! Class aggregation (the attacks' per-input-class sums, the archive
//! header's distinct-input count, the campaign manifest's union) needs to
//! number the distinct input values of a trace stream in order of first
//! appearance, up to [`MAX_INPUT_CLASSES`] of them.  [`InputClasses`] does
//! that in O(1) per input with a small open-addressed index, so the class
//! a value receives — and with it every per-class sum — is exactly what a
//! linear first-appearance scan would give.

use std::fmt;

/// When the traces carry at most this many distinct inputs, the attacks
/// aggregate per-input-class column sums once and score every key guess in
/// O(classes) per sample instead of O(traces).
pub const MAX_INPUT_CLASSES: usize = 64;

/// Index slots: twice the class limit, so the table is at most half full
/// and every probe chain ends at an empty slot.
const SLOTS: usize = 2 * MAX_INPUT_CLASSES;

/// The distinct input values seen so far, numbered by first appearance,
/// at most [`MAX_INPUT_CLASSES`] of them.
///
/// Lookups go through an insert-only open-addressed index of `u8` slots
/// (multiplicative hash, linear probing), so [`InputClasses::intern`] is
/// O(1) per input.  The inputs may come from an untrusted archive, but
/// the table never holds more than [`MAX_INPUT_CLASSES`] values, so even
/// inputs crafted to collide cost one probe per stored value plus one —
/// no more than a linear scan.  Equality and `Debug` depend only on the
/// values in order: the index is a pure function of them.
#[derive(Clone)]
pub struct InputClasses {
    values: Vec<u64>,
    /// `slots[i]` is `class + 1` of the value hashed to slot `i` (or
    /// probed past it), `0` when empty.
    slots: [u8; SLOTS],
}

impl InputClasses {
    /// An empty table.
    pub fn new() -> Self {
        InputClasses {
            values: Vec::with_capacity(MAX_INPUT_CLASSES),
            slots: [0; SLOTS],
        }
    }

    /// The class of `input`, adding it as the next class when it is new.
    /// Returns `None`, leaving the table unchanged, when `input` would be
    /// class number `MAX_INPUT_CLASSES + 1`.
    #[inline]
    pub fn intern(&mut self, input: u64) -> Option<usize> {
        // Fibonacci hashing: the top 7 bits of the product index 128 slots.
        let mut slot = (input.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize;
        loop {
            match self.slots[slot] {
                0 => {
                    let class = self.values.len();
                    if class == MAX_INPUT_CLASSES {
                        return None;
                    }
                    self.values.push(input);
                    self.slots[slot] = (class + 1) as u8;
                    return Some(class);
                }
                tag => {
                    let class = usize::from(tag - 1);
                    if self.values[class] == input {
                        return Some(class);
                    }
                }
            }
            slot = (slot + 1) % SLOTS;
        }
    }

    /// The distinct values, indexed by class (first-appearance order).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no input has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Default for InputClasses {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for InputClasses {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for InputClasses {}

impl fmt::Debug for InputClasses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InputClasses")
            .field("values", &self.values)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The linear first-appearance scan the table replaces.
    fn reference(values: &mut Vec<u64>, input: u64) -> Option<usize> {
        match values.iter().position(|&v| v == input) {
            Some(class) => Some(class),
            None if values.len() == MAX_INPUT_CLASSES => None,
            None => {
                values.push(input);
                Some(values.len() - 1)
            }
        }
    }

    fn slot_of(input: u64) -> usize {
        (input.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize
    }

    #[test]
    fn random_streams_match_the_linear_reference() {
        for (seed, alphabet) in [(1u64, 4u64), (2, 16), (3, 64), (4, 65), (5, 200), (6, 0)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = InputClasses::new();
            let mut linear = Vec::new();
            for _ in 0..5000 {
                // alphabet 0 = the whole u64 range.
                let input = if alphabet == 0 {
                    rng.gen_range(0..u64::MAX)
                } else {
                    rng.gen_range(0..alphabet)
                };
                assert_eq!(
                    table.intern(input),
                    reference(&mut linear, input),
                    "seed={seed} alphabet={alphabet} input={input}"
                );
                assert_eq!(table.values(), &linear[..]);
            }
        }
    }

    #[test]
    fn values_on_one_probe_chain_keep_their_classes() {
        // Forty values that all hash to slot 0, interleaved with values of
        // other slots: every lookup must walk the chain to its own value.
        let colliding: Vec<u64> = (0u64..).filter(|&v| slot_of(v) == 0).take(40).collect();
        let others: Vec<u64> = (0u64..).filter(|&v| slot_of(v) != 0).take(24).collect();
        let mut table = InputClasses::new();
        let mut linear = Vec::new();
        for round in 0..3 {
            for (i, &v) in colliding.iter().enumerate() {
                assert_eq!(table.intern(v), reference(&mut linear, v), "round {round}");
                let other = others[i % others.len()];
                assert_eq!(table.intern(other), reference(&mut linear, other));
            }
        }
        assert_eq!(table.len(), MAX_INPUT_CLASSES);
        assert_eq!(table.values(), &linear[..]);
    }

    #[test]
    fn the_65th_value_is_refused_and_changes_nothing() {
        let mut table = InputClasses::new();
        for v in 0..MAX_INPUT_CLASSES as u64 {
            assert_eq!(table.intern(v * 1000), Some(v as usize));
        }
        let full = table.clone();
        assert_eq!(table.intern(u64::MAX), None);
        assert_eq!(table, full);
        assert_eq!(table.slots, full.slots);
        // Known values still resolve after the refusal.
        assert_eq!(table.intern(63_000), Some(63));
        assert_eq!(table.intern(0), Some(0));
        assert_eq!(table.len(), MAX_INPUT_CLASSES);
    }

    #[test]
    fn equality_and_debug_see_only_the_values() {
        let mut a = InputClasses::new();
        let mut b = InputClasses::default();
        assert!(a.is_empty());
        for v in [7u64, 3, 7, 9] {
            a.intern(v);
            b.intern(v);
        }
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "InputClasses { values: [7, 3, 9] }");
        b.intern(1);
        assert_ne!(a, b);
    }
}
