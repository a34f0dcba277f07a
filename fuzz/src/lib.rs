//! Deterministic differential fuzzing for the Sidewinder workspace.
//!
//! The classic `cargo-fuzz`/libFuzzer stack needs a nightly toolchain
//! and sanitizer runtimes, so this harness is a plain, dependency-free
//! fallback that CI can run on stable: every target is a function from
//! arbitrary bytes to either a clean return or a panic, and the
//! [`fuzzsmoke`](../src/bin/fuzzsmoke.rs) runner drives each one for a
//! fixed, seed-determined iteration budget — same seed, same corpus,
//! same inputs, on every machine.
//!
//! The targets are differential where it counts:
//!
//! * [`targets::ir_totality`] — the parser, validator, linter, and
//!   loader must be total on arbitrary bytes (no panics, only typed
//!   errors);
//! * [`targets::fft_differential`] — the host's planned FFT path must
//!   be bit-identical to the reference transform;
//! * [`targets::ingest_differential`] — frames and batches must be
//!   bit-identical to pushing the same samples one at a time through
//!   the probed per-sample pass;
//! * [`targets::cert_soundness`] — the static resource certificate must
//!   agree with the loader about what fits and dominate every measured
//!   payload high-water mark and emission count;
//! * [`targets::replay_differential`] — the simulator's replay must wake
//!   at exactly the times of one-sample pushes in the serial pick's
//!   order.

pub mod targets;

use std::path::{Path, PathBuf};

/// SplitMix64: tiny, seedable, and identical everywhere — the only
/// randomness the harness uses, so a `(seed, iteration)` pair fully
/// determines every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// Maximum generated input length. Long enough to fill the fixtures'
/// largest windows when a target expands bytes into sample streams.
pub const MAX_INPUT: usize = 4096;

/// Derives one fuzz input from a corpus entry: a deterministic stack of
/// byte flips, truncations, extensions, and splices driven by `rng`.
/// An empty corpus entry yields a from-scratch random input.
pub fn mutate(base: &[u8], corpus: &[Vec<u8>], rng: &mut SplitMix64) -> Vec<u8> {
    let mut data = base.to_vec();
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        match rng.below(5) {
            // Flip a handful of bytes.
            0 if !data.is_empty() => {
                for _ in 0..=rng.below(8) {
                    let i = rng.below(data.len());
                    data[i] ^= (rng.next_u64() & 0xFF) as u8;
                }
            }
            // Truncate.
            1 if !data.is_empty() => {
                data.truncate(rng.below(data.len()) + 1);
            }
            // Extend with random bytes.
            2 => {
                let extra = rng.below(64) + 1;
                for _ in 0..extra {
                    data.push((rng.next_u64() & 0xFF) as u8);
                }
            }
            // Splice a slice of another corpus entry.
            3 if !corpus.is_empty() => {
                let other = &corpus[rng.below(corpus.len())];
                if !other.is_empty() {
                    let start = rng.below(other.len());
                    let end = start + rng.below(other.len() - start) + 1;
                    let at = rng.below(data.len() + 1);
                    data.splice(at..at, other[start..end].iter().copied());
                }
            }
            // Overwrite from scratch.
            _ => {
                let len = rng.below(256) + 1;
                data = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            }
        }
    }
    data.truncate(MAX_INPUT);
    data
}

/// Loads a target's corpus directory in filename order (determinism:
/// readdir order is filesystem-dependent, sorted order is not). A
/// missing directory is an empty corpus.
pub fn load_corpus(dir: &Path) -> Vec<Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths.iter().filter_map(|p| std::fs::read(p).ok()).collect()
}

/// A fuzz target: arbitrary bytes in, panic on any violated invariant.
pub type Target = fn(&[u8]);

/// The registered targets, in the order `fuzzsmoke` runs them.
pub const TARGETS: [(&str, Target); 5] = [
    ("ir_totality", targets::ir_totality),
    ("fft_differential", targets::fft_differential),
    ("ingest_differential", targets::ingest_differential),
    ("cert_soundness", targets::cert_soundness),
    ("replay_differential", targets::replay_differential),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_ir::fnv::Fnv1a;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mutation_is_deterministic_and_bounded() {
        let corpus = vec![b"hello".to_vec(), vec![0u8; 300]];
        let x = mutate(&corpus[0], &corpus, &mut SplitMix64(7));
        let y = mutate(&corpus[0], &corpus, &mut SplitMix64(7));
        assert_eq!(x, y);
        for seed in 0..50 {
            let out = mutate(&corpus[1], &corpus, &mut SplitMix64(seed));
            assert!(out.len() <= MAX_INPUT);
        }
    }

    /// Every committed corpus entry passes its target verbatim, so the
    /// fit-boundary seeds and the golden fixtures guard every test run,
    /// not only the fuzz-smoke job.
    #[test]
    fn committed_corpora_replay_cleanly() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpora");
        for (name, target) in TARGETS {
            let corpus = load_corpus(&root.join(name));
            assert!(!corpus.is_empty(), "{name}: no committed corpus");
            for entry in &corpus {
                target(entry);
            }
        }
    }

    /// Every target survives a small deterministic budget — the same
    /// property the CI fuzz-smoke job checks at a larger budget.
    #[test]
    fn all_targets_survive_a_smoke_budget() {
        for (name, target) in TARGETS {
            let mut rng = SplitMix64(Fnv1a::hash(name.as_bytes()));
            for _ in 0..8 {
                let data = mutate(&[], &[], &mut rng);
                target(&data);
            }
        }
    }
}
