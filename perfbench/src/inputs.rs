//! Seeded input generation. Every operation stream is built here, before
//! the timed window, from the `--seed` argument alone; the timed loops only
//! index into the finished arrays.
//!
//! An operation is packed into a `u32`: the top two bits select the kind,
//! the low 30 bits hold the key. Values are derived from keys
//! ([`value_of`]), so a stream never needs to carry them.

use std::hash::{BuildHasherDefault, Hasher};

/// Operation kinds, in the order the mix percentages are given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `find` / `Get`.
    Find = 0,
    /// `insert` / `Put`.
    Insert = 1,
    /// `remove` / `Del`.
    Remove = 2,
    /// `Scan` (service only).
    Scan = 3,
}

impl Kind {
    /// All kinds, indexable by `Kind as usize`.
    pub const ALL: [Kind; 4] = [Kind::Find, Kind::Insert, Kind::Remove, Kind::Scan];
}

const KIND_SHIFT: u32 = 30;
const KEY_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// Packs one operation.
pub fn pack(kind: Kind, key: u64) -> u32 {
    assert!(key <= u64::from(KEY_MASK), "key {key} does not fit an op");
    ((kind as u32) << KIND_SHIFT) | key as u32
}

/// The kind of a packed operation.
#[inline]
pub fn kind(op: u32) -> Kind {
    Kind::ALL[(op >> KIND_SHIFT) as usize]
}

/// The key of a packed operation.
#[inline]
pub fn key(op: u32) -> u64 {
    u64::from(op & KEY_MASK)
}

/// The value stored under `key` by every insert and prefill; a lookup
/// that returns anything else is a wrong answer.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5DEE_CE66_D1CE_4E5B
}

/// The splitmix64 finaliser: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 generator; one independent stream per `(seed, stream)`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix64(
            seed ^ mix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-40 for the sizes
    /// used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// How keys are drawn.
#[derive(Debug)]
pub enum Keys {
    /// Uniform over `0..n`.
    Uniform(u64),
    /// Zipf over `0..n` (`n` a power of two), ranks scattered over the key
    /// space by an odd multiplier so the hot head is not one dense range.
    Zipf {
        /// Cumulative rank probabilities.
        cdf: Vec<f64>,
    },
}

impl Keys {
    /// A Zipf distribution with exponent `theta` over `n` keys.
    pub fn zipf(n: u64, theta: f64) -> Self {
        assert!(n.is_power_of_two(), "the rank scatter needs a power of two");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Keys::Zipf { cdf }
    }

    /// Draws one key.
    pub fn draw(&self, rng: &mut Rng) -> u64 {
        match self {
            Keys::Uniform(n) => rng.below(*n),
            Keys::Zipf { cdf } => {
                let u = rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
                rank.wrapping_mul(0xD6E8_FEB8_6659_FD93) & (cdf.len() as u64 - 1)
            }
        }
    }
}

/// `len` operations for stream `stream` of `seed`. `mix` gives the
/// find/insert/remove/scan percentages and must sum to 100.
pub fn stream(seed: u64, stream: u64, len: usize, mix: [u32; 4], keys: &Keys) -> Vec<u32> {
    assert_eq!(mix.iter().sum::<u32>(), 100, "mix must sum to 100");
    let mut rng = Rng::new(seed, stream);
    (0..len)
        .map(|_| {
            let mut pick = rng.below(100) as u32;
            let mut kind = Kind::Scan;
            for (k, share) in Kind::ALL.iter().zip(mix) {
                if pick < share {
                    kind = *k;
                    break;
                }
                pick -= share;
            }
            pack(kind, keys.draw(&mut rng))
        })
        .collect()
}

/// A seeded choice of `count` distinct keys from `0..n`, in a seeded order
/// (a partial Fisher–Yates shuffle).
pub fn sample_keys(seed: u64, n: u64, count: usize) -> Vec<u64> {
    let mut all: Vec<u64> = (0..n).collect();
    let mut rng = Rng::new(seed, u64::MAX);
    for i in 0..count {
        let j = i + rng.below((all.len() - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(count);
    all
}

/// A fixed, seed-independent hasher for `u64` keys, so bucket placement in
/// the hash workloads repeats from run to run.
#[derive(Debug, Default, Clone, Copy)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `BuildHasher` of [`MixHasher`].
pub type FixedState = BuildHasherDefault<MixHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(ops: &[u32]) -> Vec<u8> {
        ops.iter().flat_map(|op| op.to_le_bytes()).collect()
    }

    #[test]
    fn same_seed_reproduces_the_stream_byte_for_byte() {
        let zipf = Keys::zipf(1 << 12, 0.99);
        for keys in [&Keys::Uniform(2048), &zipf] {
            let a = stream(7, 0, 10_000, [70, 15, 10, 5], keys);
            let b = stream(7, 0, 10_000, [70, 15, 10, 5], keys);
            assert_eq!(bytes(&a), bytes(&b));
        }
        assert_eq!(sample_keys(7, 4096, 100), sample_keys(7, 4096, 100));
    }

    #[test]
    fn another_seed_or_stream_changes_the_stream() {
        let keys = Keys::Uniform(1 << 20);
        let a = stream(7, 0, 1000, [20, 40, 40, 0], &keys);
        let b = stream(8, 0, 1000, [20, 40, 40, 0], &keys);
        let c = stream(7, 1, 1000, [20, 40, 40, 0], &keys);
        assert_ne!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert_ne!(sample_keys(7, 4096, 100), sample_keys(8, 4096, 100));
    }

    #[test]
    fn mix_and_keys_are_respected() {
        let ops = stream(1, 0, 100_000, [90, 5, 5, 0], &Keys::Uniform(2048));
        let finds = ops.iter().filter(|&&op| kind(op) == Kind::Find).count();
        assert!((89_000..91_000).contains(&finds), "finds {finds}");
        assert!(ops
            .iter()
            .all(|&op| kind(op) != Kind::Scan && key(op) < 2048));
        let op = pack(Kind::Remove, 12345);
        assert_eq!((kind(op), key(op)), (Kind::Remove, 12345));
    }

    #[test]
    fn zipf_head_is_hot_and_keys_stay_in_range() {
        let keys = Keys::zipf(1 << 16, 0.99);
        let mut rng = Rng::new(3, 0);
        let draws: Vec<u64> = (0..100_000).map(|_| keys.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&k| k < 1 << 16));
        let top = draws.iter().filter(|&&k| k == 0).count();
        assert!(top > 5_000, "rank 0 (key 0) drawn {top} times");
    }

    #[test]
    fn sampled_keys_are_distinct() {
        let mut ks = sample_keys(5, 1000, 500);
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(ks.len(), 500);
    }
}
