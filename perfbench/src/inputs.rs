//! Seeded input generation helpers and the input digest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator every workload draws its inputs from. Each workload
/// mixes its own tag into the seed, so two workloads with one seed do
/// not share a stream.
pub fn rng(seed: u64, tag: &str) -> StdRng {
    let mut d = Digest::new();
    d.str(tag);
    StdRng::seed_from_u64(seed ^ d.finish())
}

/// Fisher–Yates shuffle (the vendored `rand` has none).
pub fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// 64-bit FNV-1a over everything a run feeds the program, so runs with
/// the same seed can be shown to have used identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a slice of words in eight bytes at a time: weights run to
    /// tens of millions of values, so this must stay cheap.
    pub fn i32s(&mut self, values: &[i32]) {
        let mut acc = self.0;
        for chunk in values.chunks(2) {
            let lo = chunk[0] as u32 as u64;
            let hi = chunk.get(1).map_or(0, |&v| v as u32 as u64);
            acc = (acc ^ (lo | hi << 32)).wrapping_mul(0x0100_0000_01b3).rotate_left(29);
        }
        self.0 = acc;
        self.u64(values.len() as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_tag() {
        let draw = |seed, tag| {
            let mut r = rng(seed, tag);
            (0..4).map(|_| r.gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
        let mut items: Vec<u32> = (0..50).collect();
        shuffle(&mut items, &mut rng(3, "c"));
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }
}
