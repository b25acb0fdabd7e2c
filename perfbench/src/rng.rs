//! The harness's own seeded generator (SplitMix64), so that inputs depend
//! only on `--seed` and never on the program under test.

/// A SplitMix64 stream. `for_item(seed, stream, i)` gives item `i` of a
/// named stream its own generator, so an op list can be drawn lazily and
/// any op reproduced from its index alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for item `i` of stream `stream` under `seed`.
    pub fn for_item(seed: u64, stream: u64, i: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let base = r.next_u64();
        Self(base ^ i.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}
