//! Small numeric helpers: quantiles, a stable digest and a seeded generator.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between order statistics; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a (64-bit) over a byte stream: a digest that is stable across
/// platforms and releases, unlike `std`'s `DefaultHasher`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a string, length-prefixed so that field boundaries count.
    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float by its exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the seeded source of every generated input.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `stream` of `seed`: independent streams
    /// derived from one seed never share a state.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.str("ab").str("c");
        let mut b = Digest::default();
        b.str("a").str("bc");
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let (mut a, mut b) = (SplitMix::new(7, 1), SplitMix::new(7, 1));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(
            SplitMix::new(7, 1).next_u64(),
            SplitMix::new(7, 2).next_u64()
        );
    }
}
