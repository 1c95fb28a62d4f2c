//! Order statistics and the output digest.

/// Median of `xs` (mean of the two middle values for even lengths); 0
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `xs` (a quarter cut
/// from each end, rounded down). It averages like a mean and ignores
/// outliers like a median; 0 for an empty slice.
pub fn iq_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// 64-bit FNV-1a over a canonical byte rendering of a program output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Hash the exact bits, so a digest match means bit-identical values.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iq_mean(&[]), 0.0);
        assert_eq!(iq_mean(&[5.0]), 5.0);
        assert_eq!(iq_mean(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 100.0);
        assert_eq!(quantile(&xs, 0.95), 190.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = Digest::new().u64(1).f64(0.5).hex();
        assert_eq!(a, Digest::new().u64(1).f64(0.5).hex());
        assert_ne!(a, Digest::new().f64(0.5).u64(1).hex());
        assert_ne!(Digest::new().f64(0.0).hex(), Digest::new().f64(-0.0).hex());
    }
}
