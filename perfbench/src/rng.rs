//! The benchmark's only source of randomness: a splitmix64 stream seeded
//! from `--seed`. Payloads, key choice, op mix and arrival times all come
//! from here; the ORB sees only the generated inputs.

/// A splitmix64 generator: tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (payloads, schedule, ...), so
    /// adding draws to one never shifts another.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut child = Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-32 for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in the half-open interval (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// Printable ASCII without `"` and `\`, so the text protocol's string
    /// escapes never change a payload's wire length.
    pub fn ascii(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| loop {
                let c = b' ' + self.below(95) as u8;
                if c != b'"' && c != b'\\' {
                    break c as char;
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams_and_forks_differ() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.ascii(96), b.ascii(96));
        assert_ne!(Rng::new(7).fork(1).next_u64(), Rng::new(7).fork(2).next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut r = Rng::new(3);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean {mean}");
    }
}
