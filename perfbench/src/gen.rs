//! The benchmark's own input generator. Inputs depend only on `--seed` and
//! this file, never on the program under test (whose RNG draws the privacy
//! noise), so a change to the program cannot change what it is fed.

/// SplitMix64 (Steele, Lea, Flood 2014): small, fast, and good enough for
/// drawing rows and directions.
pub struct Gen(u64);

impl Gen {
    /// Stream `stream` of the workload seed `seed`; distinct streams give
    /// independent inputs (rows, tasks, queries) from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// `n` rows of a product population over `biases.len()` bits: bit `b` of a
/// row's universe index is set with probability `biases[b]`.
pub fn product_rows(gen: &mut Gen, biases: &[f64], n: usize) -> Vec<usize> {
    (0..n)
        .map(|_| {
            biases
                .iter()
                .enumerate()
                .filter(|&(_, &p)| gen.unit() < p)
                .fold(0, |x, (b, _)| x | 1 << b)
        })
        .collect()
}

/// Share of `rows` whose universe index has every bit of `coords` set — the
/// true answer of a conjunction (marginal) query.
pub fn conjunction_share(rows: &[usize], coords: &[usize]) -> f64 {
    let mask = coords.iter().fold(0usize, |m, &c| m | 1 << c);
    rows.iter().filter(|&&x| x & mask == mask).count() as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Gen::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Gen::new(7, 1).next_u64(), Gen::new(7, 2).next_u64());
        assert_ne!(Gen::new(7, 1).next_u64(), Gen::new(8, 1).next_u64());
    }

    #[test]
    fn product_rows_follow_their_biases() {
        let mut g = Gen::new(3, 0);
        let rows = product_rows(&mut g, &[0.9, 0.1], 20_000);
        assert!(rows.iter().all(|&x| x < 4));
        assert!((conjunction_share(&rows, &[0]) - 0.9).abs() < 0.02);
        assert!((conjunction_share(&rows, &[1]) - 0.1).abs() < 0.02);
        assert!((conjunction_share(&rows, &[0, 1]) - 0.09).abs() < 0.02);
    }
}
