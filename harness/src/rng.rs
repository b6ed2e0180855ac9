//! The harness's own seeded randomness: a SplitMix64 stream and a Zipf
//! sampler with seed-permuted ranks.
//!
//! Owned here (rather than borrowed from the workspace's vendored `rand`
//! shim) so that one `--seed` pins the generated CQDB bytes and op streams
//! for as long as this directory is unchanged, whatever happens to the
//! shim.

/// SplitMix64: tiny, fast, and statistically fine for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`label`), so adding draws to
    /// one generator never shifts the values another one sees.
    pub fn fork(&self, label: u64) -> Rng {
        let mut mixed = Rng(self.0 ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Rng(mixed.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by widening multiply.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1.0) over `0..n`: rank `r` (1-based) has weight `1/r`, and a
/// seed-chosen permutation maps ranks to keys, so which keys are hot
/// differs per seed while the popularity curve does not.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut Rng) -> Zipf {
        assert!(n > 0, "a Zipf domain needs at least one key");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut key_of_rank: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut key_of_rank);
        Zipf { cdf, key_of_rank }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.key_of_rank[rank] as usize
    }

    /// The key at popularity rank `rank` (0 = hottest).
    pub fn key_at_rank(&self, rank: usize) -> usize {
        self.key_of_rank[rank] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            Rng::new(7).fork(1).next_u64(),
            Rng::new(7).fork(2).next_u64()
        );
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_is_skewed_and_its_hot_keys_depend_on_the_seed() {
        let mut rng = Rng::new(11);
        let zipf = Zipf::new(1000, &mut rng);
        let mut hits = vec![0usize; 1000];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        let hottest = zipf.key_at_rank(0);
        // Rank 1 carries 1/H(1000) ≈ 13% of the mass; a uniform key 0.1%.
        assert!(hits[hottest] > 2000, "hottest key drew {}", hits[hottest]);
        assert!(hits[zipf.key_at_rank(999)] < 50);
        let other = Zipf::new(1000, &mut Rng::new(12));
        assert_ne!(
            (0..10).map(|r| zipf.key_at_rank(r)).collect::<Vec<_>>(),
            (0..10).map(|r| other.key_at_rank(r)).collect::<Vec<_>>()
        );
    }
}
