//! Sample statistics computed from the benchmark's own raw samples, and the
//! seeded generator every workload draws its inputs from.

/// SplitMix64: a small, seedable generator. Equal seeds give equal streams,
/// which is all the workloads need from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut rng = Rng(seed);
        for b in stream.bytes() {
            rng.0 ^= u64::from(b);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or 0 for no samples (an idle layer).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency tail: in each block of `block` consecutive samples, the
/// highest percentile that still has at least ten samples beyond it, so one
/// outlier cannot set it; the median over blocks when there are several.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    /// Samples per block.
    pub samples: usize,
    /// Blocks the median was taken over.
    pub blocks: usize,
}

/// Samples past the last whole block are left out. A block needs at least
/// 11 samples; with fewer (smoke-test sizes) the maximum stands in, at
/// percentile 100.
pub fn tail(samples: &[f64], block: usize) -> Tail {
    let block = block.min(samples.len()).max(1);
    let rank = if block < 11 { block - 1 } else { block - 11 };
    let values: Vec<f64> = samples
        .chunks_exact(block)
        .map(|c| sorted(c)[rank])
        .collect();
    Tail {
        value: median(&values),
        percentile: 100.0 * (rank + 1) as f64 / block as f64,
        samples: block,
        blocks: values.len(),
    }
}

/// Geometric mean of positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_use_raw_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&samples, 100);
        // Ten samples (31..=40) lie beyond the reported one.
        assert_eq!(
            (t.value, t.percentile, t.samples, t.blocks),
            (30.0, 75.0, 40, 1)
        );
        // Two blocks of 20: ranks 9 of 1..=20 and of 21..=40, then their median.
        let t = tail(&samples, 20);
        assert_eq!(
            (t.value, t.percentile, t.samples, t.blocks),
            (20.0, 50.0, 20, 2)
        );
        assert_eq!(tail(&[2.0, 1.0], 100).value, 2.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
    }
}
