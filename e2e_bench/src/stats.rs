//! The benchmark's own arithmetic: medians, the tail percentile, a
//! seeded generator for workload choices and the input digest.

/// Percentiles the tail is chosen from, ascending. Capped at p99:
/// beyond it a 10-second run on a shared host measures scheduler
/// hiccups, not the program, and the run-to-run spread at p99.95 was
/// several times any usable bound.
const TAIL_CANDIDATES: [f64; 7] = [50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank_index(p: f64, n: usize) -> usize {
    // The epsilon keeps an exact product (99% of 1000) from rounding up.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its rank, for `n` samples. Falls back to the
/// median when the sample is too small for any.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank_index(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A latency summary: median and the chosen tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

/// Consecutive blocks the tail is read in, once there are enough samples.
const TAIL_BLOCKS: usize = 5;

/// Summarizes latency samples given in time order. The tail percentile
/// is chosen on the whole sample; its value is the median of that
/// percentile over [`TAIL_BLOCKS`] consecutive blocks, so one burst of
/// host contention moves one block's tail, not the result.
pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    if n == 0 {
        return Summary {
            n,
            p50: f64::NAN,
            tail_pct: 50.0,
            tail: f64::NAN,
        };
    }
    let tail_pct = tail_percentile(n);
    let at = |block: &[f64]| {
        let mut b = block.to_vec();
        b.sort_by(f64::total_cmp);
        b[rank_index(tail_pct, b.len())]
    };
    let tail = if n >= 20 * TAIL_BLOCKS {
        let tails: Vec<f64> = samples.chunks(n.div_ceil(TAIL_BLOCKS)).map(at).collect();
        median(&tails)
    } else {
        at(samples)
    };
    Summary {
        n,
        p50: median(samples),
        tail_pct,
        tail,
    }
}

/// Samples a [`Samples`] record holds (1 MiB of `f64`).
pub const SAMPLE_CAPACITY: usize = 1 << 17;

/// Latency samples in time order, held in a fixed buffer so that the
/// benchmark's own memory does not grow with throughput: a faster
/// program would otherwise record more samples and read as a larger
/// `peak_rss_mb`. The buffer is written through when first used, so its
/// pages are resident from then on. When it fills, every other sample
/// is dropped and only every other later one is kept, which thins the
/// record uniformly over the whole run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    kept: Vec<f64>,
    /// One sample in `stride` is kept.
    stride: u64,
    seen: u64,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        if self.stride == 0 {
            self.kept = vec![f64::NAN; SAMPLE_CAPACITY];
            self.kept.clear();
            self.stride = 1;
        }
        self.seen += 1;
        if !self.seen.is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == SAMPLE_CAPACITY {
            // Kept sample `i` is the `(i + 1) * stride`-th seen; those at
            // odd `i` are the multiples of the doubled stride.
            let mut j = 0;
            for i in (1..self.kept.len()).step_by(2) {
                self.kept[j] = self.kept[i];
                j += 1;
            }
            self.kept.truncate(j);
            self.stride *= 2;
            if !self.seen.is_multiple_of(self.stride) {
                return;
            }
        }
        self.kept.push(x);
    }

    /// The kept samples, in time order.
    pub fn as_slice(&self) -> &[f64] {
        &self.kept
    }

    /// Samples pushed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        f64::NAN
    } else {
        median_sorted(&s)
    }
}

/// SplitMix64: the benchmark's own seeded generator for workload
/// choices (which page to query, which class to update).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent seed for one part of a workload's inputs.
pub fn sub_seed(seed: u64, part: u64) -> u64 {
    Rng::new(seed ^ part.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// FNV-1a digest of the generated inputs, so a run records exactly
/// which inputs it measured.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn capture(&mut self, c: &tlsfp::net::capture::Capture) {
        self.u64(c.packets.len() as u64);
        for p in &c.packets {
            self.u64(p.timestamp_us);
            self.u64(u64::from(u32::from(p.src)) << 32 | u64::from(u32::from(p.dst)));
            self.u64(u64::from(p.payload_len));
        }
    }

    pub fn seq(&mut self, s: &tlsfp::nn::seq::SeqInput) {
        self.u64(s.steps() as u64);
        for &x in s.as_slice() {
            self.u64(u64::from(x.to_bits()));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(tail_percentile(100_000), 99.0);
        // Too few samples for any tail: the median.
        assert_eq!(tail_percentile(10), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in 1..5000 {
            let p = tail_percentile(n);
            if p > 50.0 {
                assert!(n - 1 - rank_index(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reads_the_chosen_rank() {
        // Few samples: the pooled rank. Rank 90 of 1..=99 leaves nine
        // beyond, so p80 (rank 80, nineteen beyond) is the tail.
        let samples: Vec<f64> = (1..=99).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (99, 50.0, 80.0, 80.0));

        // Five blocks of 1..=20: each block's p90 is 18, as is the
        // pooled p90 (rank 90 of 100 leaves ten beyond).
        let block: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let steady: Vec<f64> = block.iter().cycle().take(100).copied().collect();
        let s = summarize(&steady);
        assert_eq!((s.tail_pct, s.tail), (90.0, 18.0));

        // One block inflated by a burst: the pooled p90 would read
        // 1000+; the block median still reads 18.
        let mut burst = steady.clone();
        burst[80..].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(summarize(&burst).tail, 18.0);
    }

    #[test]
    fn samples_thin_uniformly_in_a_fixed_buffer() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(f64::from(x));
        }
        assert_eq!(s.as_slice().len(), 100);
        // Three buffers' worth: thinned twice, keeping every fourth.
        let n = 3 * SAMPLE_CAPACITY as u64;
        let mut s = Samples::default();
        for x in 1..=n {
            s.push(x as f64);
        }
        let kept = s.as_slice();
        assert_eq!(kept.len(), 3 * SAMPLE_CAPACITY / 4);
        assert!(kept.len() <= SAMPLE_CAPACITY);
        for (i, &x) in kept.iter().enumerate() {
            assert_eq!(x, 4.0 * (i + 1) as f64);
        }
        assert_eq!(s.seen(), n);
        let full = median(&(1..=n).map(|x| x as f64).collect::<Vec<_>>());
        assert!((median(kept) - full).abs() / full < 1e-4);
    }

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(1).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
