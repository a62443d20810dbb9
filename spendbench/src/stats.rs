//! The benchmark's own statistics: medians, the reported tail percentile,
//! the seeded Poisson arrival schedule, and operation accounting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Percentiles the tail metric may report, highest first. Capped at p99
/// so that the reported percentile does not change with run length once
/// a run has 1000 samples.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of a sorted slice (mean of the middle pair for even lengths).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted slice, with the number of samples
/// strictly beyond its rank.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0);
    }
    // Integer per-mille arithmetic: 0.999 * 10 000 must rank 9990, not 9991.
    let permille = (pct * 10.0).round() as usize;
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// A tail latency: the highest candidate percentile that still has at
/// least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    pub samples: usize,
}

/// The reported tail of a sorted sample (see [`Tail`]). With fewer than
/// `MIN_BEYOND + 1` samples no percentile qualifies and the maximum is
/// reported with `beyond == 0`.
pub fn tail(sorted: &[f64]) -> Tail {
    let samples = sorted.len();
    for pct in TAIL_CANDIDATES {
        let (value, beyond) = nearest_rank(sorted, pct);
        if beyond >= MIN_BEYOND {
            return Tail {
                pct,
                value,
                beyond,
                samples,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: sorted.last().copied().unwrap_or(0.0),
        beyond: 0,
        samples,
    }
}

/// Sort a sample of floats (all finite) ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Due times (ns from the start of the phase) of `n` Poisson arrivals at
/// `rate_per_s`, a pure function of `seed`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_a771_7a15);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_per_s * 1e9;
            t as u64
        })
        .collect()
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Admission refused the request before any work ran.
    Shed,
    /// Answered, but later than the latency limit.
    Late,
    /// A layer rejected the operation (validation, submit, verify, adopt…).
    Rejected,
}

/// Operations attempted and failed. Every outcome but [`Outcome::Ok`]
/// counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    pub attempted: u64,
    pub failed: u64,
}

impl Accounting {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }
}

/// Classify one served request: shed beats lateness, and an answer is
/// late when its latency from the due time exceeds `limit_ns`.
pub fn classify_request(shed: bool, latency_ns: u64, limit_ns: u64) -> Outcome {
    if shed {
        Outcome::Shed
    } else if latency_ns > limit_ns {
        Outcome::Late
    } else {
        Outcome::Ok
    }
}

/// Bytes fed to a determinism fingerprint: the first 8 bytes of their
/// SHA-256.
#[derive(Debug, Default)]
pub struct Fingerprint(Vec<u8>);

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        let digest = dams_crypto::sha256::sha256(&self.0);
        u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000));
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // More samples keep p99, with more of them beyond it.
        let t = tail(&ramp(10_000));
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 9900.0, 100));
    }

    #[test]
    fn tail_falls_back_to_a_lower_percentile_on_small_samples() {
        // 999 samples: p99 has only 9 beyond it, so p95 is reported.
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.beyond), (95.0, 49));
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&ramp(20));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        // Too few samples for any percentile: the maximum, nothing beyond.
        let t = tail(&ramp(5));
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (100.0, 5.0, 0, 5));
    }

    #[test]
    fn poisson_schedule_is_reproducible_per_seed() {
        let a = poisson_schedule(7, 2000.0, 4000);
        assert_eq!(a, poisson_schedule(7, 2000.0, 4000));
        assert_ne!(a, poisson_schedule(8, 2000.0, 4000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 4000 arrivals at 2000/s span about two seconds.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((1.8..2.2).contains(&span_s), "span {span_s}");
    }

    #[test]
    fn shed_and_over_limit_requests_count_as_failed() {
        let limit = 1_000_000;
        let mut acc = Accounting::default();
        acc.record(classify_request(false, 200_000, limit));
        acc.record(classify_request(false, limit, limit));
        acc.record(classify_request(false, limit + 1, limit));
        acc.record(classify_request(true, 10, limit));
        acc.record(Outcome::Rejected);
        assert_eq!(
            acc,
            Accounting {
                attempted: 5,
                failed: 3
            }
        );
        assert_eq!(classify_request(true, limit + 1, limit), Outcome::Shed);
    }
}
