//! Streaming census aggregation: compact, mergeable sketches.
//!
//! A population census never materializes per-cell results — each shard
//! folds its cells into a [`CensusSketch`] and shards merge at the end.
//! For that to be trustworthy at a million rows, the merge must be an
//! *exact* commutative monoid: every field is an integer counter (sums
//! commute and associate bit-for-bit; there is no float anywhere), so
//! `merge(a, b)` equals aggregating the union of the underlying cells
//! no matter how the cells were split across shards or threads. The
//! property tests in `tests/population.rs` pin this down.
//!
//! Virtual-time latency distributions use a [`LatencySketch`]: a fixed
//! table of logarithmic buckets (exact below [`LatencySketch::LINEAR`],
//! then 16 sub-buckets per power of two, ≤ 1/16 relative width) in the
//! style of HdrHistogram. Bucket counts merge by addition, so quantile
//! queries after any merge order return identical values.

use crate::FleetCensus;
use v6testbed::os_profiles;
use v6testbed::scenario::{CellObservation, CellSpec, FaultVariant};
use v6wire::clamp;

/// Nearest-rank quantile over an already-sorted slice.
///
/// The edge cases are explicit (they were latent in the original
/// percentile fold): an empty slice reports `0`, a single element is
/// every quantile of itself, and the computed rank is clamped into
/// `[1, len]` so no float rounding of `len * q` can index out of range.
/// The rank arithmetic is [`clamp::nearest_rank_index`] — the single
/// copy this path, the bucketed sketch, and the DNS TTL caches share.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    match clamp::nearest_rank_index(sorted.len(), q) {
        Some(i) => sorted[i],
        None => 0,
    }
}

/// Fixed-bucket logarithmic histogram of `u64` samples with exact
/// `count`/`min`/`max` and nearest-rank quantile queries.
///
/// Values below [`LatencySketch::LINEAR`] are recorded exactly; above
/// that, each power of two splits into 16 sub-buckets, so a reported
/// quantile is the upper bound of the true value's bucket — at most
/// 1/16 above it. All state is integer counts: merging two sketches is
/// exact element-wise addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySketch {
    counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        LatencySketch::new()
    }
}

impl LatencySketch {
    /// Values below this are bucketed exactly (one bucket per value).
    pub const LINEAR: u64 = 16;
    /// Sub-buckets per power of two above the linear range.
    const SUB: usize = 16;
    /// Bucket count: 16 linear + 16 per remaining power of two. The
    /// last representable msb is 63, giving index (63-3)*16 + 15 = 975.
    const BUCKETS: usize = 976;

    /// An empty sketch.
    pub fn new() -> LatencySketch {
        LatencySketch {
            counts: vec![0; Self::BUCKETS],
            count: 0,
            min: 0,
            max: 0,
        }
    }

    /// The bucket index of `v`. Monotone in `v`, so ranks over bucket
    /// counts line up with ranks over the raw samples.
    fn bucket(v: u64) -> usize {
        if v < Self::LINEAR {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (msb - 4)) & 0xF) as usize;
        (msb - 3) * Self::SUB + sub
    }

    /// The largest value that lands in bucket `i` — the representative
    /// a quantile query reports (conservative: never below the true
    /// sample, at most 1/16 above it).
    fn bucket_high(i: usize) -> u64 {
        if i < Self::LINEAR as usize {
            return i as u64;
        }
        let msb = i / Self::SUB + 3;
        let sub = (i % Self::SUB) as u64;
        let width = 1u64 << (msb - 4);
        ((Self::SUB as u64 + sub) * width).wrapping_add(width - 1)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
    }

    /// A point-in-time copy of the live sketch. This is the read side
    /// of the streaming API: a concurrent reader (the daemon's
    /// `/metrics` endpoint) takes the lock, snapshots, releases — no
    /// serialize/re-parse round trip, and the writer's sketch is never
    /// consumed or disturbed.
    pub fn snapshot(&self) -> LatencySketch {
        self.clone()
    }

    /// The standard `p50`/`p90`/`p99`/`max` row of this sketch.
    pub fn percentiles(&self) -> SketchPercentiles {
        SketchPercentiles::of(self)
    }

    /// Fold `other` into `self` by reference: exact element-wise
    /// addition, so the result is independent of merge order and
    /// grouping. The source is untouched — a worker can publish its
    /// shard sketch into a shared live accumulator and still hand the
    /// same sketch to the final deterministic merge.
    pub fn merge_from(&mut self, other: &LatencySketch) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// holding the rank-`ceil(q·count)` sample (clamped to `[1, count]`;
    /// `0` on an empty sketch, the sample itself on a one-element
    /// sketch). Never below the exact nearest-rank value and at most
    /// 1/16 above it — the exact-vs-sketch test pins both bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(idx) = clamp::nearest_rank_index(self.count as usize, q) else {
            return 0;
        };
        let rank = idx as u64 + 1;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The max is exact; don't report a bucket bound beyond it.
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// FNV-1a digest over the full bucket table plus count/min/max —
    /// pins the entire recorded distribution, not just the quantiles a
    /// report happens to surface.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.count);
        eat(self.min);
        eat(self.max);
        for &c in &self.counts {
            eat(c);
        }
        h
    }
}

/// The `p50`/`p90`/`p99`/`max` row a population report surfaces from a
/// [`LatencySketch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchPercentiles {
    /// Median (nearest-rank, sketch resolution).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum (exact).
    pub max: u64,
}

impl SketchPercentiles {
    /// Read the standard row off a sketch.
    pub fn of(s: &LatencySketch) -> SketchPercentiles {
        SketchPercentiles {
            p50: s.quantile(0.50),
            p90: s.quantile(0.90),
            p99: s.quantile(0.99),
            max: s.max,
        }
    }
}

/// The streaming aggregate of a (shard of a) population census: census
/// counters, per-OS and per-fault breakdowns, and virtual-time latency
/// sketches. Every field is an integer count, so
/// [`CensusSketch::merge_from`] is exactly associative and commutative,
/// and folding cells shard by shard equals folding them all in one pass
/// — the algebra the population determinism guarantees stand on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusSketch {
    /// Cells folded in so far.
    pub samples: u64,
    /// Fleet-wide census counters.
    pub census: FleetCensus,
    /// Per-OS census rows, indexed by `OsProfileId` (interned table
    /// order, fixed length).
    pub by_os: Vec<FleetCensus>,
    /// Cells per fault variant, indexed by [`FaultVariant::index`].
    pub fault_mix: [u64; FaultVariant::ALL.len()],
    /// Distribution of virtual completion times (µs).
    pub completed_us: LatencySketch,
    /// Distribution of engine events per cell.
    pub events: LatencySketch,
}

impl Default for CensusSketch {
    fn default() -> Self {
        CensusSketch::new()
    }
}

impl CensusSketch {
    /// An empty sketch sized to the interned profile table.
    pub fn new() -> CensusSketch {
        CensusSketch {
            samples: 0,
            census: FleetCensus::default(),
            by_os: vec![FleetCensus::default(); os_profiles().len()],
            fault_mix: [0; FaultVariant::ALL.len()],
            completed_us: LatencySketch::new(),
            events: LatencySketch::new(),
        }
    }

    /// Fold one observed cell into the sketch.
    pub fn fold(&mut self, spec: CellSpec, obs: CellObservation) {
        self.samples += 1;
        self.census.count(&obs);
        self.by_os[spec.os.0 as usize].count(&obs);
        self.fault_mix[spec.fault.index()] += 1;
        self.completed_us.record(obs.completed_us);
        self.events.record(obs.events);
    }

    /// A point-in-time copy of the live census. Plain element-wise
    /// copies of integer tables — the streaming `/metrics` endpoint
    /// snapshots under its lock instead of serializing the sketch and
    /// re-parsing it on the read side.
    pub fn snapshot(&self) -> CensusSketch {
        self.clone()
    }

    /// Fold another shard's sketch into this one by reference. Pure
    /// integer sums — associative, commutative, and equal to having
    /// folded the union of cells directly. The source sketch is left
    /// intact, so a shard can be published into a live accumulator
    /// *and* merged into the final report without cloning.
    pub fn merge_from(&mut self, other: &CensusSketch) {
        assert_eq!(
            self.by_os.len(),
            other.by_os.len(),
            "sketches must come from the same profile table"
        );
        self.samples += other.samples;
        self.census.add(&other.census);
        for (a, b) in self.by_os.iter_mut().zip(&other.by_os) {
            a.add(b);
        }
        for (a, b) in self.fault_mix.iter_mut().zip(&other.fault_mix) {
            *a += b;
        }
        self.completed_us.merge_from(&other.completed_us);
        self.events.merge_from(&other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_bounded() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            1 << 30,
            u64::MAX,
        ] {
            let b = LatencySketch::bucket(v);
            assert!(b >= prev, "bucket({v}) went backwards");
            assert!(b < LatencySketch::BUCKETS);
            assert!(
                LatencySketch::bucket_high(b) >= v || b == LatencySketch::BUCKETS - 1,
                "upper bound of bucket({v}) below the value"
            );
            prev = b;
        }
    }

    #[test]
    fn quantile_edge_cases_empty_single_pair() {
        let s = LatencySketch::new();
        assert_eq!((s.quantile(0.5), s.quantile(0.99), s.max), (0, 0, 0));
        let mut one = LatencySketch::new();
        one.record(7);
        assert_eq!(one.quantile(0.50), 7);
        assert_eq!(one.quantile(0.99), 7);
        assert_eq!((one.min, one.max), (7, 7));
        let mut two = LatencySketch::new();
        two.record(3);
        two.record(9);
        assert_eq!(two.quantile(0.50), 3, "rank ceil(2*0.5)=1 → first");
        assert_eq!(two.quantile(0.90), 9);
        assert_eq!(nearest_rank(&[3, 9], 0.5), 3);
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    #[test]
    fn snapshot_is_a_detached_point_in_time_copy() {
        let mut live = LatencySketch::new();
        live.record(10);
        let snap = live.snapshot();
        live.record(20);
        assert_eq!((snap.count, snap.max), (1, 10), "snapshot is frozen");
        assert_eq!((live.count, live.max), (2, 20), "live keeps recording");
        assert_eq!(snap.percentiles().p50, 10);
        // merge_from leaves the source intact for the final merge path.
        let mut acc = LatencySketch::new();
        acc.merge_from(&live);
        assert_eq!(acc, live);
        let mut census = CensusSketch::new();
        let frozen = census.snapshot();
        census.samples += 1;
        assert_eq!(frozen.samples, 0);
        assert_eq!(census.snapshot().samples, 1);
    }

    #[test]
    fn merge_equals_union_for_latency_sketches() {
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 31 + 7) % 100_000).collect();
        let mut whole = LatencySketch::new();
        let mut left = LatencySketch::new();
        let mut right = LatencySketch::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 3 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        let mut merged = left.clone();
        merged.merge_from(&right);
        assert_eq!(merged, whole);
        assert_eq!(merged.digest(), whole.digest());
        // Commutes too.
        let mut flipped = right.clone();
        flipped.merge_from(&left);
        assert_eq!(flipped, whole);
    }
}
