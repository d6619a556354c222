use ntc_trace::{CorrelationCache, TimeSeries};
use ntc_units::Frequency;

use crate::Error;

/// Tombstone for a pool entry already placed on the open server.
const PLACED: usize = usize::MAX;

/// Algorithm 1 of the paper: the 1-D (CPU-only) correlation-aware
/// first-fit-decreasing allocator used when CPU dominates.
///
/// Servers are filled one at a time. An empty server receives the first
/// unallocated VM unconditionally; afterwards the allocator repeatedly
/// computes the server's *complementary pattern* `max(Patt) − Patt` and
/// admits the unallocated VM with the highest Pearson correlation φ to
/// that pattern, subject to the frequency-cap feasibility
/// `max(Patt + Ũ) · Fmax ≤ Fopt` (i.e. the aggregated load must stay
/// below `Fopt/Fmax` of capacity). When no VM fits, the next server is
/// opened.
///
/// # Exact pruning
///
/// The candidate scan skips work it can prove changes nothing. Let
/// `limit = cap + 1e-9` (the feasibility test is
/// `peak_of_sum(Patt, Ũ) > limit`), `P`/`F` the pattern's peak and
/// floor and `p` a candidate's peak, all read once per scan. Float
/// addition rounds monotonically (`a ≤ a'` and `b ≤ b'` give
/// `fl(a + b) ≤ fl(a' + b')`), which yields two proofs:
///
/// * **feasible without the O(L) pass** when `P + p ≤ limit`: every
///   sample sum is `fl(Patt[t] + Ũ[t]) ≤ fl(P + p) ≤ limit`;
/// * **infeasible without looking** when `p > 0` and `F + p > limit`:
///   `p > 0` is attained at some sample `t*`, and
///   `fl(Patt[t*] + p) ≥ fl(F + p) > limit`.
///
/// The pool is sorted by descending peak, so the infeasible candidates
/// of the second proof form a prefix of it, found by binary search.
/// A VM admitted to the open server is tombstoned in place rather than
/// removed, and the tombstones are swept out in one order-preserving
/// pass when the next server opens, so the relative order of the
/// unplaced VMs never changes. The scan therefore visits the same
/// feasible candidates in the same order as the unpruned scan, and the
/// strict `φ > best` comparison keeps the earliest of equal scores just
/// as it does there. Assignments are identical bit for bit.
///
/// # Examples
///
/// ```
/// use ntc_core::OneDimAllocator;
/// use ntc_trace::TimeSeries;
/// use ntc_units::Frequency;
///
/// let cpu = vec![TimeSeries::constant(4, 30.0); 4];
/// let alloc = OneDimAllocator::new(Frequency::from_ghz(1.9), Frequency::from_ghz(3.1));
/// let assignment = alloc.allocate(&cpu);
/// // cap = 1.9/3.1 ~ 61.3% -> two 30% VMs per server
/// assert_eq!(assignment.iter().filter(|&&s| s == 0).count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneDimAllocator {
    fopt: Frequency,
    fmax: Frequency,
}

impl OneDimAllocator {
    /// Creates the allocator for a slot whose target frequency is
    /// `fopt` on servers with maximum frequency `fmax`.
    ///
    /// # Errors
    ///
    /// Returns an error if `fopt` is zero or exceeds `fmax`.
    pub fn try_new(fopt: Frequency, fmax: Frequency) -> Result<Self, Error> {
        if fopt <= Frequency::ZERO || fopt > fmax {
            return Err(Error::InvalidFrequencyTarget { fopt, fmax });
        }
        Ok(Self { fopt, fmax })
    }

    /// Creates the allocator, panicking on an invalid frequency pair.
    ///
    /// Thin wrapper over [`OneDimAllocator::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if `fopt` is zero or exceeds `fmax`.
    #[track_caller]
    pub fn new(fopt: Frequency, fmax: Frequency) -> Self {
        match Self::try_new(fopt, fmax) {
            Ok(alloc) => alloc,
            Err(e) => panic!("{e}"),
        }
    }

    /// The CPU cap implied by the frequency pair, percent of capacity at
    /// `Fmax`.
    pub fn cap_cpu(&self) -> f64 {
        self.fopt.ratio(self.fmax) * 100.0
    }

    /// Allocates every VM, returning `assignment[vm] = server index`.
    ///
    /// VMs are visited in first-fit-*decreasing* order of peak CPU (the
    /// paper's FFD choice), but the returned vector is indexed by the
    /// original VM order.
    ///
    /// # Panics
    ///
    /// Panics if `predicted_cpu` is empty or series lengths differ.
    pub fn allocate(&self, predicted_cpu: &[TimeSeries]) -> Vec<usize> {
        let mut cache = CorrelationCache::new(predicted_cpu);
        self.allocate_with_cache(predicted_cpu, &mut cache)
    }

    /// [`allocate`](Self::allocate) against a caller-provided
    /// correlation cache — the form `ntc_core::Epact` uses so a
    /// day-level cache attached to the slot context is reused instead
    /// of rebuilding Pearson terms per slot.
    ///
    /// # Panics
    ///
    /// Panics if `predicted_cpu` is empty, series lengths differ, or
    /// `cache` covers a different number of series.
    pub fn allocate_with_cache(
        &self,
        predicted_cpu: &[TimeSeries],
        cache: &mut CorrelationCache<'_>,
    ) -> Vec<usize> {
        assert!(!predicted_cpu.is_empty(), "no VMs to allocate");
        let slot_len = predicted_cpu[0].len();
        assert!(
            predicted_cpu.iter().all(|s| s.len() == slot_len),
            "all series must cover the same slot"
        );
        assert_eq!(
            cache.num_series(),
            predicted_cpu.len(),
            "cache must cover every VM"
        );
        let limit = self.cap_cpu() + 1e-9;

        // First-fit-decreasing pool of `(peak, vm)`, sorted by
        // descending peak. A VM placed on the open server is tombstoned
        // in place (`vm = PLACED`); the pool is compacted when the next
        // server opens, so the order never changes.
        let mut pool: Vec<(f64, usize)> = predicted_cpu
            .iter()
            .map(TimeSeries::peak)
            .zip(0..)
            .collect();
        pool.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite utilizations"));
        let mut unplaced = pool.len();

        let mut assignment = vec![usize::MAX; predicted_cpu.len()];
        let mut server = 0usize;
        let mut pattern = TimeSeries::zeros(slot_len);
        // Pairwise Pearson terms are shared by every candidate scan of
        // the slot; the running accumulator turns each φ query into
        // O(1) instead of an O(len) pass over a materialized
        // complement.
        let mut stats = cache.pattern();
        let mut server_empty = true;

        while unplaced > 0 {
            let pos = if server_empty {
                // Line 4-6: first unallocated VM goes in unconditionally.
                Some(0)
            } else {
                // Lines 8-12: best VM by correlation with the server's
                // complementary pattern, subject to the frequency cap.
                let (peak, floor) = (pattern.peak(), pattern.floor());
                let infeasible = pool.partition_point(|&(p, _)| p > 0.0 && floor + p > limit);
                let mut best: Option<(usize, f64)> = None;
                for (pos, &(p, vm)) in pool.iter().enumerate().skip(infeasible) {
                    if vm == PLACED
                        || (peak + p > limit && pattern.peak_of_sum(&predicted_cpu[vm]) > limit)
                    {
                        continue;
                    }
                    let phi = stats.complement_correlation(cache, vm);
                    if best.is_none_or(|(_, b)| phi > b) {
                        best = Some((pos, phi));
                    }
                }
                best.map(|(pos, _)| pos)
            };
            match pos {
                Some(pos) => {
                    let vm = std::mem::replace(&mut pool[pos].1, PLACED);
                    unplaced -= 1;
                    pattern.add_in_place(&predicted_cpu[vm]);
                    stats.admit(cache, vm);
                    assignment[vm] = server;
                    server_empty = false;
                }
                None => {
                    // Line 14: open the next server.
                    server += 1;
                    pattern.reset_zeros(slot_len);
                    stats.reset();
                    pool.retain(|&(_, vm)| vm != PLACED);
                    server_empty = true;
                }
            }
        }
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_trace::DayCache;
    use proptest::prelude::*;

    /// Algorithm 1 as the paper states it, with no pruning: every
    /// candidate gets the O(L) feasibility pass and admitted VMs are
    /// removed from the pool. The oracle the pruned scan must match.
    fn naive_allocate(
        alloc: &OneDimAllocator,
        predicted_cpu: &[TimeSeries],
        cache: &mut CorrelationCache<'_>,
    ) -> Vec<usize> {
        let cap = alloc.cap_cpu();
        let slot_len = predicted_cpu[0].len();
        let mut pool: Vec<usize> = (0..predicted_cpu.len()).collect();
        pool.sort_by(|&a, &b| {
            predicted_cpu[b]
                .peak()
                .partial_cmp(&predicted_cpu[a].peak())
                .expect("finite utilizations")
        });
        let mut assignment = vec![usize::MAX; predicted_cpu.len()];
        let mut server = 0usize;
        let mut pattern = TimeSeries::zeros(slot_len);
        let mut stats = cache.pattern();
        let mut server_empty = true;
        while !pool.is_empty() {
            let pos = if server_empty {
                Some(0)
            } else {
                let mut best: Option<(usize, f64)> = None;
                for (pos, &vm) in pool.iter().enumerate() {
                    if pattern.peak_of_sum(&predicted_cpu[vm]) > cap + 1e-9 {
                        continue;
                    }
                    let phi = stats.complement_correlation(cache, vm);
                    if best.is_none_or(|(_, b)| phi > b) {
                        best = Some((pos, phi));
                    }
                }
                best.map(|(pos, _)| pos)
            };
            match pos {
                Some(pos) => {
                    let vm = pool.remove(pos);
                    pattern.add_in_place(&predicted_cpu[vm]);
                    stats.admit(cache, vm);
                    assignment[vm] = server;
                    server_empty = false;
                }
                None => {
                    server += 1;
                    pattern.reset_zeros(slot_len);
                    stats.reset();
                    server_empty = true;
                }
            }
        }
        assignment
    }

    /// Samples per slot and slots per day of the equivalence fixtures.
    const SLOT: usize = 6;
    const SLOTS: usize = 3;

    /// A day of VM series mixing the shapes the pruning proofs must get
    /// right: wiggly loads, loads above the cap, constant series (σ = 0),
    /// all-zero series (peak 0), series dipping below zero (whose clamped
    /// peak 0 is not attained), and exact duplicates of the previous VM
    /// (φ ties).
    fn day_fleet() -> impl Strategy<Value = Vec<TimeSeries>> {
        prop::collection::vec(
            (
                0usize..7,
                0.0f64..95.0,
                prop::collection::vec(0.0f64..40.0, SLOT * SLOTS),
            ),
            1..28,
        )
        .prop_map(|vms| {
            let mut out: Vec<TimeSeries> = Vec::with_capacity(vms.len());
            for (kind, level, wiggle) in vms {
                let series = match (kind, out.last()) {
                    (0, _) => TimeSeries::constant(SLOT * SLOTS, level),
                    (1, _) => TimeSeries::zeros(SLOT * SLOTS),
                    (2, Some(prev)) => prev.clone(),
                    (3, _) => {
                        TimeSeries::from_values(wiggle.iter().map(|w| level * 0.6 + w).collect())
                    }
                    (4, _) => {
                        TimeSeries::from_values(wiggle.iter().map(|w| w - level * 0.6).collect())
                    }
                    _ => TimeSeries::from_values(wiggle),
                };
                out.push(series);
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn pruned_scan_matches_naive_algorithm_1(
            day in day_fleet(),
            fopt_ghz in 0.6f64..3.1,
            slot in 0usize..SLOTS,
        ) {
            let alloc = OneDimAllocator::new(ghz(fopt_ghz), ghz(3.1));
            let window = slot * SLOT..(slot + 1) * SLOT;
            let cpu: Vec<TimeSeries> = day.iter().map(|s| s.window(window.clone())).collect();

            // An owned cache per slot.
            let pruned = alloc.allocate(&cpu);
            let naive = naive_allocate(&alloc, &cpu, &mut CorrelationCache::new(&cpu));
            prop_assert_eq!(&pruned, &naive, "owned cache");

            // A one-block window of a day cache, and the whole day as a
            // multi-block window.
            let cache = DayCache::with_block_size(&day, SLOT);
            for (series, window) in [(&cpu, window), (&day, 0..SLOT * SLOTS)] {
                let pruned = alloc.allocate_with_cache(
                    series,
                    &mut CorrelationCache::from_day_window(&cache, window.clone()),
                );
                let naive = naive_allocate(
                    &alloc,
                    series,
                    &mut CorrelationCache::from_day_window(&cache, window.clone()),
                );
                prop_assert_eq!(&pruned, &naive, "day window {:?}", window);
            }
        }
    }

    fn ghz(g: f64) -> Frequency {
        Frequency::from_ghz(g)
    }

    fn alloc() -> OneDimAllocator {
        OneDimAllocator::new(ghz(1.9), ghz(3.1))
    }

    #[test]
    fn cap_matches_frequency_ratio() {
        assert!((alloc().cap_cpu() - 100.0 * 1.9 / 3.1).abs() < 1e-9);
    }

    #[test]
    fn respects_the_cap() {
        let cpu = vec![TimeSeries::constant(6, 25.0); 8];
        let a = alloc().allocate(&cpu);
        // cap 61.29% -> 2 VMs of 25% per server (3 would be 75%)
        let mut counts = std::collections::HashMap::new();
        for &s in &a {
            *counts.entry(s).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c <= 2));
        assert_eq!(counts.len(), 4);
    }

    #[test]
    fn prefers_anti_correlated_vms() {
        // Two day-peaking and two night-peaking VMs; the cap admits any
        // pair, but correlation matching must pair day with night.
        let day = TimeSeries::from_values(vec![30.0, 30.0, 5.0, 5.0]);
        let night = TimeSeries::from_values(vec![5.0, 5.0, 30.0, 30.0]);
        let cpu = vec![day.clone(), day, night.clone(), night];
        let a = alloc().allocate(&cpu);
        // VM 0 (day) must share with a night VM, not with VM 1.
        assert_eq!(a[0], a[2], "day+night must co-locate: {a:?}");
        assert_eq!(a[1], a[3], "the other pair likewise: {a:?}");
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn oversized_vm_still_gets_a_server() {
        // A VM above the cap is admitted into an empty server
        // unconditionally (Alg. 1 lines 3-6).
        let cpu = vec![TimeSeries::constant(4, 90.0), TimeSeries::constant(4, 10.0)];
        let a = alloc().allocate(&cpu);
        assert_ne!(a[0], a[1], "the 90% VM must be alone");
    }

    #[test]
    fn single_vm() {
        let cpu = vec![TimeSeries::constant(4, 3.0)];
        assert_eq!(alloc().allocate(&cpu), vec![0]);
    }

    #[test]
    fn ffd_order_packs_tight() {
        // Mixed sizes: FFD should not strand big VMs.
        let sizes = [50.0, 10.0, 10.0, 50.0, 10.0, 10.0];
        let cpu: Vec<TimeSeries> = sizes.iter().map(|&v| TimeSeries::constant(4, v)).collect();
        let a = alloc().allocate(&cpu);
        let servers = a.iter().collect::<std::collections::HashSet<_>>().len();
        // cap 61.29: {50,10} {50,10} {10,10} = 3 servers is optimal
        assert!(servers <= 3, "FFD should need <= 3 servers, used {servers}");
    }
}
