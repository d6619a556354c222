//! Cross-cell memoization for the sweep engine: plan dedup over the
//! static-power axis and day-forecast sharing across policies.
//!
//! Cells of one sweep differ along six axes, but three of them often
//! do not change what a policy *plans*:
//!
//! * the QoS floor only shapes the online replay, never the plan;
//! * the accounting backend only prices governed slots (the
//!   conservation contract of [`crate::backend`]); its planning
//!   fingerprint is folded into the key and is empty for both
//!   built-ins, so `analytic` and `archsim` arms share plan groups —
//!   and day-ahead forecasts, which depend on the fleet and predictor
//!   alone;
//! * a static-power scale changes the plan only through the quantities
//!   the policy actually derives from the power model (`F_NTC_opt`, the
//!   DVFS table, full-load powers). When those coincide across scales —
//!   always for COAT, which plans purely at `Fmax` — the packing work
//!   is identical and can be shared.
//!
//! [`PlanCache`] therefore keys plan groups on the *planning inputs*: a
//! bit-pattern fingerprint of exactly the model-derived numbers each
//! policy reads while allocating, alongside the fleet, policy, ablation
//! and server budget. Cells with equal fingerprints share one
//! `OnceLock<Arc<SlotPlan>>` per evaluation slot (the same pattern as
//! the engine's fleet cache): the first worker to reach a slot plans
//! it, everyone else reuses the `Arc`. Initialization is a pure
//! function of the spec, so the race winner cannot change any result.
//!
//! [`ForecastCache`] does the same one level up for predictor sweeps:
//! the day-ahead forecast depends only on the fleet and the (spec-wide)
//! predictor, so all policy/server/scale/floor arms over one fleet
//! share one [`DayForecast`] per day. A day is filled per series rather
//! than under one lock: it holds one `OnceLock` per series (the CPU
//! series of every VM, then the memory series) and a claim cursor.
//! Every cell that needs the day claims series off the cursor and
//! forecasts them, then walks all slots, waiting for series other
//! cells still have in flight and recomputing any whose claimant
//! panicked. Cells that arrive together therefore split the day's
//! forecasts between them instead of one computing while the others
//! wait. Each series is a pure function of (fleet, VM, day,
//! predictor), so which cell computed it cannot change a bit, and it is
//! stored once, in the shared day.
//!
//! [`CacheStats`] counts hits and misses; `ntcdc sweep --cache-stats`
//! prints the totals. Every shared lookup goes through [`cached`]: the
//! call that initializes a lock is the miss, every other one a hit.
//! That gives each plan slot one miss, and each (fleet, day) one
//! forecast miss, charged to the first cell to complete the day.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use ntc_core::SlotPlan;
use ntc_power::{DataCenterPowerModel, ServerPowerModel};
use ntc_trace::TimeSeries;
use ntc_units::Percent;

use crate::engine::{CellSpec, ExperimentSpec, FleetSpec, PolicySpec};

/// Hourly slots in the evaluation week — the size of every plan group.
pub(crate) const EVAL_SLOTS: usize = 7 * 24;

/// Days in the evaluation week — the size of every forecast entry.
pub(crate) const EVAL_DAYS: usize = 7;

/// Cache hit/miss counters of one cell run (or, summed, of a sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Allocation slots answered from the shared plan cache.
    pub plan_hits: usize,
    /// Allocation slots that had to be planned (and were then shared).
    pub plan_misses: usize,
    /// Day-ahead forecast lookups of a day another run completed first
    /// (this run may still have computed some of its series).
    pub forecast_hits: usize,
    /// Day-ahead forecasts this run completed first: one per (fleet,
    /// day) of a cached sweep, however many cells computed its series.
    pub forecast_misses: usize,
}

impl CacheStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.forecast_hits += other.forecast_hits;
        self.forecast_misses += other.forecast_misses;
    }

    /// Counts one plan lookup; `missed` as returned by [`cached`].
    pub(crate) fn count_plan(&mut self, missed: bool) {
        if missed {
            self.plan_misses += 1;
        } else {
            self.plan_hits += 1;
        }
    }

    /// Counts one day-forecast lookup; `missed` as returned by
    /// [`DayForecast::fill`].
    pub(crate) fn count_forecast(&mut self, missed: bool) {
        if missed {
            self.forecast_misses += 1;
        } else {
            self.forecast_hits += 1;
        }
    }
}

/// The value of `lock`, initialized with `init` unless another caller
/// got there first, and whether this call ran `init` — the caches' one
/// hit/miss rule. A panicking `init` leaves the lock unset, so the next
/// caller computes the value instead.
pub(crate) fn cached<T>(lock: &OnceLock<T>, init: impl FnOnce() -> T) -> (&T, bool) {
    let mut missed = false;
    let value = lock.get_or_init(|| {
        missed = true;
        init()
    });
    (value, missed)
}

/// One fleet-day of day-ahead forecasts, filled cooperatively; see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct DayForecast {
    /// The CPU forecast of every VM, then the memory forecast of every
    /// VM, each one day long.
    series: Vec<OnceLock<TimeSeries>>,
    /// The next series no caller has claimed yet.
    next: AtomicUsize,
    /// Set by the first caller to see every series filled.
    done: OnceLock<()>,
}

impl DayForecast {
    /// An empty day for a fleet of `num_vms` VMs.
    pub fn new(num_vms: usize) -> Self {
        Self {
            series: (0..2 * num_vms).map(|_| OnceLock::new()).collect(),
            next: AtomicUsize::new(0),
            done: OnceLock::new(),
        }
    }

    /// Number of VMs the day covers.
    pub fn num_vms(&self) -> usize {
        self.series.len() / 2
    }

    /// Fills every series, series `i` with `compute(i)`, and returns
    /// whether this call is the day's miss (the first to finish it).
    ///
    /// The caller claims series off the cursor and computes them, then
    /// walks every slot: a series another caller is computing is waited
    /// for, one whose computation panicked is computed here. A caller
    /// only waits once it has nothing claimed in flight, so callers can
    /// never wait on each other in a cycle.
    pub fn fill(&self, compute: impl Fn(usize) -> TimeSeries) -> bool {
        loop {
            // Relaxed: the cursor only hands out indices; each slot's
            // `OnceLock` publishes its series.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.series.get(i) else {
                break;
            };
            slot.get_or_init(|| compute(i));
        }
        for (i, slot) in self.series.iter().enumerate() {
            slot.get_or_init(|| compute(i));
        }
        cached(&self.done, || ()).1
    }

    /// The per-VM CPU forecasts of a [filled](Self::fill) day.
    pub fn cpu(&self) -> Vec<&TimeSeries> {
        self.filled(0)
    }

    /// The per-VM memory forecasts of a [filled](Self::fill) day.
    pub fn mem(&self) -> Vec<&TimeSeries> {
        self.filled(self.num_vms())
    }

    /// The `num_vms` series from index `first` on.
    fn filled(&self, first: usize) -> Vec<&TimeSeries> {
        self.series[first..first + self.num_vms()]
            .iter()
            .map(|s| s.get().expect("a day is filled before it is read"))
            .collect()
    }
}

/// The identity of a plan group: everything that can change what a
/// policy plans. Cells differing only in QoS floor — or in a
/// static-power scale whose derived planning inputs coincide — map to
/// the same key and share plans.
#[derive(Debug, PartialEq)]
struct PlanKey {
    fleet: FleetSpec,
    policy: PolicySpec,
    correlation_only: bool,
    max_servers: usize,
    /// Bit patterns of the model-derived numbers the policy reads while
    /// planning; see [`planning_inputs`].
    inputs: Vec<u64>,
    /// The backend's planning-relevant parameters
    /// ([`BackendSpec::planning_inputs`]): empty for every backend that
    /// honours the conservation contract of [`crate::backend`], so
    /// cells differing only in backend share one plan group. A backend
    /// that did parameterize planning would fingerprint differently
    /// here and split, keeping the dedup sound.
    backend_inputs: Vec<u64>,
}

/// The model-derived quantities `policy` reads during `allocate`, as
/// f64 bit patterns. Two server models with equal fingerprints produce
/// bit-identical plans for the policy, whatever else (e.g. static
/// power) differs between them.
fn planning_inputs(policy: PolicySpec, model: &ServerPowerModel, max_servers: usize) -> Vec<u64> {
    let mut v = vec![
        model.fmax().as_mhz().to_bits(),
        model.fmin().as_mhz().to_bits(),
    ];
    match policy {
        // COAT consolidates at Fmax only.
        PolicySpec::Coat => {}
        // COAT-OPT's cap is F_NTC_opt, which reads the full power model.
        PolicySpec::CoatOpt => {
            let dc = DataCenterPowerModel::new(model.clone(), max_servers);
            v.push(dc.ntc_optimal_frequency().as_mhz().to_bits());
        }
        // EPACT reads F_NTC_opt and, in the Eq. 1 exploration, the
        // worst-case power at every DVFS level.
        PolicySpec::Epact => {
            let dc = DataCenterPowerModel::new(model.clone(), max_servers);
            v.push(dc.ntc_optimal_frequency().as_mhz().to_bits());
            for f in model.dvfs_levels() {
                v.push(f.as_mhz().to_bits());
                v.push(
                    model
                        .power(f, Percent::FULL, Percent::ZERO)
                        .as_watts()
                        .to_bits(),
                );
            }
        }
        // Load balancing spreads against the DVFS table.
        PolicySpec::LoadBalance => {
            for f in model.dvfs_levels() {
                v.push(f.as_mhz().to_bits());
            }
        }
    }
    v
}

/// One shared set of per-slot plan locks; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct PlanGroup {
    slots: Vec<OnceLock<Arc<SlotPlan>>>,
}

impl PlanGroup {
    fn new() -> Self {
        Self {
            slots: (0..EVAL_SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The lock for `slot`, or `None` when the run's horizon exceeds
    /// the group's (defensive — evaluation is always one week).
    pub fn slot(&self, slot: usize) -> Option<&OnceLock<Arc<SlotPlan>>> {
        self.slots.get(slot)
    }
}

/// Plan groups for every cell of one sweep, deduplicated by
/// [`PlanKey`]; cells sharing a key share a [`PlanGroup`].
#[derive(Debug)]
pub(crate) struct PlanCache {
    groups: Vec<PlanGroup>,
    /// Spec-order cell index → group index.
    by_cell: Vec<usize>,
}

impl PlanCache {
    /// Computes the key of every cell and deduplicates the groups.
    pub fn new(spec: &ExperimentSpec, cells: &[CellSpec]) -> Self {
        let mut keys: Vec<PlanKey> = Vec::new();
        let mut groups: Vec<PlanGroup> = Vec::new();
        let mut by_cell = Vec::with_capacity(cells.len());
        for cell in cells {
            let key = PlanKey {
                fleet: cell.fleet,
                policy: cell.policy,
                correlation_only: spec.ablation.correlation_only,
                max_servers: spec.max_servers,
                inputs: planning_inputs(cell.policy, &cell.server_model(), spec.max_servers),
                backend_inputs: cell.backend.planning_inputs(),
            };
            let idx = match keys.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    keys.push(key);
                    groups.push(PlanGroup::new());
                    groups.len() - 1
                }
            };
            by_cell.push(idx);
        }
        Self { groups, by_cell }
    }

    /// The plan group of the cell at spec-order index `cell_index`.
    pub fn group(&self, cell_index: usize) -> &PlanGroup {
        &self.groups[self.by_cell[cell_index]]
    }

    /// The order a sweep's workers claim cells in: first every group's
    /// leader (its first spec-order cell), in group order, then every
    /// other cell in spec order. Leaders plan their groups' slots, so
    /// claiming them first starts every group's planning as early as
    /// possible instead of parking workers on followers that would wait
    /// for a leader's plan locks.
    pub fn claim_order(&self) -> Vec<usize> {
        let mut led = vec![false; self.groups.len()];
        let (mut leaders, mut followers) = (Vec::new(), Vec::new());
        for (cell, &group) in self.by_cell.iter().enumerate() {
            if led[group] {
                followers.push(cell);
            } else {
                led[group] = true;
                leaders.push(cell);
            }
        }
        leaders.append(&mut followers);
        leaders
    }

    /// Number of distinct plan groups (for diagnostics/tests).
    #[cfg(test)]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// Per-fleet day forecasts shared by every cell over that fleet; only
/// built for non-oracle sweeps (the predictor is spec-wide).
#[derive(Debug)]
pub(crate) struct ForecastCache {
    entries: Vec<(FleetSpec, Vec<Arc<DayForecast>>)>,
}

impl ForecastCache {
    /// Builds an empty cache over the distinct fleet specs.
    pub fn new(fleets: &[FleetSpec]) -> Self {
        let mut entries: Vec<(FleetSpec, Vec<Arc<DayForecast>>)> = Vec::new();
        for &fleet in fleets {
            if !entries.iter().any(|(f, _)| *f == fleet) {
                let days = (0..EVAL_DAYS)
                    .map(|_| Arc::new(DayForecast::new(fleet.num_vms)))
                    .collect();
                entries.push((fleet, days));
            }
        }
        Self { entries }
    }

    /// The seven shared days of `fleet`.
    pub fn days(&self, fleet: &FleetSpec) -> &[Arc<DayForecast>] {
        let (_, days) = self
            .entries
            .iter()
            .find(|(f, _)| f == fleet)
            .expect("every cell's fleet comes from the spec's fleet set");
        days
    }
}

/// The cache handles one `WeekSim` run receives from the engine; both
/// levels are optional so the public (uncached) API and the cached
/// engine path share one code path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunCaches<'c> {
    /// Shared per-slot plans, when the engine deduplicated this cell
    /// into a plan group.
    pub plans: Option<&'c PlanGroup>,
    /// Shared day forecasts of this cell's fleet.
    pub forecasts: Option<&'c [Arc<DayForecast>]>,
}

impl RunCaches<'_> {
    /// No caching — the plain public run path.
    pub fn none() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServerSpec;

    fn spec_with_scales(scales: Vec<f64>) -> ExperimentSpec {
        let mut spec = ExperimentSpec::default_sweep();
        spec.servers = vec![ServerSpec::Ntc];
        spec.static_power_scales = scales;
        spec
    }

    #[test]
    fn coat_plans_dedup_across_static_power_scales() {
        // COAT plans at Fmax only: every scale arm shares one group.
        let mut spec = spec_with_scales(vec![0.5, 1.0, 2.0]);
        spec.policies = vec![PolicySpec::Coat];
        let cells = spec.cells();
        let cache = PlanCache::new(&spec, &cells);
        assert_eq!(cells.len(), 3);
        assert_eq!(cache.num_groups(), 1);
        assert!(std::ptr::eq(cache.group(0), cache.group(2)));
    }

    #[test]
    fn backend_arms_always_share_plans() {
        // Both built-in backends conserve planning (empty
        // planning_inputs): one group per policy across the axis.
        use crate::backend::BackendSpec;
        let mut spec = spec_with_scales(vec![1.0]);
        spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
        let cells = spec.cells();
        let cache = PlanCache::new(&spec, &cells);
        assert_eq!(cells.len(), 6);
        assert_eq!(cache.num_groups(), 3);
        assert!(std::ptr::eq(cache.group(0), cache.group(3)));
    }

    #[test]
    fn qos_floor_arms_always_share_plans() {
        // The floor shapes replay, not planning: one group per policy.
        let mut spec = spec_with_scales(vec![1.0]);
        spec.qos_floors_mhz = vec![None, Some(1200.0), Some(1800.0)];
        let cells = spec.cells();
        let cache = PlanCache::new(&spec, &cells);
        assert_eq!(cells.len(), 9);
        assert_eq!(cache.num_groups(), 3);
    }

    #[test]
    fn claim_order_puts_group_leaders_first() {
        // 3 floors x 3 policies: the first floor's cells 0..3 already
        // lead the three policy groups, so the order is spec order.
        let mut spec = spec_with_scales(vec![1.0]);
        spec.qos_floors_mhz = vec![None, Some(1200.0), Some(1800.0)];
        let cells = spec.cells();
        let cache = PlanCache::new(&spec, &cells);
        assert_eq!(cache.claim_order(), (0..9).collect::<Vec<_>>());

        // 2 fleets x 3 floors x 2 policies, fleet-major: fleet 1's
        // leaders (cells 6 and 7) move ahead of fleet 0's followers.
        spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
        let fleet = spec.fleets[0];
        spec.fleets = vec![fleet, FleetSpec { seed: 99, ..fleet }];
        let cells = spec.cells();
        let cache = PlanCache::new(&spec, &cells);
        assert_eq!(cache.num_groups(), 4);
        assert_eq!(
            cache.claim_order(),
            vec![0, 1, 6, 7, 2, 3, 4, 5, 8, 9, 10, 11]
        );
    }

    #[test]
    fn epact_plans_split_when_f_ntc_opt_moves() {
        // A large static-power change shifts F_NTC_opt, so EPACT's
        // planning inputs differ and the groups must not merge.
        let mut spec = spec_with_scales(vec![0.0, 8.0]);
        spec.policies = vec![PolicySpec::Epact];
        let cells = spec.cells();
        let inputs: Vec<_> = cells
            .iter()
            .map(|c| planning_inputs(c.policy, &c.server_model(), spec.max_servers))
            .collect();
        assert_ne!(inputs[0], inputs[1], "fingerprints must differ");
        let cache = PlanCache::new(&spec, &cells);
        assert_eq!(cache.num_groups(), 2);
    }

    #[test]
    fn distinct_fleets_never_share_plans() {
        let mut spec = spec_with_scales(vec![1.0]).with_seeds(&[1, 2]);
        spec.policies = vec![PolicySpec::Coat];
        let cells = spec.cells();
        let cache = PlanCache::new(&spec, &cells);
        assert_eq!(cache.num_groups(), 2);
    }

    #[test]
    fn forecast_cache_dedups_fleets() {
        let fleets = vec![
            FleetSpec {
                num_vms: 8,
                seed: 1,
                weeks: 2,
            };
            3
        ];
        let cache = ForecastCache::new(&fleets);
        assert_eq!(cache.days(&fleets[0]).len(), EVAL_DAYS);
        assert_eq!(cache.entries.len(), 1);
    }

    /// A deterministic stand-in for one series' forecast.
    fn series_of(i: usize) -> TimeSeries {
        (0..6).map(|t| (i * 7 + t) as f64 / 3.0).collect()
    }

    fn day_bits(day: &DayForecast) -> Vec<u64> {
        day.cpu()
            .into_iter()
            .chain(day.mem())
            .flat_map(|s| s.values().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn clean_day(num_vms: usize) -> DayForecast {
        let day = DayForecast::new(num_vms);
        assert!(day.fill(series_of), "a lone caller is the day's miss");
        day
    }

    #[test]
    fn a_series_whose_computation_panicked_is_recomputed() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let day = DayForecast::new(3);
        let calls = AtomicUsize::new(0);
        let compute = |i: usize| {
            // Series 2's first computation panics mid-fill.
            if calls.fetch_add(1, Ordering::Relaxed) == 2 {
                panic!("injected forecast fault");
            }
            series_of(i)
        };
        assert!(catch_unwind(AssertUnwindSafe(|| day.fill(compute))).is_err());
        // The next caller claims what is left, recomputes series 2 on
        // its walk, completes the day and takes its miss.
        assert!(day.fill(compute));
        assert_eq!(calls.load(Ordering::Relaxed), 7, "only series 2 ran twice");
        assert_eq!(day_bits(&day), day_bits(&clean_day(3)));
        assert!(!day.fill(compute), "a filled day is a hit");
        assert_eq!(calls.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn concurrent_callers_split_the_day_and_count_one_miss() {
        let day = DayForecast::new(16);
        let calls = AtomicUsize::new(0);
        // Series 0 and 1 meet at the barrier: the caller that claimed
        // series 0 holds it until the other caller has claimed series 1,
        // so both callers compute part of the day.
        let meet = std::sync::Barrier::new(2);
        let compute = |i: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i < 2 {
                meet.wait();
            }
            series_of(i)
        };
        // Each caller reports (missed, series it computed).
        let results: Vec<(bool, usize)> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mine = AtomicUsize::new(0);
                        let missed = day.fill(|i| {
                            mine.fetch_add(1, Ordering::Relaxed);
                            compute(i)
                        });
                        (missed, mine.into_inner())
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(results.iter().filter(|r| r.0).count(), 1, "{results:?}");
        assert!(results.iter().all(|r| r.1 > 0), "{results:?}");
        assert_eq!(calls.load(Ordering::Relaxed), 32, "each series once");
        assert_eq!(day_bits(&day), day_bits(&clean_day(16)));
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = CacheStats {
            plan_hits: 1,
            plan_misses: 2,
            forecast_hits: 3,
            forecast_misses: 4,
        };
        a.merge(CacheStats {
            plan_hits: 10,
            plan_misses: 20,
            forecast_hits: 30,
            forecast_misses: 40,
        });
        assert_eq!(
            a,
            CacheStats {
                plan_hits: 11,
                plan_misses: 22,
                forecast_hits: 33,
                forecast_misses: 44,
            }
        );
    }
}
