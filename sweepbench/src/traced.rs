//! The traced run: the engine's per-cell pipeline driven layer by layer
//! from public functions, with a span around every call into a layer.
//!
//! It mirrors a one-worker `Engine::run` with caching on. Cells run in
//! spec order; the first cell to need a fleet generates it, and the
//! first cell of a plan group plans each of its slots, which every later
//! cell of the group reuses. Planning depends only on fleet, policy,
//! server and static-power scale (the conservation contract of
//! `ntc_datacenter::backend`), so QoS-floor and backend arms share
//! plans, and day-ahead forecasts are shared per fleet and day. Each
//! cell then replays, governs and accounts every slot itself. The
//! caller checks the resulting weeks bit for bit against the engine.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use ntc_core::{eq1, AllocationPolicy, DvfsGovernor, SlotContext, SlotPlan};
use ntc_datacenter::{
    CellSpec, ExperimentSpec, FleetSpec, GovernedSlot, PolicySpec, PredictorSpec, ServerSpec,
    SlotOutcome, WeekOutcome,
};
use ntc_forecast::{ArimaPredictor, Predictor, SeasonalNaive};
use ntc_power::{DataCenterPowerModel, ServerPowerModel};
use ntc_trace::{DayCache, TimeSeries};
use ntc_units::Frequency;
use ntc_workload::{Fleet, MemClass};

use crate::spans::Tracer;

/// Work counted at the span boundaries.
#[derive(Debug, Default)]
pub struct Counters {
    pub forecast_calls: usize,
    pub daycache_builds: usize,
    pub allocate_calls: BTreeMap<&'static str, usize>,
    pub alg1_slots: usize,
    pub alg2_slots: usize,
    pub replay_slots: usize,
    pub governed_samples: usize,
    pub account_calls: usize,
}

/// Server-samples of one cell whose replayed demand overflowed the
/// plan: CPU beyond what the DVFS ceiling serves, memory beyond 100%,
/// and either (what the analytic backend counts as a violation).
#[derive(Debug, Default, Clone, Copy)]
pub struct Overflows {
    pub cpu: usize,
    pub mem: usize,
    pub either: usize,
}

/// What one traced run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// One week per cell, in spec order.
    pub outcomes: Vec<WeekOutcome>,
    pub tracer: Tracer,
    pub counters: Counters,
    /// One entry per cell, in spec order.
    pub overflows: Vec<Overflows>,
}

/// Metric-name suffix and allocate-span name of each policy.
pub const POLICIES: [(PolicySpec, &str, &str); 4] = [
    (PolicySpec::Epact, "epact", "core.allocate.epact"),
    (PolicySpec::Coat, "coat", "core.allocate.coat"),
    (PolicySpec::CoatOpt, "coat_opt", "core.allocate.coat_opt"),
    (
        PolicySpec::LoadBalance,
        "load_balance",
        "core.allocate.load_balance",
    ),
];

fn allocate_span(policy: PolicySpec) -> &'static str {
    POLICIES
        .iter()
        .find(|(p, _, _)| *p == policy)
        .map(|(_, _, span)| *span)
        .expect("every policy has an allocate span")
}

/// The memory-class order used to pick a server's dominant class.
fn class_rank(class: MemClass) -> u8 {
    match class {
        MemClass::Low => 0,
        MemClass::Mid => 1,
        MemClass::High => 2,
    }
}

/// One day-ahead forecast of a fleet: per-VM CPU and memory series.
type DayForecast = (Vec<TimeSeries>, Vec<TimeSeries>);

/// Everything planning slots share across cells.
struct Shared {
    fleets: Vec<(FleetSpec, Arc<Fleet>)>,
    /// Plan groups: key and the plan of every planning slot.
    groups: Vec<(PlanGroupKey, Vec<Option<Arc<SlotPlan>>>)>,
    forecasts: Forecasts,
}

/// Day-ahead forecasts shared by every cell over a fleet, by (fleet, day).
type Forecasts = Vec<((FleetSpec, usize), Arc<DayForecast>)>;

#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanGroupKey {
    fleet: FleetSpec,
    policy: PolicySpec,
    server: ServerSpec,
    static_power_scale: u64,
}

impl PlanGroupKey {
    fn of(cell: &CellSpec) -> Self {
        Self {
            fleet: cell.fleet,
            policy: cell.policy,
            server: cell.server,
            static_power_scale: cell.static_power_scale.to_bits(),
        }
    }
}

/// The per-cell day state: the current day's forecast and moment caches.
#[derive(Default)]
struct DayState {
    forecast: Option<(usize, Arc<DayForecast>)>,
    moments: Option<(usize, DayCache, DayCache)>,
}

/// Runs every cell of `spec` serially under the tracer.
pub fn run(spec: &ExperimentSpec) -> TracedRun {
    let cells = spec.cells();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut shared = Shared {
        fleets: Vec::new(),
        groups: Vec::new(),
        forecasts: Vec::new(),
    };
    let (outcomes, overflows) = tracer.span("bench.traced_run", 0, |t| {
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                t.span("engine.cell", i, |t| {
                    run_cell(t, &mut counters, &mut shared, spec, i, cell)
                })
            })
            .unzip()
    });
    TracedRun {
        outcomes,
        tracer,
        counters,
        overflows,
    }
}

fn predictor(spec: PredictorSpec, per_day: usize) -> Option<Box<dyn Predictor>> {
    match spec {
        PredictorSpec::Oracle => None,
        PredictorSpec::Arima => Some(Box::new(ArimaPredictor::daily(per_day))),
        PredictorSpec::SeasonalNaive => Some(Box::new(SeasonalNaive::new(per_day))),
    }
}

fn run_cell(
    t: &mut Tracer,
    counters: &mut Counters,
    shared: &mut Shared,
    spec: &ExperimentSpec,
    index: usize,
    cell: &CellSpec,
) -> (WeekOutcome, Overflows) {
    let fleet = match shared.fleets.iter().find(|(f, _)| *f == cell.fleet) {
        Some((_, fleet)) => Arc::clone(fleet),
        None => {
            let fleet = t.span("workload.generate", index, |_| {
                Arc::new(cell.fleet.generate())
            });
            shared.fleets.push((cell.fleet, Arc::clone(&fleet)));
            fleet
        }
    };
    let backend = t.span("backend.build", index, |_| {
        cell.backend
            .try_build(cell.server)
            .expect("both built-in backends build for both servers")
    });
    let account_span = match backend.name() {
        "analytic" => "backend.analytic.account",
        "archsim" => "backend.archsim.account",
        other => panic!("no account span for backend {other}"),
    };
    let server = cell.server_model();
    let governor = DvfsGovernor::new(&server);
    let qos_floor = cell.qos_floor_mhz.map(Frequency::from_mhz);
    let policy = cell.policy.build(spec.ablation);
    let grid = fleet.grid();
    let sps = grid.samples_per_slot();
    let eval_start = grid.len() - FleetSpec::WEEK_SAMPLES;
    let slots = FleetSpec::WEEK_SAMPLES / sps;
    let slots_per_day = grid.samples_per_day() / sps;
    let predictor = predictor(spec.predictor, grid.samples_per_day());
    let period = policy.reallocation_period_slots().clamp(1, slots_per_day);
    let n_vms = fleet.len();
    let key = PlanGroupKey::of(cell);
    let group = match shared.groups.iter().position(|(k, _)| *k == key) {
        Some(g) => g,
        None => {
            shared.groups.push((key, vec![None; slots]));
            shared.groups.len() - 1
        }
    };
    let planner = Planner {
        fleet_spec: cell.fleet,
        fleet: &fleet,
        server: &server,
        policy: policy.as_ref(),
        policy_spec: cell.policy,
        predictor: predictor.as_deref(),
        max_servers: spec.max_servers,
        eval_start,
        index,
    };

    let mut day = DayState::default();
    let mut current: Option<Arc<SlotPlan>> = None;
    let mut actual_cpu = vec![TimeSeries::zeros(0); n_vms];
    let mut actual_mem = vec![TimeSeries::zeros(0); n_vms];
    let mut per_server_cpu: Vec<TimeSeries> = Vec::new();
    let mut per_server_mem: Vec<TimeSeries> = Vec::new();
    let mut occupancy: Vec<bool> = Vec::new();
    let mut dominant: Vec<MemClass> = Vec::new();
    let mut governed = GovernedSlot::new();
    let mut outcomes = Vec::with_capacity(slots);
    let mut overflows = Overflows::default();

    for slot in 0..slots {
        let start = eval_start + slot * sps;
        let range = start..start + sps;
        let new_plan = (slot % period == 0).then(|| match shared.groups[group].1[slot].clone() {
            Some(plan) => plan,
            None => {
                let window = slot..slot + period.min(slots - slot);
                let plan =
                    Arc::new(planner.plan(t, counters, &mut shared.forecasts, &mut day, window));
                shared.groups[group].1[slot] = Some(Arc::clone(&plan));
                plan
            }
        });

        let migrations = t.span("replay", index, |_| {
            let mut migrations = 0;
            if let Some(new_plan) = new_plan {
                if let Some(prev) = &current {
                    migrations = ntc_core::migration_count(prev, &new_plan);
                }
                occupancy.clear();
                occupancy.resize(new_plan.num_servers(), false);
                dominant.clear();
                dominant.resize(new_plan.num_servers(), MemClass::Low);
                for (vm, &srv) in new_plan.assignments().iter().enumerate() {
                    occupancy[srv] = true;
                    let class = fleet.vms()[vm].class;
                    if class_rank(class) > class_rank(dominant[srv]) {
                        dominant[srv] = class;
                    }
                }
                current = Some(new_plan);
            }
            let plan = current.as_deref().expect("plan set at period start");
            for (buf, vm) in actual_cpu.iter_mut().zip(fleet.vms()) {
                buf.copy_window_from(&vm.cpu, range.clone());
            }
            for (buf, vm) in actual_mem.iter_mut().zip(fleet.vms()) {
                buf.copy_window_from(&vm.mem, range.clone());
            }
            plan.aggregate_per_server_into(&actual_cpu, &mut per_server_cpu);
            plan.aggregate_per_server_into(&actual_mem, &mut per_server_mem);
            migrations
        });
        let plan = current.as_deref().expect("plan set at period start");

        let samples = t.span("core.govern", index, |_| {
            governed.reset(grid.sample_period(), sps);
            let mut samples = 0;
            for (srv, active) in occupancy.iter().enumerate() {
                if !active {
                    continue;
                }
                governed.push_server(dominant[srv]);
                for k in 0..sps {
                    governed.push_sample(governor.govern_sample(
                        per_server_cpu[srv].at(k),
                        per_server_mem[srv].at(k),
                        plan.dvfs_ceiling(),
                        plan.dvfs_floor(),
                        qos_floor,
                    ));
                    samples += 1;
                }
            }
            samples
        });
        let accounts = t.span(account_span, index, |_| backend.account(&server, &governed));
        t.span("bench.audit", index, |_| {
            for (srv, active) in occupancy.iter().enumerate() {
                if !active {
                    continue;
                }
                for k in 0..sps {
                    let cpu = governor.is_violated(per_server_cpu[srv].at(k), plan.dvfs_ceiling());
                    // The governor's memory-overflow threshold.
                    let mem = per_server_mem[srv].at(k) > 100.0 + 1e-9;
                    overflows.cpu += usize::from(cpu);
                    overflows.mem += usize::from(mem);
                    overflows.either += usize::from(cpu || mem);
                }
            }
        });
        counters.replay_slots += 1;
        counters.governed_samples += samples;
        counters.account_calls += 1;

        outcomes.push(SlotOutcome {
            violations: accounts.violations,
            active_servers: governed.num_servers(),
            migrations,
            energy: accounts.energy,
            planned_freq: plan.planned_freq(),
            mean_freq: accounts.mean_freq(),
        });
    }
    let week = WeekOutcome {
        policy: policy.name().to_string(),
        slots: outcomes,
    };
    (week, overflows)
}

/// The planning side of one cell: forecast, day moments, prediction
/// windows and the policy's allocation, for the group's first cell.
struct Planner<'a> {
    fleet_spec: FleetSpec,
    fleet: &'a Fleet,
    server: &'a ServerPowerModel,
    policy: &'a dyn AllocationPolicy,
    policy_spec: PolicySpec,
    predictor: Option<&'a dyn Predictor>,
    max_servers: usize,
    eval_start: usize,
    index: usize,
}

impl Planner<'_> {
    /// Plans the period covering evaluation slots `window`.
    fn plan(
        &self,
        t: &mut Tracer,
        counters: &mut Counters,
        forecasts: &mut Forecasts,
        state: &mut DayState,
        window: Range<usize>,
    ) -> SlotPlan {
        let grid = self.fleet.grid();
        let sps = grid.samples_per_slot();
        let per_day = grid.samples_per_day();
        let slots_per_day = per_day / sps;
        let day = window.start / slots_per_day;
        let start = self.eval_start + window.start * sps;
        let window_len = sps * window.len();
        let offset = (window.start % slots_per_day) * sps;
        let index = self.index;

        if let Some(p) = self.predictor {
            if state.forecast.as_ref().is_none_or(|(d, _)| *d != day) {
                let key = (self.fleet_spec, day);
                let fc = match forecasts.iter().find(|(k, _)| *k == key) {
                    Some((_, fc)) => Arc::clone(fc),
                    None => {
                        let day_start = self.eval_start + day * per_day;
                        let fc = t.span("forecast.day", index, |_| {
                            let vms = self.fleet.vms();
                            Arc::new((
                                vms.iter()
                                    .map(|v| p.forecast(&v.cpu.window(0..day_start), per_day))
                                    .collect(),
                                vms.iter()
                                    .map(|v| p.forecast(&v.mem.window(0..day_start), per_day))
                                    .collect(),
                            ))
                        });
                        counters.forecast_calls += 2 * self.fleet.len();
                        forecasts.push((key, Arc::clone(&fc)));
                        fc
                    }
                };
                state.forecast = Some((day, fc));
                state.moments = None;
            }
        }

        if state.moments.as_ref().is_none_or(|(d, _, _)| *d != day) {
            let moments = t.span("trace.daycache_build", index, |_| match &state.forecast {
                Some((_, fc)) => (
                    DayCache::with_block_size(&fc.0, sps),
                    DayCache::with_block_size(&fc.1, sps),
                ),
                None => {
                    let day_start = self.eval_start + day * per_day;
                    let (cpu, mem) = actual_windows(self.fleet, day_start..day_start + per_day);
                    (
                        DayCache::with_block_size(&cpu, sps),
                        DayCache::with_block_size(&mem, sps),
                    )
                }
            });
            counters.daycache_builds += 2;
            state.moments = Some((day, moments.0, moments.1));
        }

        let (pred_cpu, pred_mem) = t.span("core.plan_inputs", index, |_| match &state.forecast {
            Some((_, fc)) => (
                fc.0.iter()
                    .map(|s| s.window(offset..offset + window_len))
                    .collect::<Vec<_>>(),
                fc.1.iter()
                    .map(|s| s.window(offset..offset + window_len))
                    .collect::<Vec<_>>(),
            ),
            None => actual_windows(self.fleet, start..start + window_len),
        });
        let ctx = t.span("core.plan_inputs", index, |_| {
            let ctx = SlotContext::new(&pred_cpu, &pred_mem, self.server, self.max_servers);
            match &state.moments {
                Some((_, dc_cpu, dc_mem)) if offset + window_len <= per_day => {
                    ctx.with_day_window(dc_cpu, dc_mem, offset)
                }
                _ => ctx,
            }
        });

        if self.policy_spec == PolicySpec::Epact {
            let cpu_dominated = t.span("bench.audit", index, |_| {
                let dc = DataCenterPowerModel::new(self.server.clone(), ctx.max_servers());
                eq1::decide(&ctx, dc.ntc_optimal_frequency()).cpu_dominated
            });
            if cpu_dominated {
                counters.alg1_slots += 1;
            } else {
                counters.alg2_slots += 1;
            }
        }
        let span = allocate_span(self.policy_spec);
        *counters.allocate_calls.entry(span).or_default() += 1;
        t.span(span, index, |_| self.policy.allocate(&ctx))
    }
}

/// Per-VM CPU and memory windows of the actual traces over `range`.
fn actual_windows(fleet: &Fleet, range: Range<usize>) -> (Vec<TimeSeries>, Vec<TimeSeries>) {
    (
        fleet
            .vms()
            .iter()
            .map(|v| v.cpu.window(range.clone()))
            .collect(),
        fleet
            .vms()
            .iter()
            .map(|v| v.mem.window(range.clone()))
            .collect(),
    )
}
