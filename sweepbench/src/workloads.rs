//! The benchmark's workloads: three sweeps that stress different layers
//! of the forecast → plan → govern → account pipeline. BENCHMARK.md
//! in this directory says why each was chosen.

use ntc_datacenter::{
    BackendSpec, ExperimentSpec, FleetSpec, PolicySpec, PredictorSpec, ServerSpec,
};

/// Names accepted by `--workload`, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 3] = ["pack-scale", "arima-week", "qos-floors"];

/// Physical servers available to every cell of every workload.
const MAX_SERVERS: usize = 600;

/// One workload: the sweep spec and the engine's worker count.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub spec: ExperimentSpec,
    pub workers: usize,
}

/// Fleets of `vms` VMs over two weeks; fleet `i` uses generator seed
/// `seed + i`, so the default seed reproduces `ntcdc sweep`'s fleet.
fn fleets(count: u64, vms: usize, seed: u64) -> Vec<FleetSpec> {
    (0..count)
        .map(|i| FleetSpec {
            num_vms: vms,
            seed: seed.wrapping_add(i),
            weeks: 2,
        })
        .collect()
}

/// Builds the named workload from the benchmark's seed, or `None` for
/// an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut spec = ExperimentSpec::default_sweep();
    spec.name = name.to_string();
    spec.max_servers = MAX_SERVERS;
    let (name, workers) = match name {
        // The paper's headline comparison at 480 VMs, nothing shared:
        // packing dominates.
        "pack-scale" => {
            spec.fleets = fleets(1, 480, seed);
            spec.servers = vec![ServerSpec::Ntc, ServerSpec::Conventional];
            spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat, PolicySpec::CoatOpt];
            spec.predictor = PredictorSpec::Oracle;
            ("pack-scale", 1)
        }
        // The full forecast pipeline: ARIMA retrained daily, one shared
        // forecast per fleet and day.
        "arima-week" => {
            spec.fleets = fleets(3, 120, seed);
            spec.servers = vec![ServerSpec::Ntc];
            spec.policies = vec![PolicySpec::Epact, PolicySpec::CoatOpt];
            spec.predictor = PredictorSpec::Arima;
            ("arima-week", 2)
        }
        // §VI-B3: QoS floor × accounting backend. Plans are shared
        // across floor and backend arms, so replay and account dominate.
        "qos-floors" => {
            spec.fleets = fleets(2, 240, seed);
            spec.servers = vec![ServerSpec::Ntc];
            spec.qos_floors_mhz = vec![
                None,
                Some(1000.0),
                Some(1200.0),
                Some(1400.0),
                Some(1600.0),
                Some(1800.0),
            ];
            spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
            spec.policies = vec![PolicySpec::Epact, PolicySpec::LoadBalance];
            spec.predictor = PredictorSpec::Oracle;
            ("qos-floors", 2)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        spec,
        workers,
    })
}
