//! Output checks run on every sweep the benchmark measures.
//!
//! * no cell failed;
//! * on the default seed, every cell's digest (total energy bits,
//!   violations, mean active servers bits, migrations) equals the one
//!   recorded in `golden.tsv`;
//! * on any seed, the paper-shape invariants hold: EPACT/NTC uses less
//!   energy than COAT/NTC, and archsim EPACT/NTC violations never rise
//!   as the QoS floor rises;
//! * in the traced run, which sees each server's replayed demand:
//!   oracle EPACT on the analytic backend never overflows CPU, and every
//!   analytic violation is a CPU or memory overflow the replay shows.
//!
//! Oracle EPACT is not checked for zero violations overall: Algorithm 1
//! packs by CPU alone, so on some seeds a server's memory overflows
//! even with perfect predictions (BENCHMARK.md, "Known defects").

use ntc_datacenter::{
    BackendSpec, CellSpec, PolicySpec, PredictorSpec, ServerSpec, SweepResult, WeekOutcome,
};

use crate::traced::Overflows;

/// The seed whose per-cell digests `golden.tsv` records.
pub const DEFAULT_SEED: u64 = 2024;

const GOLDEN: &str = include_str!("../golden.tsv");

/// FNV-1a over the cell's headline results, bit for bit.
pub fn digest(outcome: &WeekOutcome) -> u64 {
    let words = [
        outcome.total_energy().as_joules().to_bits(),
        outcome.total_violations() as u64,
        outcome.mean_active_servers().to_bits(),
        outcome.total_migrations() as u64,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Whether two weeks agree in every slot, comparing floats by bits.
pub fn bit_identical(a: &WeekOutcome, b: &WeekOutcome) -> bool {
    a.policy == b.policy
        && a.slots.len() == b.slots.len()
        && a.slots.iter().zip(&b.slots).all(|(x, y)| {
            x.violations == y.violations
                && x.active_servers == y.active_servers
                && x.migrations == y.migrations
                && x.energy.as_joules().to_bits() == y.energy.as_joules().to_bits()
                && x.planned_freq.as_mhz().to_bits() == y.planned_freq.as_mhz().to_bits()
                && x.mean_freq.as_mhz().to_bits() == y.mean_freq.as_mhz().to_bits()
        })
}

/// The recorded `(cell label, digest)` list of `workload`, in spec order.
fn golden(workload: &str) -> Vec<(&'static str, u64)> {
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .filter_map(|line| {
            let mut fields = line.split('\t');
            let (name, _fleet_seed, label, hex) = (
                fields.next()?,
                fields.next()?,
                fields.next()?,
                fields.next()?,
            );
            (name == workload).then(|| {
                let digest = u64::from_str_radix(hex, 16).expect("golden digests are hex");
                (label, digest)
            })
        })
        .collect()
}

/// Every check on one sweep; returns one message per failed check.
pub fn check_sweep(workload: &str, seed: u64, sweep: &SweepResult) -> Vec<String> {
    let mut problems: Vec<String> = sweep
        .failed()
        .iter()
        .map(|e| format!("cell {} failed: {e}", e.index))
        .collect();
    if !problems.is_empty() {
        return problems;
    }
    let ablation = Default::default();
    if seed == DEFAULT_SEED {
        let expected = golden(workload);
        let got: Vec<(u64, String, u64)> = sweep
            .cells
            .iter()
            .map(|c| {
                (
                    c.cell.fleet.seed,
                    c.cell.label(ablation),
                    digest(&c.outcome),
                )
            })
            .collect();
        let matches = expected.len() == got.len()
            && expected
                .iter()
                .zip(&got)
                .all(|((el, ed), (_, gl, gd))| *el == gl && ed == gd);
        if !matches {
            let lines: Vec<String> = got
                .iter()
                .map(|(seed, label, d)| format!("{workload}\t{seed}\t{label}\t{d:016x}"))
                .collect();
            problems.push(format!(
                "digests differ from golden.tsv; this build gives:\n{}",
                lines.join("\n")
            ));
        }
    }
    problems.extend(paper_shapes(sweep));
    problems
}

/// The checks only the traced run can make, from each cell's replayed
/// overflows.
pub fn check_overflows(
    predictor: PredictorSpec,
    cells: &[CellSpec],
    weeks: &[WeekOutcome],
    overflows: &[Overflows],
) -> Vec<String> {
    let mut problems = Vec::new();
    for ((cell, week), o) in cells.iter().zip(weeks).zip(overflows) {
        if cell.backend != BackendSpec::Analytic {
            continue;
        }
        let label = cell.label(Default::default());
        if predictor == PredictorSpec::Oracle && cell.policy == PolicySpec::Epact && o.cpu > 0 {
            problems.push(format!("oracle {label} overflows CPU in {} samples", o.cpu));
        }
        if week.total_violations() != o.either {
            problems.push(format!(
                "{label}: {} violations, but the replay shows {} overflowing samples",
                week.total_violations(),
                o.either
            ));
        }
    }
    problems
}

/// The paper-shape invariants, which hold on every seed.
fn paper_shapes(sweep: &SweepResult) -> Vec<String> {
    let ablation = Default::default();
    let mut problems = Vec::new();
    let cells = &sweep.cells;
    // Pairs of cells that differ only in the named axis.
    let twin = |a: &CellSpec, b: &CellSpec| {
        a.fleet == b.fleet
            && a.server == b.server
            && a.static_power_scale == b.static_power_scale
            && a.backend == b.backend
            && a.qos_floor_mhz == b.qos_floor_mhz
    };
    for e in cells.iter().filter(|c| {
        c.cell.policy == PolicySpec::Epact
            && c.cell.server == ServerSpec::Ntc
            && c.cell.backend == BackendSpec::Analytic
            && c.cell.qos_floor_mhz.is_none()
    }) {
        for coat in cells
            .iter()
            .filter(|c| c.cell.policy == PolicySpec::Coat && twin(&c.cell, &e.cell))
        {
            let (ee, ec) = (e.outcome.total_energy(), coat.outcome.total_energy());
            if ee >= ec {
                problems.push(format!(
                    "fleet seed {}: EPACT/NTC energy {:.3} MJ is not below COAT/NTC {:.3} MJ",
                    e.cell.fleet.seed,
                    ee.as_megajoules(),
                    ec.as_megajoules()
                ));
            }
        }
    }
    let mut floored: Vec<_> = cells
        .iter()
        .filter(|c| {
            c.cell.policy == PolicySpec::Epact
                && c.cell.server == ServerSpec::Ntc
                && c.cell.backend == BackendSpec::Archsim
        })
        .collect();
    floored.sort_by(|a, b| {
        (a.cell.fleet.seed, a.cell.qos_floor_mhz.unwrap_or(0.0))
            .partial_cmp(&(b.cell.fleet.seed, b.cell.qos_floor_mhz.unwrap_or(0.0)))
            .expect("floors are finite")
    });
    for pair in floored.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if lo.cell.fleet == hi.cell.fleet
            && hi.outcome.total_violations() > lo.outcome.total_violations()
        {
            problems.push(format!(
                "fleet seed {}: archsim violations rise from {} ({}) to {} ({})",
                lo.cell.fleet.seed,
                lo.outcome.total_violations(),
                lo.cell.label(ablation),
                hi.outcome.total_violations(),
                hi.cell.label(ablation)
            ));
        }
    }
    problems
}
