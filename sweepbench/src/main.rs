//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path sweepbench/Cargo.toml -- \
//!     --workload <pack-scale|arima-week|qos-floors> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it times the workload's sweep through the public
//! `Engine::run` with nothing traced, and reports the end-to-end
//! metrics. With `--trace 1` it also drives the same sweep layer by
//! layer from public functions under a span recorder, checks that run
//! against the engine bit for bit, and reports the per-layer metrics.
//! Both modes check every sweep's outputs. The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed` (cells
//! run and cells failed) and `metrics`. See BENCHMARK.md.

mod check;
mod spans;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ntc_datacenter::{Engine, ExperimentSpec, FleetSpec, SweepResult};

use crate::workloads::Workload;

/// Sweeps measured per run, at least, however long `--seconds` is.
const MIN_REPS: usize = 3;

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 11;

/// Where result files and span dumps are written, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "sweepbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// What one benchmark run found.
#[derive(Default)]
struct Report {
    problems: Vec<String>,
    /// Cells run, over every sweep of the run.
    attempted: usize,
    /// Cells that failed, over every sweep of the run.
    failed: usize,
    reps: usize,
    /// Wall time of every timed sweep, in run order.
    sweep_samples: Vec<f64>,
    metrics: Vec<Metric>,
}

impl Report {
    fn count(&mut self, sweep: &SweepResult) {
        self.attempted += sweep.total_cells();
        self.failed += sweep.failed().len();
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs one sweep; a spec the engine rejects is a benchmark bug.
fn sweep(engine: &Engine, spec: &ExperimentSpec) -> SweepResult {
    engine
        .run(spec)
        .unwrap_or_else(|e| panic!("workload spec rejected by the engine: {e}"))
}

/// The set-up a sweep cannot avoid: every fleet generated and every
/// backend arm built, outside the engine.
fn setup(spec: &ExperimentSpec) {
    let mut fleets: Vec<FleetSpec> = Vec::new();
    for fleet in &spec.fleets {
        if !fleets.contains(fleet) {
            fleets.push(*fleet);
            black_box(fleet.generate());
        }
    }
    for &server in &spec.servers {
        for backend in &spec.backends {
            black_box(
                backend
                    .try_build(server)
                    .expect("both built-in backends build for both servers"),
            );
        }
    }
}

/// Simulated VM-hours in one sweep of `spec`: each cell evaluates one
/// week (168 hourly slots) of every VM of its fleet.
fn vm_hours(spec: &ExperimentSpec) -> f64 {
    spec.cells()
        .iter()
        .map(|c| c.fleet.num_vms as f64 * 168.0)
        .sum()
}

/// Whether every cell of `b` is bit-identical to the same cell of `a`.
fn same_sweep(a: &SweepResult, b: &SweepResult) -> bool {
    a.cells.len() == b.cells.len()
        && a.cells
            .iter()
            .zip(&b.cells)
            .all(|(x, y)| check::bit_identical(&x.outcome, &y.outcome))
}

/// High-water resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `--trace 0`: the end-to-end metrics, with nothing traced.
fn timed_mode(w: &Workload, args: &Args, report: &mut Report) {
    let spec = &w.spec;
    let engine = Engine::with_threads(w.workers);
    // The first sweep runs in a fresh process, as one `ntcdc sweep`
    // does: the memory high-water is read right after it. It is checked
    // in full, and the timed sweeps must reproduce it bit for bit.
    let reference = sweep(&engine, spec);
    let peak_rss = peak_rss_mib();
    report.count(&reference);
    report
        .problems
        .extend(check::check_sweep(w.name, args.seed, &reference));

    let setup_s: Vec<f64> = (0..SETUP_REPS).map(|_| timed(|| setup(spec)).1).collect();

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut sweep_s = Vec::new();
    while sweep_s.len() < MIN_REPS || started.elapsed() < budget {
        let (result, secs) = timed(|| sweep(&engine, spec));
        sweep_s.push(secs);
        report.count(&result);
        if !same_sweep(&reference, &result) {
            report.problems.push(format!(
                "sweep {} differs from the first sweep",
                sweep_s.len()
            ));
        }
    }
    report.reps = sweep_s.len();
    let sweep_median = median(&sweep_s);
    report.sweep_samples = sweep_s;
    report.metric("sweep_s", sweep_median, "s");
    report.metric("vm_hours_per_s", vm_hours(spec) / sweep_median, "1/s");
    report.metric("setup_s", median(&setup_s), "s");
    match peak_rss {
        Ok(mib) => report.metric("peak_rss_mb", mib, "MiB"),
        Err(e) => report.problems.push(e),
    }
}

/// Span names that are containers, not layers: their self time is the
/// traced run's unspanned remainder.
const CONTAINERS: [&str; 2] = ["bench.traced_run", "engine.cell"];

/// Layer spans the benchmark adds on top of the program's own work.
const BENCH_ONLY: [&str; 1] = ["bench.audit"];

/// The per-layer metrics of one traced repetition.
fn layer_metrics(
    run: &traced::TracedRun,
    sweep: &SweepResult,
    sweep_s: f64,
    serial_s: f64,
) -> Vec<Metric> {
    let times = run.tracer.self_times();
    let secs = |name: &str| times.get(name).map_or(0.0, |t| t.0);
    let c = &run.counters;
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    put("workload.generate_s", secs("workload.generate"), "s");
    put("forecast.forecast_s", secs("forecast.day"), "s");
    put("forecast.calls", c.forecast_calls as f64, "count");
    put("trace.daycache_build_s", secs("trace.daycache_build"), "s");
    put("trace.daycache_builds", c.daycache_builds as f64, "count");
    put("core.plan_inputs_s", secs("core.plan_inputs"), "s");
    for (_, suffix, span) in traced::POLICIES {
        put(&format!("core.allocate_s.{suffix}"), secs(span), "s");
        let calls = c.allocate_calls.get(span).copied().unwrap_or(0);
        put(
            &format!("core.allocate_calls.{suffix}"),
            calls as f64,
            "count",
        );
    }
    put("core.epact.alg1_slots", c.alg1_slots as f64, "count");
    put("core.epact.alg2_slots", c.alg2_slots as f64, "count");
    put("bench.audit_s", secs("bench.audit"), "s");
    put("replay.s", secs("replay"), "s");
    put("replay.slots", c.replay_slots as f64, "count");
    let cpu_overflows: usize = run.overflows.iter().map(|o| o.cpu).sum();
    let mem_overflows: usize = run.overflows.iter().map(|o| o.mem).sum();
    put("replay.cpu_overflow_samples", cpu_overflows as f64, "count");
    put("replay.mem_overflow_samples", mem_overflows as f64, "count");
    put("core.govern_s", secs("core.govern"), "s");
    put("core.governed_samples", c.governed_samples as f64, "count");
    put("backend.build_s", secs("backend.build"), "s");
    put(
        "backend.analytic.account_s",
        secs("backend.analytic.account"),
        "s",
    );
    put(
        "backend.archsim.account_s",
        secs("backend.archsim.account"),
        "s",
    );
    put("backend.account_calls", c.account_calls as f64, "count");

    let cache = sweep.cache_totals();
    let ratio = |hits: usize, misses: usize| {
        let base = hits + misses;
        if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        }
    };
    put("engine.plan_hits", cache.plan_hits as f64, "count");
    put("engine.plan_misses", cache.plan_misses as f64, "count");
    put(
        "engine.plan_hit_ratio",
        ratio(cache.plan_hits, cache.plan_misses),
        "ratio",
    );
    put("engine.forecast_hits", cache.forecast_hits as f64, "count");
    put(
        "engine.forecast_misses",
        cache.forecast_misses as f64,
        "count",
    );
    put(
        "engine.forecast_hit_ratio",
        ratio(cache.forecast_hits, cache.forecast_misses),
        "ratio",
    );
    put("engine.workers", sweep.threads as f64, "count");
    let cell_wall: f64 = sweep.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
    put("engine.cell_wall_sum_s", cell_wall, "s");

    // Every span nests under the root, so self times add up to its wall.
    let traced_wall: f64 = times.values().map(|t| t.0).sum();
    let layers: f64 = times
        .iter()
        .filter(|(name, _)| !CONTAINERS.contains(name))
        .map(|(_, t)| t.0)
        .sum();
    let bench_only: f64 = BENCH_ONLY.iter().map(|name| secs(name)).sum();
    put(
        "engine.busy_ratio",
        (layers - bench_only) / (sweep_s * sweep.threads as f64),
        "ratio",
    );
    put("bench.traced_wall_s", traced_wall, "s");
    put("bench.untraced_serial_s", serial_s, "s");
    put("bench.span_coverage", layers / traced_wall, "ratio");
    put("bench.unspanned_s", traced_wall - layers, "s");
    put("bench.tracing_overhead_s", traced_wall - serial_s, "s");
    m
}

/// `--trace 1`: the per-layer metrics from the traced run, checked bit
/// for bit against untraced sweeps of the same workload.
fn traced_mode(w: &Workload, args: &Args, report: &mut Report) -> Option<spans::Tracer> {
    let spec = &w.spec;
    let engine = Engine::with_threads(w.workers);
    let serial = Engine::with_threads(1);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Vec<Metric>> = Vec::new();
    let mut last_tracer = None;
    while reps.is_empty() || started.elapsed() < budget {
        let (result, sweep_s) = timed(|| sweep(&engine, spec));
        report.count(&result);
        report.sweep_samples.push(sweep_s);
        if reps.is_empty() {
            report
                .problems
                .extend(check::check_sweep(w.name, args.seed, &result));
        }
        let serial_s = if w.workers == 1 {
            sweep_s
        } else {
            let (serial_result, secs) = timed(|| sweep(&serial, spec));
            report.count(&serial_result);
            if !same_sweep(&result, &serial_result) {
                report
                    .problems
                    .push("the one-worker sweep differs from the workload's sweep".to_string());
            }
            secs
        };
        let run = traced::run(spec);
        report.attempted += run.outcomes.len();
        let labels: Vec<String> = spec
            .cells()
            .iter()
            .map(|c| c.label(spec.ablation))
            .collect();
        if run.outcomes.len() != result.cells.len() {
            report.problems.push(format!(
                "traced run produced {} cells, the engine {}",
                run.outcomes.len(),
                result.cells.len()
            ));
        }
        for (i, (traced, engine_cell)) in run.outcomes.iter().zip(&result.cells).enumerate() {
            if !check::bit_identical(traced, &engine_cell.outcome) {
                report.failed += 1;
                report.problems.push(format!(
                    "traced cell {i} ({}) differs from Engine::run",
                    labels[i]
                ));
            }
        }
        report.problems.extend(check::check_overflows(
            spec.predictor,
            &spec.cells(),
            &run.outcomes,
            &run.overflows,
        ));
        reps.push(layer_metrics(&run, &result, sweep_s, serial_s));
        last_tracer = Some(run.tracer);
    }
    report.reps = reps.len();
    for (k, (name, _, unit)) in reps[0].iter().enumerate() {
        let values: Vec<f64> = reps.iter().map(|r| r[k].1).collect();
        report.metric(name.clone(), median(&values), unit);
    }
    last_tracer
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The machine descriptor every result carries.
fn descriptor(w: &Workload, args: &Args, reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let vms: Vec<String> = w
        .spec
        .fleets
        .iter()
        .map(|f| f.num_vms.to_string())
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \
         \"engine_workers\": {}, \"rustc\": {}, \"profile\": {}, \"fleet_vms\": [{}], \
         \"cells\": {}, \"repetitions\": {reps}}}",
        json_string(w.name),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        w.workers,
        json_string(env!("SWEEPBENCH_RUSTC")),
        json_string(env!("SWEEPBENCH_PROFILE")),
        vms.join(", "),
        w.spec.cells().len(),
    )
}

fn write_out(file: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sweepbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {:?}; expected one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let mut report = Report::default();
    let tracer = if args.trace {
        traced_mode(&workload, &args, &mut report)
    } else {
        timed_mode(&workload, &args, &mut report);
        None
    };
    // Each repetition of the traced run repeats its checks.
    report.problems.sort();
    report.problems.dedup();
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.problems.push(format!("metric {name} is not finite"));
        }
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let machine = descriptor(&workload, &args, report.reps);
    let metrics = metrics_json(&report.metrics);
    let problems: Vec<String> = report.problems.iter().map(|p| json_string(p)).collect();
    let samples: Vec<String> = report.sweep_samples.iter().map(f64::to_string).collect();
    let result_file = format!(
        "{{\"machine\": {machine}, \"problems\": [{}], \"sweep_s_samples\": [{}], \
         \"metrics\": {metrics}}}\n",
        problems.join(", "),
        samples.join(", ")
    );
    let mut written = write_out(&format!("result-{tag}.json"), &result_file);
    if let (Some(tracer), Ok(())) = (&tracer, &written) {
        let labels: Vec<String> = workload
            .spec
            .cells()
            .iter()
            .map(|c| json_string(&c.label(workload.spec.ablation)))
            .collect();
        let dump = format!(
            "{{\"machine\": {machine}, \"cells\": [{}], \"spans\": {}}}\n",
            labels.join(", "),
            tracer.to_json()
        );
        written = write_out(&format!("spans-{tag}.json"), &dump);
    }
    if let Err(e) = written {
        report.problems.push(e);
    }

    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    println!("machine: {machine}");
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
