//! The correlation hot-loop bench: an EPACT week with the day-level
//! moment cache (default) against the legacy per-slot Pearson rebuild
//! (`day_moment_cache(false)`), on the default 60-VM fleet.
//!
//! EPACT re-plans all 24 slots of every day, and each plan touches
//! O(n²) pairwise covariances; the day cache keeps one copy of the day
//! and fills one plane of pair product sums per slot window, which
//! every admit of that slot's packing streams, instead of re-centering
//! all series and re-accumulating pair products per slot.
//! The explicit min-of-5 comparison printed before the criterion runs
//! is the PR's acceptance measurement: cached must be strictly faster.

use criterion::{criterion_group, criterion_main, Criterion};
use ntc_core::Epact;
use ntc_datacenter::WeekSim;
use ntc_power::ServerPowerModel;
use ntc_workload::{ClusterTraceGenerator, Fleet};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn fleet() -> Fleet {
    let vms = if criterion::test_mode() { 16 } else { 60 };
    ClusterTraceGenerator::google_like(vms, 2018).generate()
}

/// Min-of-7 for both sims, with the samples interleaved so frequency
/// scaling and thermal drift hit the two contenders alike.
fn interleaved_mins(a: &WeekSim<'_>, b: &WeekSim<'_>, policy: &Epact) -> (Duration, Duration) {
    let sample = |sim: &WeekSim<'_>| {
        let t = Instant::now();
        black_box(sim.run_with_oracle(policy));
        t.elapsed()
    };
    let (_, _) = (sample(a), sample(b)); // warm-up
    let mut ta = Duration::MAX;
    let mut tb = Duration::MAX;
    for _ in 0..7 {
        ta = ta.min(sample(a));
        tb = tb.min(sample(b));
    }
    (ta, tb)
}

fn bench(c: &mut Criterion) {
    let fleet = fleet();
    let cached = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
    let rebuild = WeekSim::builder(&fleet, ServerPowerModel::ntc(), 600)
        .day_moment_cache(false)
        .build_or_panic();
    let policy = Epact::new();

    if criterion::test_mode() {
        // Smoke mode doubles as an equivalence check: identical
        // violation accounting and energy within exact-score-tie noise.
        let a = cached.run_with_oracle(&policy);
        let b = rebuild.run_with_oracle(&policy);
        assert_eq!(a.total_violations(), b.total_violations());
        let (ea, eb) = (a.total_energy().as_joules(), b.total_energy().as_joules());
        assert!(
            (ea - eb).abs() <= 1e-3 * eb,
            "day cache moved energy beyond tie noise: {ea} vs {eb}"
        );
    } else {
        let (t_cached, t_rebuild) = interleaved_mins(&cached, &rebuild, &policy);
        println!(
            "corr: EPACT week x{} VMs, day-cached {:.1}ms vs slot-rebuild {:.1}ms -> {:.2}x",
            fleet.len(),
            t_cached.as_secs_f64() * 1e3,
            t_rebuild.as_secs_f64() * 1e3,
            t_rebuild.as_secs_f64() / t_cached.as_secs_f64()
        );
        assert!(
            t_cached < t_rebuild,
            "day-cached week must be strictly faster: {t_cached:?} vs {t_rebuild:?}"
        );
    }

    c.bench_function("corr/epact_week_day_cached", |b| {
        b.iter(|| black_box(cached.run_with_oracle(&policy)))
    });
    c.bench_function("corr/epact_week_slot_rebuild", |b| {
        b.iter(|| black_box(rebuild.run_with_oracle(&policy)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
