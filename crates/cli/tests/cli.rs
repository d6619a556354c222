//! End-to-end tests of the `ntcdc` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ntcdc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_command_fails_with_usage() {
    let (ok, _, err) = run(&[]);
    assert!(!ok);
    assert!(err.contains("commands:"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, err) = run(&["fig99"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn help_succeeds() {
    let (ok, out, _) = run(&["--help"]);
    assert!(ok);
    assert!(out.contains("Consolidating or Not"));
}

#[test]
fn table1_prints_all_classes() {
    let (ok, out, _) = run(&["table1"]);
    assert!(ok);
    for class in ["low-mem", "mid-mem", "high-mem"] {
        assert!(out.contains(class), "missing {class}:\n{out}");
    }
}

#[test]
fn validate_reports_zero_deviation() {
    let (ok, out, _) = run(&["validate"]);
    assert!(ok);
    assert!(out.contains("F_NTC_opt off by 0 MHz"), "{out}");
}

#[test]
fn fig2_emits_csv() {
    let (ok, out, _) = run(&["fig2"]);
    assert!(ok);
    assert!(out.starts_with("workload,freq_mhz,normalized_time"));
    assert!(out.lines().count() > 20);
}

#[test]
fn week_small_fleet_runs() {
    let (ok, out, _) = run(&["week", "--vms", "24"]);
    assert!(ok, "{out}");
    assert!(out.contains("EPACT"));
    assert!(out.contains("saving vs COAT"));
}

#[test]
fn week_csv_mode() {
    let (ok, out, _) = run(&["week", "--vms", "24", "--csv"]);
    assert!(ok);
    assert!(out.starts_with("slot,epact_violations"));
}

#[test]
fn bad_option_value_fails_cleanly() {
    let (ok, _, err) = run(&["week", "--vms", "banana"]);
    assert!(!ok);
    assert!(err.contains("--vms"));
}

#[test]
fn fleet_stats_prints_classes() {
    let (ok, out, _) = run(&["fleet-stats", "--vms", "30"]);
    assert!(ok);
    assert!(out.contains("classes (low/mid/high):  10/10/10"), "{out}");
}

#[test]
fn emit_spec_carries_the_new_axes() {
    let (ok, out, _) = run(&[
        "sweep",
        "--seeds",
        "1,2,3",
        "--static-power-scales",
        "0.5,1.0",
        "--emit-spec",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("\"fleets\""), "{out}");
    assert!(out.contains("\"static_power_scales\": [0.5, 1]"), "{out}");
    // 3 fleets in the set
    assert_eq!(out.matches("\"seed\"").count(), 3, "{out}");
}

#[test]
fn seed_averaged_sweep_prints_mean_std_groups() {
    let (ok, out, _) = run(&[
        "sweep",
        "--vms",
        "10",
        "--seeds",
        "1,2",
        "--max-servers",
        "100",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("seed-averaged over 2 fleets"), "{out}");
    assert!(out.contains("±"), "{out}");
    // 2 seeds x 6 configs = 12 cells
    assert!(out.contains("12 cells"), "{out}");
}

#[test]
fn sweep_json_mode_emits_cells_and_groups() {
    let (ok, out, _) = run(&[
        "sweep",
        "--vms",
        "8",
        "--seeds",
        "1,2",
        "--static-power-scales",
        "1.0,1.5",
        "--max-servers",
        "80",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.contains("\"cells\""), "{out}");
    assert!(out.contains("\"groups\""), "{out}");
    assert!(out.contains("\"static_power_scale\": 1.5"), "{out}");
}

#[test]
fn legacy_single_fleet_spec_file_still_runs() {
    let dir = std::env::temp_dir();
    let path = dir.join("ntcdc_legacy_spec.json");
    std::fs::write(
        &path,
        r#"{
  "name": "legacy",
  "fleet": {"num_vms": 10, "seed": 3, "weeks": 2},
  "policies": ["epact"],
  "servers": ["ntc"],
  "max_servers": 100
}"#,
    )
    .unwrap();
    let (ok, out, err) = run(&["sweep", "--spec", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("1 cells"), "{out}");
    assert!(out.contains("EPACT/NTC"), "{out}");
}

/// The label column is as wide as the longest label, so every row of
/// the cell and seed-group tables lines up with its header even for
/// labels longer than 24 characters.
#[test]
fn sweep_tables_fit_long_labels() {
    let path = std::env::temp_dir().join("ntcdc_long_label_spec.json");
    std::fs::write(
        &path,
        r#"{
  "name": "long-labels",
  "fleets": [
    {"num_vms": 8, "seed": 1, "weeks": 2},
    {"num_vms": 8, "seed": 2, "weeks": 2}
  ],
  "policies": ["epact"],
  "servers": ["ntc"],
  "qos_floors_mhz": [null, 1200],
  "backends": ["analytic", "archsim"],
  "max_servers": 100
}"#,
    )
    .unwrap();
    let (ok, out, err) = run(&["sweep", "--spec", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("EPACT/NTC@1200MHz/archsim "), "{out}");
    for header in ["cell ", "group "] {
        let table: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with(header))
            .take_while(|l| !l.is_empty() && !l.starts_with("cell time"))
            .collect();
        assert!(table.len() > 1, "no {header}table:\n{out}");
        let width = table[0].chars().count();
        for row in &table {
            assert_eq!(row.chars().count(), width, "misaligned row {row:?}:\n{out}");
        }
    }
}

/// A spec nested far past any real one is a one-line error and exit
/// code 1, not a stack overflow that aborts the process.
#[test]
fn deeply_nested_spec_file_fails_cleanly() {
    let path = std::env::temp_dir().join("ntcdc_deep_spec.json");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ntcdc"))
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: parsing "), "{err}");
    assert!(err.contains("nesting"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
}

/// A negative QoS floor is rejected while the spec is validated, before
/// any fleet is generated or cell runs: one error line, exit code 1 and
/// no cell table.
#[test]
fn negative_qos_floor_spec_file_fails_cleanly() {
    let path = std::env::temp_dir().join("ntcdc_negative_floor_spec.json");
    std::fs::write(
        &path,
        r#"{
  "name": "negative-floor",
  "fleets": [{"num_vms": 8, "seed": 1, "weeks": 2}],
  "policies": ["epact"],
  "servers": ["ntc"],
  "qos_floors_mhz": [-5],
  "max_servers": 100
}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ntcdc"))
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let (stdout, err) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{err}");
    assert_eq!(
        err.trim_end(),
        "error: QoS floor must be finite and non-negative (got -5 MHz)"
    );
    assert!(stdout.is_empty(), "{stdout}");
}
