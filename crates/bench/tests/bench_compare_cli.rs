//! Command-line contract of the `bench_compare` binary: every path
//! before the last is a baseline, the last is the current report; exit 0
//! when every gate holds, 1 on a regression, 2 on a usage or IO error.

use std::process::{Command, Output};

fn repo_path(path: &str) -> String {
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

fn bench_compare(args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare")).args(args).output().expect("runs")
}

fn snapshots() -> Vec<String> {
    ["pr7", "pr8", "pr10"]
        .iter()
        .map(|pr| repo_path(&format!("benches/snapshots/BENCH_table1_{pr}.json")))
        .collect()
}

#[test]
fn committed_report_passes_against_every_snapshot_in_one_run() {
    let mut args = snapshots();
    args.push(repo_path("BENCH_table1.json"));
    let out = bench_compare(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    for gate in pbo_bench::gates::REPORT_GATES {
        assert!(stdout.contains(&format!("ok   {}: ", gate.name)), "{}: {stdout}", gate.name);
    }
    assert_eq!(stdout.matches("anytime gate: 0 violation(s)").count(), 3, "{stdout}");
}

#[test]
fn a_failing_report_gate_exits_1_and_names_the_gate() {
    let text = std::fs::read_to_string(repo_path("BENCH_table1.json")).unwrap();
    let failing = text.replacen("\"missed_targets\": 0", "\"missed_targets\": 1", 1);
    assert_ne!(failing, text, "the report holds a missed_targets count");
    let path = format!("{}/missed_target.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, failing).unwrap();
    let out = bench_compare(&[snapshots().remove(0), path]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REGRESSION: portfolio: missed targets: 1 (gate == 0)"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn usage_and_io_errors_exit_2() {
    let report = repo_path("BENCH_table1.json");
    let cases: [Vec<String>; 4] = [
        vec![],
        vec![report.clone()],
        vec!["--min-throughput-ratio".into(), "0.1".into(), report.clone(), report.clone()],
        vec![repo_path("no-such-report.json"), report],
    ];
    for args in cases {
        let out = bench_compare(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no gate output before the error");
    }
}
