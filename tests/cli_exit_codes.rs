//! The `pbo-solve` exit code agrees with the PB-competition `s` line it
//! prints: 30 for `OPTIMUM FOUND`, 10 for `SATISFIABLE` (including a
//! decision instance solved to completion), 20 for `UNSATISFIABLE`. An
//! input error exits 2 and prints no `s` line at all.

use std::path::PathBuf;
use std::process::Command;

/// PB-competition exit code of an `s` line.
fn exit_code_of(s_line: &str) -> i32 {
    match s_line {
        "OPTIMUM FOUND" => 30,
        "SATISFIABLE" => 10,
        "UNSATISFIABLE" => 20,
        "UNKNOWN" => 0,
        other => panic!("unexpected s line `{other}`"),
    }
}

fn write_instance(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pbo-cli-{}-{name}.opb", std::process::id()));
    std::fs::write(&path, text).expect("write OPB file");
    path
}

/// Runs `pbo-solve` and returns (s line, exit code).
fn solve(path: &PathBuf, extra: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_pbo-solve"))
        .args(extra)
        .arg(path)
        .output()
        .expect("pbo-solve runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let s_line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("s "))
        .unwrap_or_else(|| panic!("no s line in {stdout}"))
        .to_string();
    (s_line, out.status.code().expect("exit code"))
}

#[test]
fn exit_code_matches_the_s_line() {
    let cases = [
        ("decision", "+1 x1 +1 x2 >= 1 ;\n+1 ~x1 +1 x3 >= 1 ;\n", "SATISFIABLE", 10),
        (
            "optimization",
            "min: +2 x1 +3 x2 +2 x3 ;\n+1 x1 +1 x2 >= 1 ;\n+1 x2 +1 x3 >= 1 ;\n",
            "OPTIMUM FOUND",
            30,
        ),
        ("infeasible", "+1 x1 >= 1 ;\n+1 x1 <= 0 ;\n", "UNSATISFIABLE", 20),
    ];
    for (name, text, want_s, want_code) in cases {
        let path = write_instance(name, text);
        // The default (local search first), the paper's solver alone,
        // and the default over a two-worker exact side.
        for extra in [&[][..], &["--strategy", "exact"][..], &["--bb-threads", "2"][..]] {
            let (s_line, code) = solve(&path, extra);
            assert_eq!(s_line, want_s, "{name} {extra:?}");
            assert_eq!(code, want_code, "{name} {extra:?}: exit code");
            assert_eq!(code, exit_code_of(&s_line), "{name} {extra:?}: exit vs s line");
        }
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn unwritable_trace_path_exits_2_without_an_s_line() {
    let path = write_instance(
        "trace-dir",
        "min: +2 x1 +3 x2 +2 x3 ;\n+1 x1 +1 x2 >= 1 ;\n+1 x2 +1 x3 >= 1 ;\n",
    );
    let trace = std::env::temp_dir()
        .join(format!("pbo-cli-{}-no-such-dir", std::process::id()))
        .join("t.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_pbo-solve"))
        .arg("--trace")
        .arg(&trace)
        .arg("--stats-json")
        .arg(&path)
        .output()
        .expect("pbo-solve runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}");
    assert!(!stdout.lines().any(|l| l.starts_with("s ")), "an s line was printed: {stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot write"),
        "stderr names the trace path"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn ls_threads_flag_is_a_usage_error() {
    let path = write_instance(
        "ls-threads",
        "min: +2 x1 +3 x2 +2 x3 ;\n+1 x1 +1 x2 >= 1 ;\n+1 x2 +1 x3 >= 1 ;\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_pbo-solve"))
        .args(["--strategy", "concurrent", "--ls-threads", "2"])
        .arg(&path)
        .output()
        .expect("pbo-solve runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}");
    assert!(!stdout.lines().any(|l| l.starts_with("s ")), "an s line was printed: {stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: pbo-solve"), "usage printed");
    let _ = std::fs::remove_file(path);
}
