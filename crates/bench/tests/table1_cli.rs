//! Command-line contract of the `table1` binary: a bad argument (usage
//! line) or a report path that cannot be created exits 2 before any
//! solving starts.

use std::process::Command;

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let cases: [&[&str]; 4] = [
        &["--family", "nope", "--json", "/dev/null"],
        &["--seeds", "many"],
        &["--timeout-ms"],
        &["--bogus"],
    ];
    for args in cases {
        let out =
            Command::new(env!("CARGO_BIN_EXE_table1")).args(args).output().expect("table1 runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: table1"), "{args:?}: stderr {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no table output before the usage error");
    }
}

/// A report path that cannot be created fails before any solving: exit
/// 2, and no table output.
#[test]
fn unwritable_json_path_exits_2_before_solving() {
    let args = ["--family", "acc", "--seeds", "1", "--timeout-ms", "20"];
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .args(["--json", "/nonexistent/dir/x.json"])
        .output()
        .expect("table1 runs");
    assert_eq!(out.status.code(), Some(2), "exit status");
    assert!(out.stdout.is_empty(), "table output: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/nonexistent/dir/x.json"), "stderr {stderr}");
}
