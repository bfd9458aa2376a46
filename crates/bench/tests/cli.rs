//! The `matgnn_bench` command line: target dispatch and exit codes.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    let exe = env!("CARGO_BIN_EXE_matgnn_bench");
    Command::new(exe)
        .args(args)
        .output()
        .expect("run matgnn_bench")
}

fn csv_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.starts_with("csv,")).collect()
}

/// Fig. 1 is a static table (no training, no mode dependence), so its
/// rows must equal the committed full run's.
#[test]
fn fig1_rows_match_the_committed_results() {
    let out = bench(&["fig1"]);
    assert!(out.status.success(), "fig1 exited {:?}", out.status);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/exp_fig1_full.txt"
    );
    let committed = std::fs::read_to_string(path).expect("read results/exp_fig1_full.txt");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(!csv_lines(&committed).is_empty());
    assert_eq!(csv_lines(&stdout), csv_lines(&committed));
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [&["nope"][..], &["fig1", "--bogus"], &[]] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: matgnn_bench"), "{args:?}: {stderr}");
        assert!(stderr.contains("graphpar"), "target list missing: {stderr}");
        assert!(out.stdout.is_empty(), "args {args:?} ran something");
    }
}
