//! Integration tests of the `matgnn-cli` binary: the generate → train →
//! info → evaluate pipeline through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_matgnn_cli"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("matgnn_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_pipeline_generate_train_info_evaluate() {
    let dir = tmpdir();
    let data = dir.join("pipeline.shard");
    let model = dir.join("pipeline.mgnn");

    let out = cli()
        .args(["generate", "--graphs", "40", "--seed", "5", "--out"])
        .arg(&data)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(data.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote 40 graphs"), "{stdout}");

    let out = cli()
        .args(["train", "--params", "2000", "--epochs", "2", "--data"])
        .arg(&data)
        .arg("--save")
        .arg(&model)
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("epoch  0"), "{stdout}");
    assert!(stdout.contains("saved model"), "{stdout}");

    let out = cli()
        .args(["info", "--model"])
        .arg(&model)
        .output()
        .expect("run info");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parameters:"), "{stdout}");
    assert!(stdout.contains("n_layers:      3"), "{stdout}");

    let out = cli()
        .args(["evaluate", "--model"])
        .arg(&model)
        .arg("--data")
        .arg(&data)
        .output()
        .expect("run evaluate");
    assert!(
        out.status.success(),
        "evaluate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("evaluation on 40 graphs"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_message() {
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn unknown_flag_fails_naming_it() {
    // A typo, and a flag another subcommand reads: neither runs with
    // defaults.
    for (args, flag) in [
        (&["train", "--graphs", "4", "--epoch", "1"][..], "--epoch"),
        (
            &["generate", "--graphs", "4", "--world", "2", "--out", "x"][..],
            "--world",
        ),
        (
            &["info", "--model", "m.mgnn", "--checkpointing"][..],
            "--checkpointing",
        ),
    ] {
        let out = cli().args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn missing_required_flag_fails() {
    let out = cli()
        .args(["generate", "--graphs", "5"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let out = cli().arg("help").output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"), "{stdout}");
    for sub in ["generate", "train", "evaluate", "info"] {
        assert!(stdout.contains(sub), "usage missing {sub}");
    }
}

#[test]
fn evaluate_missing_model_file_errors() {
    let out = cli()
        .args([
            "evaluate",
            "--model",
            "/nonexistent/model.mgnn",
            "--graphs",
            "4",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("loading"), "{stderr}");
}
