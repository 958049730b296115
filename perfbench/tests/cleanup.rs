//! Runs the benchmark binary end to end in a fresh working directory
//! and checks the result line and that the run left nothing behind:
//! no shard sweep directory, no serve store, no scratch directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

fn bench(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_codesign-perfbench"))
        .args(args)
        .current_dir(dir)
        .env_remove("CODESIGN_FAULT_SPEC")
        .output()
        .expect("spawn the benchmark")
}

fn assert_empty(dir: &PathBuf) {
    let left: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read the working directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    assert!(left.is_empty(), "the run left {left:?} behind");
    std::fs::remove_dir(dir).expect("remove the working directory");
}

fn run_traced(workload: &str) {
    let dir = fresh_dir(&format!("cleanup-{workload}"));
    let out = bench(
        &dir,
        &[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(stdout.lines().next().unwrap().contains("\"held_out_seed\""));
    assert_empty(&dir);
}

#[test]
fn serve_tenants_removes_its_store() {
    run_traced("serve_tenants");
}

#[test]
fn flow_paper_removes_its_shard_sweep_directories() {
    run_traced("flow_paper");
}

#[test]
fn refuses_a_fault_plan_without_writing() {
    let dir = fresh_dir("cleanup-fault-plan");
    let out = Command::new(env!("CARGO_BIN_EXE_codesign-perfbench"))
        .args([
            "--workload",
            "flow_paper",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(&dir)
        .env("CODESIGN_FAULT_SPEC", "seed=1")
        .output()
        .expect("spawn the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
    assert_empty(&dir);
}

#[test]
fn rejects_an_unknown_workload() {
    let dir = fresh_dir("cleanup-unknown");
    let out = bench(
        &dir,
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert_empty(&dir);
}
