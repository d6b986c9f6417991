//! End to end at toy scale: `e2e run --smoke` drives all four workloads
//! (1k users, 2 s windows), each in its own child process, through
//! every stage and every correctness gate.

use std::process::Command;
use std::time::Instant;

#[test]
fn smoke_runs_all_four_workloads_and_every_gate_holds() {
    // Inside the build's own target directory: nothing is written
    // outside the checkout.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = dir.join("run.json");
    let started = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .current_dir(&dir)
        .args(["run", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("starting e2e");
    let elapsed = started.elapsed();
    let doc = std::fs::read_to_string(&out).expect("the run document");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(status.success(), "a gate was breached:\n{doc}");
    for workload in [
        "batch-mem-cosine",
        "batch-disk-spill",
        "serve-read-mostly",
        "serve-write-storm",
    ] {
        assert!(
            doc.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} missing"
        );
    }
    assert_eq!(doc.matches("\"correct\": true").count(), 4, "{doc}");
    assert_eq!(doc.matches("\"digests_agree\": true").count(), 4);
    // An optimised build takes ~15 s on two idle cores (the target is
    // under 20); the assertion leaves room for a busy host and still
    // catches a hang. Debug builds get the same budget scaled.
    let budget = if cfg!(debug_assertions) { 180 } else { 30 };
    assert!(elapsed.as_secs() < budget, "smoke took {elapsed:?}");
}
