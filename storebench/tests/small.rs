//! Runs every workload in small-size mode, with every check, and checks
//! the result line the benchmark prints.

use std::path::PathBuf;
use std::process::Command;

const END_TO_END: [&str; 13] = [
    "setup_s",
    "cpu_us_per_op",
    "batch_cpu_p50_us",
    "box_cpu_p50_us",
    "box_cpu_p99_us",
    "knn_cpu_p50_us",
    "knn_cpu_p99_us",
    "get_cpu_p50_us",
    "snapshot_cpu_p50_us",
    "recovery_s",
    "disk_bytes_per_record",
    "write_bytes_per_record",
    "peak_rss_mib",
];

/// A scratch working directory per test, under the build's target dir.
fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn run(dir: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_storebench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run storebench");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("some output")
}

/// Pulls `"name": {"value": v` out of the result line.
fn value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[test]
fn every_workload_runs_checked_with_no_failures() {
    for workload in ["ingest", "query_z", "query_hilbert"] {
        let dir = work_dir(&format!("e2e-{workload}"));
        let (ok, stdout) = run(
            &dir,
            &[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--small",
            ],
        );
        assert!(ok, "{workload} failed:\n{stdout}");
        let line = last_line(&stdout);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        for name in END_TO_END {
            let v = value(line, name).unwrap_or_else(|| panic!("{workload}: no {name} in {line}"));
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        // The store directory is removed when the run ends.
        let left: Vec<_> = std::fs::read_dir(dir.join(".storebench"))
            .expect("work dir exists")
            .collect();
        assert!(left.is_empty(), "{workload}: left {left:?}");
    }
}

#[test]
fn traced_run_writes_per_layer_metrics_and_spans() {
    let dir = work_dir("traced");
    let (ok, stdout) = run(
        &dir,
        &[
            "--workload",
            "query_hilbert",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--small",
        ],
    );
    assert!(ok, "{stdout}");
    let line = last_line(&stdout);
    assert!(line.contains("\"correct\": true"), "{line}");
    for name in [
        "core.encode_ns_per_point",
        "index.decompose_us_per_box",
        "box.blocks_pruned_share",
        "write.residual_us",
        "wal.fsync_ns_p50",
        "recovery.replay_threads",
        "trace.overhead_pct",
    ] {
        assert!(value(line, name).is_some(), "no {name} in {line}");
    }
    // The batches written after the closing compaction are replayed.
    assert!(value(line, "recovery.replayed_records").is_some_and(|v| v > 0.0));
    assert!(
        value(line, "setup_s").is_none(),
        "traced run reports no end-to-end metric"
    );
    let trace = std::fs::read_to_string(dir.join(".storebench/trace-query_hilbert-5.json"))
        .expect("trace file");
    assert!(trace.contains("\"store.query_box\""));
    assert!(trace.contains("\"index.decompose\""));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let dir = work_dir("bad-args");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "ingest",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "ingest", "--seed", "1"][..],
    ] {
        let (ok, stdout) = run(&dir, args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{args:?}: {stdout}");
    }
}
