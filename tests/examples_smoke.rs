//! Smoke-run every example binary so the examples can never silently rot.
//!
//! `cargo test` already *builds* the examples; this suite also *executes*
//! them (they are all small, fixed-size demos) and asserts a clean exit
//! plus non-empty output. Keep `EXAMPLES` in sync with `examples/`.

use std::path::PathBuf;
use std::process::Command;

/// Every example under `examples/`, kept in sync by
/// [`example_list_is_in_sync`].
const EXAMPLES: &[&str] = &[
    "connected_components",
    "crcw_hotspot",
    "deterministic_vs_hashed",
    "fault_injection",
    "mesh_locality",
    "quickstart",
    "routing_sessions",
    "routing_showdown",
    "sharded_butterfly",
    "star_pram_programs",
    "trace_serve",
];

/// Directory holding the compiled example binaries: the test executable
/// lives in `target/<profile>/deps/`, the examples in
/// `target/<profile>/examples/`.
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    exe.parent()
        .and_then(|deps| deps.parent())
        .expect("target profile dir")
        .join("examples")
}

#[test]
fn example_list_is_in_sync() {
    let src_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut on_disk: Vec<String> = std::fs::read_dir(src_dir)
        .expect("examples/ directory")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            (path.extension()? == "rs").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    on_disk.sort();
    assert_eq!(
        on_disk, EXAMPLES,
        "EXAMPLES in tests/examples_smoke.rs is out of sync with examples/"
    );
}

#[test]
fn all_examples_run_clean() {
    let dir = examples_dir();
    for name in EXAMPLES {
        let bin = dir.join(name);
        assert!(
            bin.exists(),
            "{} not built at {} (cargo builds examples before tests run)",
            name,
            bin.display()
        );
        let out = Command::new(&bin)
            // Keep any trial loops tiny; harmless for examples that
            // don't read the knob.
            .env("LNPRAM_TRIALS", "2")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert!(
            out.status.success(),
            "{} exited with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            name,
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stdout.is_empty(),
            "{name} printed nothing — examples should demo something"
        );
    }
}

/// `sharded_butterfly --time` (the serial-against-K = 2 timing harness)
/// on a small butterfly for a fraction of a second.
#[test]
fn sharded_butterfly_timing_harness_runs() {
    let bin = examples_dir().join("sharded_butterfly");
    let out = Command::new(&bin)
        .args(["--time", "4", "0.3"])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", bin.display()));
    assert!(out.status.success(), "exited with {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("butterfly(2,4) permutations, K = 2 over serial: median"),
        "{stdout}"
    );
}
