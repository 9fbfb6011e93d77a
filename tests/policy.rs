//! The workspace source policy (README, *Correctness tooling*) as a
//! test: clippy over every workspace target with warnings denied, so
//! the lint levels of `[workspace.lints]` and the banned types of the
//! `clippy.toml` files hold under a plain `cargo test`. Builds into its
//! own target directory, so it never waits on the build that runs it.
//! Skips with a message where `cargo clippy` is not installed.

use std::process::Command;

#[test]
fn workspace_passes_clippy_with_warnings_denied() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let root = env!("CARGO_MANIFEST_DIR");
    let has_clippy = Command::new(&cargo)
        .args(["clippy", "--version"])
        .current_dir(root)
        .output()
        .is_ok_and(|out| out.status.success());
    if !has_clippy {
        eprintln!("skipped: `{cargo} clippy --version` failed; the source policy is unchecked");
        return;
    }
    let out = Command::new(&cargo)
        .args([
            "clippy",
            "--offline",
            "--workspace",
            "--all-targets",
            "--target-dir",
            "target/policy",
            "--",
            "-D",
            "warnings",
        ])
        .current_dir(root)
        .output()
        .expect("cargo clippy starts");
    assert!(
        out.status.success(),
        "the workspace breaks the source policy:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
