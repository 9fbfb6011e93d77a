//! `lnpram` refuses a star size that has no star graph with a typed
//! error (exit code 1 and a message naming the flag), on every command
//! that builds a star. These used to panic (exit code 101) inside
//! `StarGraph::new` / `factorial`.

use std::process::Command;

fn lnpram(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lnpram"))
        .args(args)
        .output()
        .expect("lnpram binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn star_sizes_without_a_star_graph_are_typed_errors() {
    let commands: [&[&str]; 6] = [
        &["audit", "--topology", "star"],
        &["route", "--topology", "star"],
        &["route", "--topology", "star", "--backend", "adaptive"],
        &["serve", "--topology", "star"],
        &["serve", "--topology", "star", "--backend", "adaptive"],
        &["emulate", "--host", "star"],
    ];
    for base in commands {
        for n in ["0", "1", "14", "100"] {
            let mut args = base.to_vec();
            args.extend(["--n", n]);
            let (code, stderr) = lnpram(&args);
            assert_eq!(code, Some(1), "{args:?}: {stderr}");
            let want = format!("error: --n {n}: star graph needs 2 <= n <= 13, got {n}");
            assert!(stderr.contains(&want), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn smallest_star_still_works() {
    let (code, stderr) = lnpram(&["audit", "--topology", "star", "--n", "2"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = lnpram(&["route", "--topology", "star", "--n", "3"]);
    assert_eq!(code, Some(0), "{stderr}");
}
