//! `lnpram` refuses a host size that has no star graph, butterfly, mesh
//! or replica placement with a typed error (exit code 1 and a message
//! naming the flag), on every command that builds one. These used to
//! panic (exit code 101) inside the constructors — or abort (134) sizing
//! a program for `2^40` processors. Plus the happy paths of `emulate`
//! and of `route --shards`.

use std::process::Command;

fn lnpram_output(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lnpram"))
        .args(args)
        .output()
        .expect("lnpram binary runs")
}

fn lnpram(args: &[&str]) -> (Option<i32>, String) {
    let out = lnpram_output(args);
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

#[test]
fn bad_host_sizes_are_typed_errors() {
    let cases: [(&[&str], &str, &str); 16] = [
        (&["emulate", "--host", "butterfly"], "copies", "2"),
        (&["emulate", "--host", "butterfly"], "copies", "0"),
        (&["emulate", "--host", "butterfly"], "copies", "9"),
        (&["emulate", "--host", "butterfly"], "k", "0"),
        (&["emulate", "--host", "butterfly"], "k", "40"),
        (&["emulate", "--host", "mesh"], "n", "0"),
        (&["audit", "--topology", "butterfly"], "k", "0"),
        (&["route", "--topology", "butterfly"], "k", "0"),
        (&["serve", "--topology", "butterfly"], "k", "0"),
        (&["audit", "--topology", "mesh"], "n", "0"),
        (&["route", "--topology", "mesh"], "n", "0"),
        (
            &["route", "--topology", "mesh", "--backend", "adaptive"],
            "algorithm",
            "bogus",
        ),
        (
            &["serve", "--topology", "mesh", "--backend", "adaptive"],
            "algorithm",
            "three-stage",
        ),
        (
            &["route", "--topology", "mesh", "--backend", "adaptive"],
            "n",
            "0",
        ),
        (&["serve", "--topology", "mesh"], "n", "0"),
        (&["audit", "--topology", "butterfly"], "d", "1"),
    ];
    for (base, flag, value) in cases {
        let flag_arg = format!("--{flag}");
        let mut args = base.to_vec();
        args.extend([flag_arg.as_str(), value]);
        let (code, stderr) = lnpram(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        let want = format!("error: --{flag} {value}: ");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn emulate_verifies_every_program_on_every_host() {
    // Small sizes, and the smallest each helper accepts: star and mesh
    // hosts have `n!` / `n²` processors, so the programs must size
    // themselves to counts that are not powers of two — down to one.
    let hosts: [&[&str]; 10] = [
        &["--host", "butterfly", "--k", "3"],
        &["--host", "star", "--n", "3"],
        &["--host", "mesh", "--n", "3"],
        &["--host", "butterfly", "--k", "3", "--copies", "3"],
        &["--host", "star", "--n", "3", "--copies", "3"],
        &["--host", "mesh", "--n", "3", "--copies", "3"],
        &["--host", "butterfly", "--k", "1"],
        &["--host", "star", "--n", "2"],
        &["--host", "mesh", "--n", "1"],
        &["--host", "butterfly", "--k", "1", "--copies", "1"],
    ];
    for host in hosts {
        for program in [
            "prefix-sum",
            "reduction-max",
            "histogram",
            "connected-components",
        ] {
            let mut args = vec!["emulate"];
            args.extend(host);
            args.extend(["--program", program]);
            let out = lnpram_output(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
            let want = format!("{}: memory image matches the reference PRAM", host[1]);
            assert!(stdout.contains(&want), "{args:?}: {stdout}");
        }
    }
}

#[test]
fn route_prints_the_same_line_serial_and_sharded() {
    // `--shards K` works on every topology, including the ones with no
    // level or row structure to align a cut to, and never moves a
    // number: the report line is the serial one.
    let topologies: [&[&str]; 4] = [
        &["--topology", "star", "--n", "5"],
        &["--topology", "cube", "--k", "6"],
        &["--topology", "ccc", "--n", "3"],
        &["--topology", "shuffle", "--n", "3"],
    ];
    for topology in topologies {
        let line = |shards: &'static str| {
            let mut args = vec!["route"];
            args.extend(topology);
            args.extend(["--shards", shards]);
            let out = lnpram_output(&args);
            assert_eq!(out.status.code(), Some(0), "{args:?}");
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let serial = line("0");
        assert!(serial.contains("time mean"), "{topology:?}: {serial}");
        assert_eq!(serial, line("4"), "{topology:?}");
    }
}
