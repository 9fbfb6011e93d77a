//! Byte-exact golden of the paper's tables and figures.
//!
//! `golden/reproduce_t2.txt` is the stdout of every table / figure
//! binary at `LNPRAM_TRIALS=2`, in `run_all`'s order, recorded from the
//! binaries themselves; `EXPERIMENTS.md` at the repository root is the
//! same rendering at paper sizes (`LNPRAM_TRIALS` unset). Rendering of
//! the separators, fixed: each experiment is
//!
//! ```text
//! ## <id>\n\n<the experiment's output, byte for byte>\n---\n\n
//! ```
//!
//! Every printed number is a function of the seeds alone, so the file
//! does not depend on the thread count or the build profile.

use std::process::Command;

/// `(id, binary)` in `run_all`'s order.
const BINARIES: &[(&str, &str)] = &[
    ("figure1", env!("CARGO_BIN_EXE_figure1_leveled")),
    ("figure2", env!("CARGO_BIN_EXE_figure2_star")),
    ("figure3", env!("CARGO_BIN_EXE_figure3_star_logical")),
    ("figure4", env!("CARGO_BIN_EXE_figure4_shuffle")),
    ("figure5", env!("CARGO_BIN_EXE_figure5_mesh_slices")),
    ("thm21", env!("CARGO_BIN_EXE_table_thm21_leveled_routing")),
    ("thm22", env!("CARGO_BIN_EXE_table_thm22_star_routing")),
    ("thm23", env!("CARGO_BIN_EXE_table_thm23_shuffle_routing")),
    ("thm24", env!("CARGO_BIN_EXE_table_thm24_relation_routing")),
    ("lemma21", env!("CARGO_BIN_EXE_table_lemma21_retry")),
    ("lemma22", env!("CARGO_BIN_EXE_table_lemma22_hash_load")),
    ("cor31_33", env!("CARGO_BIN_EXE_table_cor31_33_buckets")),
    ("thm25", env!("CARGO_BIN_EXE_table_thm25_erew_leveled")),
    ("thm26", env!("CARGO_BIN_EXE_table_thm26_crcw_combining")),
    (
        "linear_array_lemma",
        env!("CARGO_BIN_EXE_table_linear_array_lemma"),
    ),
    (
        "intro_star_vs_cube",
        env!("CARGO_BIN_EXE_table_intro_star_vs_cube"),
    ),
    (
        "adversarial_mesh",
        env!("CARGO_BIN_EXE_table_adversarial_mesh"),
    ),
    (
        "deterministic_baseline",
        env!("CARGO_BIN_EXE_table_deterministic_baseline"),
    ),
    (
        "batcher_baseline",
        env!("CARGO_BIN_EXE_table_batcher_baseline"),
    ),
    (
        "constant_degree_hosts",
        env!("CARGO_BIN_EXE_table_constant_degree_hosts"),
    ),
    ("thm31", env!("CARGO_BIN_EXE_table_thm31_mesh_routing")),
    ("thm32", env!("CARGO_BIN_EXE_table_thm32_mesh_emulation")),
    ("thm33", env!("CARGO_BIN_EXE_table_thm33_locality")),
    (
        "ablate_discipline",
        env!("CARGO_BIN_EXE_table_ablate_discipline"),
    ),
    ("ablate_slice", env!("CARGO_BIN_EXE_table_ablate_slice")),
    (
        "ablate_hash_degree",
        env!("CARGO_BIN_EXE_table_ablate_hash_degree"),
    ),
    (
        "ablate_const_queue",
        env!("CARGO_BIN_EXE_table_ablate_const_queue"),
    ),
    (
        "level_congestion",
        env!("CARGO_BIN_EXE_table_level_congestion"),
    ),
];

#[test]
fn tables_and_figures_match_the_golden_at_two_trials() {
    let mut out = String::new();
    for (id, bin) in BINARIES {
        let run = Command::new(bin)
            .env("LNPRAM_TRIALS", "2")
            .output()
            .unwrap_or_else(|e| panic!("{id}: failed to launch {bin}: {e}"));
        assert!(run.status.success(), "{id} failed");
        let body = String::from_utf8(run.stdout).expect("utf-8 output");
        out.push_str(&format!("## {id}\n\n{body}\n---\n\n"));
    }
    let golden = include_str!("golden/reproduce_t2.txt");
    if out != golden {
        let line = out
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or(out.lines().count().min(golden.lines().count()), |i| i)
            + 1;
        panic!(
            "output differs from golden/reproduce_t2.txt at line {line}:\n  got:    {:?}\n  golden: {:?}",
            out.lines().nth(line - 1),
            golden.lines().nth(line - 1)
        );
    }
}
