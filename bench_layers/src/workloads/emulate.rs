//! `emulate_star`: the paper's product — CRCW PRAM emulation on the
//! star graph, checked against the reference machine.

use crate::layers::{median_us, time_us, Trace};
use crate::stats::{median, mix};
use crate::workload::{Outcome, Size, Spec, Workload};
use lnpram_core::{EmuReport, EmulatorConfig, StarPramEmulator};
use lnpram_hash::{max_load, HashFamily};
use lnpram_math::rng::{splitmix64, SeedSeq};
use lnpram_math::stats::Histogram;
use lnpram_pram::programs::ConnectedComponents;
use lnpram_pram::{AccessMode, MemOp, PramMachine, PramProgram, WritePolicy};
use lnpram_routing::star::star_engine;
use lnpram_simnet::SimConfig;
use lnpram_topology::{Network, StarGraph};
use std::hint::black_box;

/// n of the star graph (120 processors, diameter 6).
const STAR_N: usize = 5;
/// The graph `lnpram emulate --host star --n 5` builds: 2E + V fits the
/// 120 processors.
const VERTICES: usize = 40;
const EDGES: usize = 40;
const MODE: AccessMode = AccessMode::Crcw(WritePolicy::Max);
const PRAM_STEP_CAP: usize = 1_000_000;

pub const STAR: Spec = Spec {
    name: "emulate_star",
    id: 6,
    why: "the paper's product, CRCW emulation on the 5-star: core + hash + pram, stateful combining and \
          hundreds of tiny engine runs per program, where reset cost matters",
    full: Size {
        distinct: 12,
        group: 1,
    },
    smoke: Size {
        distinct: 1,
        group: 1,
    },
};

/// One PRAM program and the memory image it must leave.
struct Program {
    edges: Vec<(usize, usize)>,
    seed: u64,
    expected: Vec<u64>,
    reference_steps: usize,
}

impl Program {
    fn make(&self) -> ConnectedComponents {
        ConnectedComponents::new(VERTICES, self.edges.clone())
    }

    fn emulator(&self) -> StarPramEmulator {
        StarPramEmulator::new(
            STAR_N,
            MODE,
            VERTICES as u64,
            EmulatorConfig {
                seed: self.seed,
                ..EmulatorConfig::default()
            },
        )
    }
}

/// The emulation workload: random graphs drawn from the seed.
pub struct EmulateStar {
    size: Size,
    programs: Vec<Program>,
}

impl EmulateStar {
    /// Draw the graphs from `seed` and run the reference machine on each.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let size = if smoke { STAR.smoke } else { STAR.full };
        let programs = (0..size.distinct)
            .map(|i| {
                let seed = mix(seed, STAR.id, i as u64);
                let mut state = seed ^ 0xC0_FFEE;
                let edges: Vec<(usize, usize)> = (0..EDGES)
                    .map(|_| {
                        let a = (splitmix64(&mut state) as usize) % VERTICES;
                        let b = (splitmix64(&mut state) as usize) % VERTICES;
                        (a, b)
                    })
                    .collect();
                let mut oracle = PramMachine::new(VERTICES as u64, MODE);
                let exec = oracle.run(
                    &mut ConnectedComponents::new(VERTICES, edges.clone()),
                    PRAM_STEP_CAP,
                );
                Program {
                    edges,
                    seed,
                    expected: oracle.memory().to_vec(),
                    reference_steps: exec.steps,
                }
            })
            .collect();
        EmulateStar { size, programs }
    }
}

fn outcome(rep: &EmuReport, diameter: usize, ok: bool) -> Outcome {
    let mut latency = Histogram::new(1);
    for s in &rep.steps {
        latency.record(u64::from(s.total_steps()));
    }
    Outcome {
        attempted: 1,
        failed: u64::from(!ok),
        work: rep.steps.iter().map(|s| u64::from(s.requests)).sum(),
        steps: rep.network_steps(),
        norm: (rep.pram_steps * diameter) as u64,
        budget: 0,
        max_queue: rep
            .steps
            .iter()
            .map(|s| u64::from(s.max_queue))
            .max()
            .unwrap_or(0),
        latency,
        censored: 0,
        error: (!ok).then(|| "emulate_star: memory image differs from the reference PRAM".into()),
    }
}

impl Workload for EmulateStar {
    fn spec(&self) -> &'static Spec {
        &STAR
    }

    fn size(&self) -> Size {
        self.size
    }

    // Every program runs on an emulator of its own, so there is no
    // session to keep: set-up is the emulator's construction.
    fn setup(&mut self) {}

    fn setup_sample(&self) {
        black_box(self.programs[0].emulator());
    }

    fn call(&mut self, i: usize) -> Outcome {
        let p = &self.programs[i];
        let mut emu = p.emulator();
        let mut prog = p.make();
        let rep = emu.run_program(&mut prog, PRAM_STEP_CAP);
        let image = emu.memory_image(VERTICES as u64);
        let ok = image == p.expected && prog.verify(&image);
        outcome(&rep, emu.diameter(), ok)
    }

    fn cli_args(&self) -> &'static [&'static str] {
        &[
            "emulate",
            "--host",
            "star",
            "--n",
            "5",
            "--program",
            "connected-components",
        ]
    }

    fn trace(&mut self, t: &mut Trace) {
        let distinct = self.programs.len();
        let star = StarGraph::new(STAR_N);
        let reps = t.reps(25, 1);
        t.set(
            "topology.build_us",
            median_us(reps, |_| StarGraph::new(STAR_N)),
        );
        t.set(
            "simnet.engine_build_us",
            median_us(reps, |_| star_engine(&star, SimConfig::default())),
        );
        t.set("topology.nodes", star.num_nodes() as f64);
        t.set(
            "topology.links",
            star_engine(&star, SimConfig::default()).num_links() as f64,
        );

        // hash: sampling a function, evaluating it, and how evenly it
        // spreads the address space over the modules.
        let family =
            HashFamily::for_diameter(VERTICES as u64, star.num_nodes() as u64, star.diameter(), 1);
        t.set(
            "hash.sample_us",
            median_us(t.reps(200, 2), |i| {
                family.sample(&mut SeedSeq::new(i as u64).rng())
            }),
        );
        let hash = family.sample(&mut SeedSeq::new(self.programs[0].seed).child(0).rng());
        let evals = t.reps(200_000, 1_000) as u64;
        let (_, us) = time_us(|| {
            for x in 0..evals {
                black_box(hash.eval(black_box(x % VERTICES as u64)));
            }
        });
        t.set("hash.eval_ns", us * 1e3 / evals as f64);
        t.set(
            "hash.max_module_load",
            f64::from(max_load(&hash, 0..VERTICES as u64)),
        );

        // pram: the reference machine on the same programs.
        t.set(
            "pram.reference_run_us",
            median_us(t.reps(20, 1), |i| {
                let p = &self.programs[i % distinct];
                PramMachine::new(VERTICES as u64, MODE).run(&mut p.make(), PRAM_STEP_CAP)
            }),
        );
        t.set(
            "pram.steps_per_program",
            self.programs
                .iter()
                .map(|p| p.reference_steps as f64)
                .sum::<f64>()
                / distinct as f64,
        );

        // core: the public call, then the same program driven one PRAM
        // step at a time through `emulate_step`.
        let (mut plain_us, mut traced_ns) = (0.0, 0u64);
        let mut reports = Vec::new();
        for i in 0..(distinct / 10).max(1) {
            t.rec.set_request(i);
            let (plain, us) = time_us(|| self.call(i));
            plain_us += us;

            let p = &self.programs[i % distinct];
            t.rec.begin("request");
            let mut emu = p.emulator();
            let public = emu.run_program(&mut p.make(), PRAM_STEP_CAP);
            traced_ns += t.rec.end();

            t.rec.begin("replay");
            let mut emu = t.rec.span("core.emulator_build", || p.emulator());
            let mut prog = p.make();
            let procs = prog.processors();
            let mut last_read: Vec<Option<u64>> = vec![None; procs];
            // `run_program`'s loop, with a span around each step. Only
            // `run_program` can load a program's initial memory, so it
            // is called once on a program that halts at step 0.
            let stepped = {
                emu.run_program(&mut InitialMemoryOnly(&prog), PRAM_STEP_CAP);
                let mut step = 0;
                loop {
                    let ops: Vec<MemOp> =
                        (0..procs).map(|q| prog.op(q, step, last_read[q])).collect();
                    if ops.iter().all(|o| matches!(o, MemOp::Halt)) {
                        break;
                    }
                    let reads = t
                        .rec
                        .span("core.emulate_step", || emu.emulate_step(&ops, step as u64));
                    for (q, value) in reads {
                        last_read[q] = Some(value);
                    }
                    step += 1;
                }
                emu.report().clone()
            };
            t.rec.end();
            t.check(
                stepped.network_steps() == public.network_steps()
                    && emu.memory_image(VERTICES as u64) == p.expected
                    && plain.error.is_none(),
                || format!("emulate_star: stepped and whole-program runs of program {i} disagree"),
            );
            reports.push(public);
        }
        let n = reports.len() as f64;
        t.set_trace_overhead(traced_ns, plain_us);
        t.set(
            "core.emulator_build_us",
            t.rec.total_ns("core.emulator_build") as f64 / 1e3 / n,
        );
        let step_us: Vec<f64> = t
            .rec
            .durations_ns("core.emulate_step")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        t.set("core.emulate_step_us_p50", median(&step_us));

        // Exact emulation counts over the traced programs.
        let steps: Vec<_> = reports.iter().flat_map(|r| r.steps.iter()).collect();
        let per_step = |f: &dyn Fn(&lnpram_core::StepStats) -> u32| -> f64 {
            steps.iter().map(|s| f64::from(f(s))).sum::<f64>() / steps.len().max(1) as f64
        };
        t.set("core.request_steps", per_step(&|s| s.request_steps));
        t.set("core.reply_steps", per_step(&|s| s.reply_steps));
        t.set("core.service_steps", per_step(&|s| s.service_steps));
        t.set("core.requests_per_step", per_step(&|s| s.requests));
        t.set("core.combined_per_step", per_step(&|s| s.combined));
        t.set(
            "core.rehashes_per_program",
            reports.iter().map(|r| f64::from(r.rehashes)).sum::<f64>() / n,
        );
        let max_queue = steps.iter().map(|s| s.max_queue).max().unwrap_or(0);
        t.set("core.max_queue", f64::from(max_queue));
        t.set("simnet.max_queue", f64::from(max_queue));
        t.set(
            "simnet.steps_per_req",
            reports
                .iter()
                .map(|r| r.network_steps() as f64)
                .sum::<f64>()
                / n,
        );
    }
}

/// A program's initial memory and nothing else: every processor halts
/// at step 0.
struct InitialMemoryOnly<'a, P>(&'a P);

impl<P: PramProgram> PramProgram for InitialMemoryOnly<'_, P> {
    fn processors(&self) -> usize {
        self.0.processors()
    }
    fn address_space(&self) -> u64 {
        self.0.address_space()
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        self.0.initial_memory()
    }
    fn op(&mut self, _proc: usize, _step: usize, _last_read: Option<u64>) -> MemOp {
        MemOp::Halt
    }
}
