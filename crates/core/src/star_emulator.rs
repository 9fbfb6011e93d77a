//! Corollaries 2.3 and 2.5: the physical n-star graph as an emulation
//! host ([`StarHost`], driven by [`PramEmulator`]).
//!
//! Every node of the n-star hosts one processor *and* one memory module
//! (the paper's parallel model). Requests are routed by Algorithm 2.2 —
//! random intermediate node along the canonical oblivious path, then on
//! to the module — and read replies retrace the request trees backward
//! (SWAP edges are involutions, so the reverse port equals the forward
//! port and the star needs no separate reply network).
//!
//! **Combining safety.** On the leveled networks the request paths move
//! strictly forward by column, so pending entries can never form a cycle.
//! On the star, two packets travelling toward *different random
//! intermediates* could each get absorbed into the other's trail —
//! a deadlock. The canonical phase-2 route, however, decreases the
//! distance to the module by exactly one per hop, so phase-2 trails are
//! acyclic. We therefore keep phase-1 trails *private* (opened without a
//! key, so no other request can join them) and let them join the shared
//! phase-2 tree, keyed by `(node, address)`, at the
//! intermediate node through a [`Source::Chain`] link; the reply unwinds
//! the shared tree and then each private trail. Combining across
//! requesters happens exactly where it is safe — the convergent phase —
//! which is also where the hot-spot traffic concentrates.

use crate::combining::{EntryId, Hop, PendingTables, Source};
use crate::config::EmulatorConfig;
use crate::emulator::{EmuHost, PhaseOutcome, PramEmulator, Request};
use crate::memory::{ModuleArray, ModuleRequest, ServedRead};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::AccessMode;
use lnpram_routing::star::{star_table_engine, StarRouter};
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::{Network, StarGraph, StarTable};
use rand::Rng;

/// The n-star as an emulation host: Algorithm 2.2 requests, replies
/// retracing the request trees.
/// Both phases run through `AnyEngine::run`, the sharded engine's central
/// loop on the calling thread: their protocols keep cross-node state.
pub struct StarHost {
    /// Everything the protocols ask of the star per hop (next port,
    /// reverse port), tabulated once.
    table: StarTable,
    tables: PendingTables,
    /// One persistent engine serves both phases (the star is its own
    /// reply network); recycled with `reset` per phase. Serial or
    /// sharded (balanced node-id ranges — the star has no level/row
    /// structure) per [`EmulatorConfig::shards`].
    engine: AnyEngine,
    combining: bool,
}

/// The PRAM emulator on the n-star graph (Corollaries 2.3/2.5).
pub type StarPramEmulator = PramEmulator<StarHost>;

impl StarPramEmulator {
    /// Emulator on the n-star for programs over `address_space` cells.
    pub fn new(n: usize, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let table = StarTable::new(StarGraph::new(n));
        // Same construction as `StarRoutingSession` (FIFO queues, as
        // Theorems 2.1/2.4 assume), built once and recycled per phase.
        let engine = star_table_engine(
            &table,
            SimConfig {
                shards: cfg.shards,
                ..Default::default()
            },
        );
        let host = StarHost {
            tables: PendingTables::new(table.num_nodes()),
            table,
            engine,
            combining: cfg.combining,
        };
        PramEmulator::with_host(host, mode, address_space, cfg)
    }
}

impl EmuHost for StarHost {
    /// `n!` nodes, each a processor and a module.
    fn processors(&self) -> usize {
        self.table.num_nodes()
    }

    /// Star-graph diameter `⌊3(n−1)/2⌋` — the Õ(n) normalisation.
    fn diameter(&self) -> usize {
        self.table.star().diameter()
    }

    /// Request path length ≤ 2×diameter (via + dest legs).
    fn phase_bound(&self) -> usize {
        2 * self.diameter()
    }

    fn broadcast_steps(&self) -> usize {
        self.diameter()
    }

    fn route_requests(
        &mut self,
        requests: &[Request],
        modules: &mut ModuleArray,
        budget: u32,
        seq: SeedSeq,
    ) -> Option<PhaseOutcome> {
        let (engine, mut proto) = self.request_phase(requests, modules, budget, seq);
        let out = engine.run(&mut proto);
        out.completed.then(|| PhaseOutcome {
            combined: self.tables.combined(),
            ..PhaseOutcome::of(&out.metrics)
        })
    }

    /// Retrace the trees; SWAP ports are involutions, so the request
    /// engine is the reply network.
    fn route_replies(
        &mut self,
        reads: &[ServedRead],
        _seq: SeedSeq,
        replies: &mut Vec<(usize, u32)>,
    ) -> PhaseOutcome {
        let (engine, mut proto) = self.reply_phase(reads, replies);
        let out = engine.run(&mut proto);
        debug_assert!(out.completed);
        debug_assert!(self.tables.all_clear(), "unconsumed pending entries");
        PhaseOutcome::of(&out.metrics)
    }
}

impl StarHost {
    /// The request phase ready to run: tables and engine reset, the
    /// requests injected, and the protocol to drive them with.
    fn request_phase<'a>(
        &'a mut self,
        requests: &'a [Request],
        modules: &'a mut ModuleArray,
        budget: u32,
        seq: SeedSeq,
    ) -> (&'a mut AnyEngine, StarRequestProtocol<'a>) {
        self.tables.reset();
        self.engine.reset();
        self.engine.set_max_steps(budget);
        let mut via_rng = seq.rng();
        for (id, req) in requests.iter().enumerate() {
            let via = via_rng.gen_range(0..self.processors()) as u32;
            let mut pkt = Packet::new(id as u32, req.proc as u32, req.module)
                .with_via(via)
                .with_tag(req.key);
            pkt.hop = u8::from(req.write.is_some());
            self.engine.inject(req.proc, pkt);
        }
        let proto = StarRequestProtocol {
            table: &self.table,
            tables: &mut self.tables,
            modules,
            requests,
            combining: self.combining,
        };
        (&mut self.engine, proto)
    }

    /// The reply phase ready to run, likewise.
    fn reply_phase<'a>(
        &'a mut self,
        reads: &[ServedRead],
        replies: &'a mut Vec<(usize, u32)>,
    ) -> (&'a mut AnyEngine, StarReplyProtocol<'a>) {
        self.engine.reset();
        self.engine.set_max_steps(u32::MAX);
        for (i, read) in reads.iter().enumerate() {
            self.engine
                .inject(read.module, Packet::new(i as u32, 0, 0).with_via(read.tag));
        }
        let proto = StarReplyProtocol {
            tables: &mut self.tables,
            replies,
        };
        (&mut self.engine, proto)
    }
}

/// Request protocol: Algorithm 2.2 with phase-aware combining (see the
/// module docs for why phase-1 trails stay private). A read request
/// carries, in `via2`, the id of the entry it left at the previous node.
struct StarRequestProtocol<'a> {
    table: &'a StarTable,
    tables: &'a mut PendingTables,
    modules: &'a mut ModuleArray,
    requests: &'a [Request],
    combining: bool,
}

impl Protocol for StarRequestProtocol<'_> {
    const NODE_LOCAL: bool = true;

    fn on_packet(&mut self, node: usize, mut pkt: Packet, step: u32, out: &mut Outbox) {
        let key = pkt.tag;
        let is_write = pkt.hop == 1;

        if !is_write {
            let source = if step == 0 {
                Source::Local
            } else {
                // SWAP edges are involutions: the port back to `prev` is
                // the reply port.
                let port = self.table.port_to(node, pkt.prev as usize);
                Source::Link(Hop {
                    port: port.expect("star is undirected") as u32,
                    entry: EntryId(pkt.via2),
                })
            };
            let entry = if pkt.phase == 0 {
                Some(self.tables.open(source))
            } else {
                self.tables.register(self.combining, node, key, source)
            };
            let Some(entry) = entry else {
                out.absorb(pkt); // merged into the shared phase-2 tree
                return;
            };
            pkt.via2 = entry.0;
        }

        // Phase transition at the intermediate node: a read's phase-1
        // trail joins (or opens) the phase-2 trail here via a chain link.
        if pkt.phase == 0 && node == pkt.via as usize {
            pkt.phase = 1;
            if !is_write {
                let chain = Source::Chain(EntryId(pkt.via2));
                let Some(entry) = self.tables.register(self.combining, node, key, chain) else {
                    out.absorb(pkt);
                    return;
                };
                pkt.via2 = entry.0;
            }
        }

        if pkt.phase == 1 && node == pkt.dest as usize {
            let req = &self.requests[pkt.id as usize];
            let buffered = match req.write {
                Some(value) => ModuleRequest::Write {
                    key,
                    value,
                    proc: req.proc,
                },
                None => ModuleRequest::Read { key, tag: pkt.via2 },
            };
            self.modules.buffer(node, buffered);
            out.deliver(pkt);
            return;
        }
        pkt.prev = node as u32;
        StarRouter::new(self.table).on_packet(node, pkt, step, out);
    }
}

/// Reply protocol: unwind the shared tree, then every chained private
/// trail, delivering at `local` marks. A reply packet carries, in `via`,
/// the id of the entry it is bound for.
struct StarReplyProtocol<'a> {
    tables: &'a mut PendingTables,
    replies: &'a mut Vec<(usize, u32)>,
}

impl StarReplyProtocol<'_> {
    fn unwind(&mut self, node: usize, id: EntryId, pkt: Packet, out: &mut Outbox) {
        let entry = self.tables.take(id);
        if entry.local {
            self.replies.push((node, pkt.id));
        }
        let mut chains = entry.chains;
        while let Some(chain) = self.tables.next(&mut chains) {
            self.unwind(node, chain.entry, pkt, out);
        }
        for hop in self.tables.iter(entry.fanout) {
            out.send(hop.port as usize, pkt.with_via(hop.entry.0));
        }
    }
}

impl Protocol for StarReplyProtocol<'_> {
    const NODE_LOCAL: bool = true;

    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let before = out.pending_sends();
        self.unwind(node, EntryId(pkt.via), pkt, out);
        if out.pending_sends() == before {
            out.deliver(pkt); // leaf: nothing forwarded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_local::{assert_paths_agree, drive, Phases, MODE, SPACE};
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::{PramProgram, WritePolicy};
    use lnpram_pram::programs::{Broadcast, Histogram, PermutationTraffic, PrefixSum};
    use lnpram_routing::workloads;
    use lnpram_simnet::RunOutcome;

    impl Phases for StarHost {
        fn requests(
            &mut self,
            requests: &[Request],
            modules: &mut ModuleArray,
            budget: u32,
            seq: SeedSeq,
            grouped: bool,
        ) -> (RunOutcome, u32) {
            let (engine, mut proto) = self.request_phase(requests, modules, budget, seq);
            let out = drive(engine, &mut proto, grouped);
            (out, self.tables.combined())
        }

        fn replies(
            &mut self,
            reads: &[ServedRead],
            _seq: SeedSeq,
            replies: &mut Vec<(usize, u32)>,
            grouped: bool,
        ) -> (RunOutcome, bool) {
            let (engine, mut proto) = self.reply_phase(reads, replies);
            let out = drive(engine, &mut proto, grouped);
            (out, self.tables.all_clear())
        }
    }

    #[test]
    fn node_local_phases_match_the_grouped_path() {
        for n in [4, 5] {
            assert_paths_agree(|cfg| StarPramEmulator::new(n, MODE, SPACE, cfg));
        }
    }

    #[test]
    fn prefix_sum_matches_reference_on_4_star() {
        let values: Vec<u64> = (0..24).map(|i| i + 1).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(4, AccessMode::Erew, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 10_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn broadcast_hotspot_combines_on_star() {
        let mut prog = Broadcast::new(24, 2, 31);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(4, AccessMode::Crew, space, EmulatorConfig::default());
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        assert!(report.total_combined() > 0, "hot spot must combine");
        // Full read combining: the module's batch stays tiny on read steps.
        for s in report.steps.iter().filter(|s| s.combined > 0) {
            assert!(
                s.service_steps <= 2,
                "combining should collapse the batch, got {}",
                s.service_steps
            );
        }
    }

    #[test]
    fn crcw_histogram_on_star() {
        let inputs: Vec<u64> = (0..24).map(|i| i % 3).collect();
        let mut prog = Histogram::new(inputs, 3);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(
            4,
            AccessMode::Crcw(WritePolicy::Sum),
            space,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
    }

    #[test]
    fn permutation_traffic_slowdown_on_5_star() {
        // Corollary 2.3: Õ(n) per EREW step. Check a small multiple of
        // the diameter (request ≤ 2D, reply ≤ 2D ⇒ expect ≲ 6D).
        let mut rng = SeedSeq::new(3).rng();
        let perm = workloads::random_permutation(120, &mut rng);
        let mut prog = PermutationTraffic::new(perm, 3);
        let mut emu = StarPramEmulator::new(
            5,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        let report = emu.run_program(&mut prog, 1000);
        assert_eq!(report.rehashes, 0);
        let c = report.slowdown_per_diameter(emu.diameter());
        assert!(c < 10.0, "star slowdown {c:.2}×diameter");
    }

    #[test]
    fn combining_off_is_correct_but_floods() {
        let mut prog = Broadcast::new(24, 1, 7);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(
            4,
            AccessMode::Crew,
            space,
            EmulatorConfig {
                combining: false,
                ..Default::default()
            },
        );
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        let max_service = report.steps.iter().map(|s| s.service_steps).max().unwrap();
        assert_eq!(max_service, 24, "uncombined hot spot floods the module");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let perm: Vec<usize> = (0..24).map(|i| (i * 7 + 3) % 24).collect();
            let mut prog = PermutationTraffic::new(perm, 2);
            let mut emu = StarPramEmulator::new(
                4,
                AccessMode::Erew,
                prog.address_space(),
                EmulatorConfig {
                    seed: 5,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(24))
        };
        assert_eq!(run(), run());
    }
}
