//! Deterministic fault schedules: scripted link/node failures applied
//! at step boundaries.
//!
//! A [`FaultPlan`] is a sorted list of [`FaultEvent`]s — link fail,
//! link degrade, link recover, node fail, node recover — keyed by the
//! **global step** at which they take effect. Installing a plan on an
//! engine ([`crate::Engine::set_fault_plan`]) makes the engine apply
//! each event at the start of the transmit phase of its step: an event
//! at step `s` gates the transmit of step `s` and every later step
//! until a recovery event clears it.
//!
//! Because the plan is applied at phase boundaries (never mid-phase),
//! serial and sharded stepping observe the **identical** link state at
//! every step, so the sharded bit-identity contract extends to faulted
//! runs: for any plan, `ShardedEngine` == `Engine` at every shard
//! count.
//!
//! Semantics:
//!
//! - **Link fail**: packets still queue on the link but never traverse
//!   it (same as [`crate::Engine::block_link`]).
//! - **Link degrade** with period `p`: the link transmits only on steps
//!   that are multiples of `p` (period 1 is a no-op, period 0 is a
//!   plan error). Effective bandwidth drops to `1/p`.
//! - **Node fail**: every link incident to the node — inbound and
//!   outbound — goes down. Packets already queued at the node stay
//!   stranded; packets destined for it can never be delivered while it
//!   is down. Protocol callbacks still run if packets somehow arrive
//!   (they cannot while the node is down), keeping the step loop
//!   oblivious to faults.
//! - **Recover**: clears the matching fault. `LinkRecover` clears both
//!   a fail and a degrade on that link; `NodeRecover` re-evaluates
//!   every incident link (a link stays down if it is *also* failed or
//!   degraded on its own, or if the node at its other end is down).
//!
//! Fault steps are relative to the engine's last [`crate::Engine::reset`]:
//! retry-style drivers that replay a plan on every attempt observe the
//! same adversity each time (the Lemma 2.1 model — fresh randomness,
//! same network behaviour).

use std::error::Error;
use std::fmt;

/// One fault or repair action (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The link goes down: packets queue on it but never traverse.
    LinkFail {
        /// Global link id (see [`crate::Engine::link_id`]).
        link: usize,
    },
    /// The link transmits only on steps that are multiples of `period`.
    LinkDegrade {
        /// Global link id.
        link: usize,
        /// Transmit period; must be ≥ 1 (1 = no degradation).
        period: u32,
    },
    /// The link is repaired: clears both a fail and a degrade.
    LinkRecover {
        /// Global link id.
        link: usize,
    },
    /// Every link incident to the node (inbound and outbound) goes down.
    NodeFail {
        /// Global node id.
        node: usize,
    },
    /// The node is repaired: incident links come back up unless they are
    /// independently failed/degraded or their other endpoint is down.
    NodeRecover {
        /// Global node id.
        node: usize,
    },
}

/// A [`Fault`] taking effect at a global step (it gates the transmit
/// phase of that step and onwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// First step whose transmit phase observes the fault.
    pub step: u32,
    /// The action.
    pub fault: Fault,
}

/// A deterministic failure script: [`FaultEvent`]s sorted by step.
///
/// Construction sorts the events (stably, so same-step events apply in
/// the order given). The plan is pure data — it validates against a
/// concrete engine only when installed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Build a plan from `events` (sorted by step; the given order is
    /// kept among same-step events).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.step);
        FaultPlan { events }
    }

    /// The events, ascending by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Nodes that are down at the **end** of the plan (failed and never
    /// recovered afterwards), ascending. Packets whose destination node
    /// is in this set can never be delivered once the failure hits —
    /// recovery drivers classify them as lost instead of retrying.
    pub fn dead_nodes(&self) -> Vec<usize> {
        let mut down = Vec::new();
        for ev in &self.events {
            match ev.fault {
                Fault::NodeFail { node } if !down.contains(&node) => {
                    down.push(node);
                }
                Fault::NodeRecover { node } => down.retain(|&v| v != node),
                _ => {}
            }
        }
        down.sort_unstable();
        down
    }
}

/// Why a [`FaultPlan`] could not be installed or honored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// An event names a link id outside the engine's `0..links` range.
    LinkOutOfRange {
        /// The offending link id.
        link: usize,
        /// Number of links in the engine.
        links: usize,
    },
    /// An event names a node id outside the engine's `0..nodes` range.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the engine.
        nodes: usize,
    },
    /// A [`Fault::LinkDegrade`] has period 0 (a link that never
    /// transmits is [`Fault::LinkFail`], not a degrade).
    ZeroDegradePeriod {
        /// The offending link id.
        link: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::LinkOutOfRange { link, links } => {
                write!(
                    f,
                    "fault names link {link} but the engine has {links} links"
                )
            }
            FaultError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "fault names node {node} but the engine has {nodes} nodes"
                )
            }
            FaultError::ZeroDegradePeriod { link } => {
                write!(
                    f,
                    "degrade period 0 on link {link} (use LinkFail for a dead link)"
                )
            }
        }
    }
}

impl Error for FaultError {}

/// The runtime form of a plan, bound to one engine's CSR: tracks which
/// faults are active and converts them into per-link blocked flags.
///
/// Engines own one of these when a plan is installed and call
/// [`FaultSchedule::advance`] at the start of every transmit phase.
/// The schedule itself is engine-agnostic — the sharded coordinator
/// builds one over the *global* CSR and forwards the per-link blocked
/// updates to whichever shard owns each link, which is exactly how the
/// serial/sharded bit-identity is preserved.
///
/// Per-link state is two arrays (failed, degrade period). What a node
/// event needs — node state and each link's endpoints — is built only
/// when the plan has one, so a link-only plan costs O(links) to install
/// and nothing per node.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    cursor: usize,
    /// Explicitly failed links (independent of node state).
    link_down: Vec<bool>,
    /// Degrade period per link; 0 = not degraded.
    degrade: Vec<u32>,
    /// Links with an active degrade period — their effective blocked
    /// state flips with the step parity, so they are re-applied every
    /// step.
    degraded: Vec<u32>,
    /// Present when the plan has a node event.
    nodes: Option<NodeTables>,
    /// Scratch: links touched by this step's events.
    touched: Vec<u32>,
}

/// Node state and link endpoints, for plans with node events.
#[derive(Debug, Clone)]
struct NodeTables {
    down: Vec<bool>,
    /// Out-link CSR (links leaving node `v` are
    /// `out_offset[v] .. out_offset[v+1]`, the engine's own link ids).
    out_offset: Vec<u32>,
    /// Head node (target) of each link.
    link_dst: Vec<u32>,
}

impl NodeTables {
    /// Tail node (source) of `link`: the last node whose out-links
    /// start at or below it.
    fn link_src(&self, link: usize) -> usize {
        self.out_offset.partition_point(|&o| o as usize <= link) - 1
    }
}

impl FaultSchedule {
    /// Bind `plan` to a CSR (`link_offset` per node, `link_target` per
    /// link — the same shape [`crate::Engine`] stores), validating every
    /// event against it.
    pub fn build(
        plan: &FaultPlan,
        link_offset: &[u32],
        link_target: &[u32],
    ) -> Result<Self, FaultError> {
        let nodes = link_offset.len() - 1;
        let links = link_target.len();
        let mut node_events = false;
        // `advance` lists every link one step's events touch and keeps
        // every degraded link: both are sized here, so that a run under
        // the plan allocates nothing.
        let (mut at, mut touches, mut busiest, mut degrades) = (None, 0, 0, 0);
        for ev in plan.events() {
            if at != Some(ev.step) {
                (at, touches) = (Some(ev.step), 0);
            }
            match ev.fault {
                Fault::LinkFail { link } | Fault::LinkRecover { link } => {
                    if link >= links {
                        return Err(FaultError::LinkOutOfRange { link, links });
                    }
                    touches += 1;
                }
                Fault::LinkDegrade { link, period } => {
                    if link >= links {
                        return Err(FaultError::LinkOutOfRange { link, links });
                    }
                    if period == 0 {
                        return Err(FaultError::ZeroDegradePeriod { link });
                    }
                    touches += 1;
                    degrades += 1;
                }
                Fault::NodeFail { node } | Fault::NodeRecover { node } => {
                    if node >= nodes {
                        return Err(FaultError::NodeOutOfRange { node, nodes });
                    }
                    node_events = true;
                    let ins = link_target.iter().filter(|&&t| t as usize == node);
                    touches += ins.count() + (link_offset[node + 1] - link_offset[node]) as usize;
                }
            }
            busiest = busiest.max(touches);
        }
        Ok(FaultSchedule {
            events: plan.events().to_vec(),
            cursor: 0,
            link_down: vec![false; links],
            degrade: vec![0; links],
            degraded: Vec::with_capacity(degrades),
            nodes: node_events.then(|| NodeTables {
                down: vec![false; nodes],
                out_offset: link_offset.to_vec(),
                link_dst: link_target.to_vec(),
            }),
            touched: Vec::with_capacity(busiest),
        })
    }

    /// Effective blocked state of `link` at `step`: down, degraded off
    /// its duty cycle, or either endpoint node down.
    fn effective(&self, link: usize, step: u32) -> bool {
        let p = self.degrade[link];
        self.link_down[link]
            || (p >= 2 && !step.is_multiple_of(p))
            || self
                .nodes
                .as_ref()
                .is_some_and(|n| n.down[n.link_src(link)] || n.down[n.link_dst[link] as usize])
    }

    /// Apply every event with `event.step <= step`, then report the new
    /// blocked state of each affected link through `apply(link,
    /// blocked)`. Degraded links are re-reported every step (their duty
    /// cycle depends on the step number). Steps must be advanced in
    /// ascending order; the engines call this once per transmit phase.
    pub fn advance<F: FnMut(usize, bool)>(&mut self, step: u32, mut apply: F) {
        self.touched.clear();
        while self.cursor < self.events.len() && self.events[self.cursor].step <= step {
            let ev = self.events[self.cursor];
            self.cursor += 1;
            match ev.fault {
                Fault::LinkFail { link } => {
                    self.link_down[link] = true;
                    self.touched.push(link as u32);
                }
                Fault::LinkDegrade { link, period } => {
                    if self.degrade[link] < 2 && period >= 2 {
                        self.degraded.push(link as u32);
                    } else if self.degrade[link] >= 2 && period < 2 {
                        self.degraded.retain(|&l| l as usize != link);
                    }
                    self.degrade[link] = period;
                    self.touched.push(link as u32);
                }
                Fault::LinkRecover { link } => {
                    self.link_down[link] = false;
                    if self.degrade[link] != 0 {
                        self.degrade[link] = 0;
                        self.degraded.retain(|&l| l as usize != link);
                    }
                    self.touched.push(link as u32);
                }
                Fault::NodeFail { node } | Fault::NodeRecover { node } => {
                    let n = self
                        .nodes
                        .as_mut()
                        .expect("built for a plan with node events");
                    n.down[node] = matches!(ev.fault, Fault::NodeFail { .. });
                    // In-links, then out-links, each ascending.
                    let ins = (0u32..)
                        .zip(&n.link_dst)
                        .filter(|&(_, &t)| t as usize == node);
                    self.touched.extend(ins.map(|(l, _)| l));
                    self.touched
                        .extend(n.out_offset[node]..n.out_offset[node + 1]);
                }
            }
        }
        for i in 0..self.touched.len() {
            let l = self.touched[i] as usize;
            apply(l, self.effective(l, step));
        }
        for i in 0..self.degraded.len() {
            let l = self.degraded[i] as usize;
            apply(l, self.effective(l, step));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Vec<u32>, Vec<u32>) {
        // 0 -> 1 -> 2 with a back link 2 -> 1.
        // links: 0: 0->1, 1: 1->2, 2: 2->1
        (vec![0, 1, 2, 3], vec![1, 2, 1])
    }

    fn states(sched: &mut FaultSchedule, links: usize, step: u32) -> Vec<bool> {
        let mut blocked = vec![false; links];
        sched.advance(step, |l, b| blocked[l] = b);
        blocked
    }

    #[test]
    fn plan_sorts_events_and_reports_dead_nodes() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 9,
                fault: Fault::NodeFail { node: 2 },
            },
            FaultEvent {
                step: 1,
                fault: Fault::NodeFail { node: 1 },
            },
            FaultEvent {
                step: 4,
                fault: Fault::NodeRecover { node: 1 },
            },
        ]);
        assert_eq!(plan.events()[0].step, 1);
        assert_eq!(plan.dead_nodes(), vec![2]);
    }

    #[test]
    fn link_fail_then_recover() {
        let (off, tgt) = line3();
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 2,
                fault: Fault::LinkFail { link: 1 },
            },
            FaultEvent {
                step: 5,
                fault: Fault::LinkRecover { link: 1 },
            },
        ]);
        let mut s = FaultSchedule::build(&plan, &off, &tgt).unwrap();
        let mut blocked = [false; 3];
        for step in 1..=6 {
            s.advance(step, |l, b| blocked[l] = b);
            assert_eq!(blocked[1], (2..5).contains(&step), "step {step}");
        }
    }

    #[test]
    fn degrade_duty_cycle() {
        let (off, tgt) = line3();
        let plan = FaultPlan::new(vec![FaultEvent {
            step: 1,
            fault: Fault::LinkDegrade { link: 0, period: 3 },
        }]);
        let mut s = FaultSchedule::build(&plan, &off, &tgt).unwrap();
        let mut blocked = [false; 3];
        for step in 1..=7 {
            s.advance(step, |l, b| blocked[l] = b);
            assert_eq!(blocked[0], step % 3 != 0, "step {step}");
        }
    }

    /// A period-1 degrade ("no degradation") must not stop a later
    /// real degrade from being re-evaluated every step: the link used
    /// to freeze in whatever state the second event's step gave it.
    #[test]
    fn degrade_after_a_period_one_degrade_keeps_its_duty_cycle() {
        let (off, tgt) = line3();
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 1,
                fault: Fault::LinkDegrade { link: 0, period: 1 },
            },
            FaultEvent {
                step: 2,
                fault: Fault::LinkDegrade { link: 0, period: 3 },
            },
        ]);
        let mut s = FaultSchedule::build(&plan, &off, &tgt).unwrap();
        let mut blocked = [false; 3];
        for step in 1..=7 {
            s.advance(step, |l, b| blocked[l] = b);
            assert_eq!(blocked[0], step >= 2 && step % 3 != 0, "step {step}");
        }
    }

    #[test]
    fn node_fail_blocks_incident_links_both_ways() {
        let (off, tgt) = line3();
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 1,
                fault: Fault::NodeFail { node: 1 },
            },
            FaultEvent {
                step: 3,
                fault: Fault::NodeRecover { node: 1 },
            },
        ]);
        let mut s = FaultSchedule::build(&plan, &off, &tgt).unwrap();
        // Node 1 touches link 0 (0->1, inbound), 1 (1->2, outbound) and
        // 2 (2->1, inbound).
        assert_eq!(states(&mut s, 3, 1), vec![true, true, true]);
        assert_eq!(states(&mut s, 3, 3), vec![false, false, false]);
    }

    /// Only a plan with a node event pays for the per-node tables.
    #[test]
    fn link_only_plan_builds_no_node_tables() {
        let (off, tgt) = line3();
        let event = |fault| FaultEvent { step: 1, fault };
        let links = FaultPlan::new(vec![
            event(Fault::LinkFail { link: 0 }),
            event(Fault::LinkDegrade { link: 1, period: 2 }),
        ]);
        assert!(FaultSchedule::build(&links, &off, &tgt)
            .unwrap()
            .nodes
            .is_none());
        let node = FaultPlan::new(vec![event(Fault::NodeRecover { node: 0 })]);
        assert!(FaultSchedule::build(&node, &off, &tgt)
            .unwrap()
            .nodes
            .is_some());
    }

    #[test]
    fn validation_rejects_bad_ids_and_zero_period() {
        let (off, tgt) = line3();
        let bad_link = FaultPlan::new(vec![FaultEvent {
            step: 0,
            fault: Fault::LinkFail { link: 3 },
        }]);
        assert_eq!(
            FaultSchedule::build(&bad_link, &off, &tgt).unwrap_err(),
            FaultError::LinkOutOfRange { link: 3, links: 3 }
        );
        let bad_node = FaultPlan::new(vec![FaultEvent {
            step: 0,
            fault: Fault::NodeFail { node: 7 },
        }]);
        assert_eq!(
            FaultSchedule::build(&bad_node, &off, &tgt).unwrap_err(),
            FaultError::NodeOutOfRange { node: 7, nodes: 3 }
        );
        let zero = FaultPlan::new(vec![FaultEvent {
            step: 0,
            fault: Fault::LinkDegrade { link: 0, period: 0 },
        }]);
        assert_eq!(
            FaultSchedule::build(&zero, &off, &tgt).unwrap_err(),
            FaultError::ZeroDegradePeriod { link: 0 }
        );
    }
}
