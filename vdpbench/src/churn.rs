//! Rule churn through `VeriDpServer::intercept`, with a witness battery
//! verified through `ingest_batch` after every update.
//!
//! Every wire workload runs this phase between its wire phases, on servers
//! of their own: Internet2 with a synthetic RIB, the BDD backend in
//! `wire_clean` and the atoms backend in `wire_hostile`, each server
//! configured as `veridp-demo --churn-rate` runs it (fast path and
//! snapshots on). A round builds a fresh server, applies a fixed
//! `ChurnGen::step` sequence and then drains it, so the table ends where it
//! began and every round does the same work. After the steps and before the
//! drain, the incrementally maintained table is checked against
//! from-scratch builds of the same rules on both backends; after the drain,
//! against a build of the original rules.

use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veridp_atoms::AtomSpace;
use veridp_core::{HeaderSetBackend, HeaderSpace, PathTable, RuleUpdate, VeriDpServer};
use veridp_packet::{SwitchId, TagReport};
use veridp_sim::ChurnGen;
use veridp_switch::{FlowRule, OfMessage};
use veridp_topo::Topology;

use crate::checks;
use crate::sys;
use crate::trace::span;
use crate::wire;

/// Reports in the witness battery verified after each update: one burst,
/// the size of a light-phase wire burst.
pub const BATTERY: usize = 64;

/// Per-report batch verification threads for the battery. One: a 64-report
/// batch split over more threads times thread start-up, not verification.
const BATTERY_THREADS: usize = 1;

/// What the churn phase measured.
#[derive(Debug, Default)]
pub struct ChurnOut {
    /// Time-to-consistent of each `intercept`, in ms.
    pub update_ms: Vec<f64>,
    /// Set-up time of each round's fresh server, in ms.
    pub setup_ms: Vec<f64>,
    pub battery_reports: u64,
    pub battery_failed: u64,
    pub intercept_total: Duration,
    pub battery_total: Duration,
    pub rounds: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub clone_fallbacks: u64,
    pub backend_size: f64,
    pub rebuild_ms: Vec<f64>,
    pub problems: Vec<String>,
}

impl ChurnOut {
    /// Updates applied.
    pub fn updates(&self) -> u64 {
        self.update_ms.len() as u64
    }

    /// Updates completed per second of `intercept` time.
    pub fn updates_per_s(&self) -> f64 {
        self.updates() as f64 / self.intercept_total.as_secs_f64().max(1e-12)
    }

    /// Battery reports verified per second of `ingest_batch` time.
    pub fn verify_rps(&self) -> f64 {
        self.battery_reports as f64 / self.battery_total.as_secs_f64().max(1e-12)
    }

    /// Verdict-cache hit share of the battery verifications.
    pub fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / self.cache_lookups.max(1) as f64
    }
}

/// The deployed rules of a controller, in the map shape table builds take.
pub fn rule_map(rules: &BTreeMap<SwitchId, Vec<FlowRule>>) -> HashMap<SwitchId, Vec<FlowRule>> {
    rules.iter().map(|(k, v)| (*k, v.clone())).collect()
}

/// `BATTERY` witness reports, one per randomly chosen path entry, drawn
/// from outside the churn block (TEST-NET-3): churn rules legitimately
/// re-route points inside it.
pub fn battery<B: HeaderSetBackend>(table: &PathTable<B>, hs: &B, seed: u64) -> Vec<TagReport> {
    let entries = table.all_entries();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba77);
    let mut out = Vec::with_capacity(BATTERY);
    let mut tries = 0;
    while out.len() < BATTERY && tries < BATTERY * 1000 {
        tries += 1;
        let ((i, o), e) = entries[rng.gen_range(0..entries.len())];
        let s: u64 = rng.gen();
        let mut wr = StdRng::seed_from_u64(s);
        if let Some(w) = hs.random_witness(e.headers, |_| wr.gen()) {
            if !ChurnGen::covers(&w) {
                out.push(TagReport::new(*i, *o, w, e.tag).with_epoch(table.epoch()));
            }
        }
    }
    assert_eq!(out.len(), BATTERY, "table too small for a witness battery");
    out
}

/// An update as the FlowMod the controller would send.
fn flowmod(upd: &RuleUpdate) -> (SwitchId, OfMessage) {
    match *upd {
        RuleUpdate::Add(s, rule) => (s, OfMessage::FlowAdd(rule)),
        RuleUpdate::Delete(s, id) => (s, OfMessage::FlowDelete(id)),
        RuleUpdate::Modify(s, id, action) => (s, OfMessage::FlowModify(id, action)),
    }
}

/// Mirror an update into a plain rule map, for from-scratch rebuilds.
pub fn mirror(rules: &mut HashMap<SwitchId, Vec<FlowRule>>, upd: &RuleUpdate) {
    match *upd {
        RuleUpdate::Add(s, rule) => {
            let v = rules.entry(s).or_default();
            v.retain(|r| r.id != rule.id);
            v.push(rule);
        }
        RuleUpdate::Delete(s, id) => {
            if let Some(v) = rules.get_mut(&s) {
                v.retain(|r| r.id != id);
            }
        }
        RuleUpdate::Modify(s, id, action) => {
            if let Some(r) = rules
                .get_mut(&s)
                .and_then(|v| v.iter_mut().find(|r| r.id == id))
            {
                r.action = action;
            }
        }
    }
}

/// Seed of every round's update sequence. Fixed, not drawn from `--seed`,
/// and the same in every round: where the churn rules land sets how much
/// work an atoms update does, and every round of every run should do the
/// same control-plane work whatever the number of rounds a run completes.
/// `--seed` draws the witness battery.
const CHURN_SEED: u64 = 0xc4a5;

/// The fixed update sequence of a round: `steps` production-mix updates
/// followed by the drain that withdraws every churn rule left.
pub fn sequence(topo: &Topology, steps: usize) -> (Vec<RuleUpdate>, Vec<RuleUpdate>) {
    let mut gen = ChurnGen::new(topo, CHURN_SEED);
    let steps: Vec<RuleUpdate> = (0..steps).map(|_| gen.step()).collect();
    let drain = gen.drain();
    (steps, drain)
}

/// Apply one update and verify the battery right after it.
fn update_and_verify<B: HeaderSetBackend>(
    server: &mut VeriDpServer<B>,
    upd: &RuleUpdate,
    battery: &[TagReport],
    out: &mut ChurnOut,
) {
    let (s, msg) = flowmod(upd);
    let t0 = Instant::now();
    span("core.intercept", 1, || server.intercept(s, &msg));
    let dt = t0.elapsed();
    out.intercept_total += dt;
    out.update_ms.push(sys::ms(dt));
    let t1 = Instant::now();
    let summary = span("core.ingest_batch.battery", battery.len() as u64, || {
        server.ingest_batch(battery, BATTERY_THREADS)
    });
    out.battery_total += t1.elapsed();
    out.battery_reports += summary.total as u64;
    out.battery_failed += (summary.total - summary.passed) as u64;
    out.cache_hits += summary.cache_hits as u64;
    out.cache_lookups += (summary.cache_hits + summary.cache_misses) as u64;
}

/// Run sizes; [`ChurnScale::full`] for measurement, [`ChurnScale::smoke`]
/// for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct ChurnScale {
    /// Prefixes in the synthetic RIB.
    pub prefixes: usize,
    /// `ChurnGen::step` updates per round (the drain follows).
    pub steps: usize,
}

impl ChurnScale {
    pub fn full() -> Self {
        ChurnScale {
            prefixes: 60,
            steps: 150,
        }
    }

    pub fn smoke() -> Self {
        ChurnScale {
            prefixes: 20,
            steps: 30,
        }
    }
}

/// Seed of the synthetic RIB. Fixed: the RIB sets how much work an update
/// does, and `--seed` varies the witness battery, not the table the fixed
/// churn sequence runs on.
const RIB_SEED: u64 = 0x2b1b;

/// The churn phase on backend `B`: Internet2 with the synthetic RIB, the
/// witness battery drawn from `--seed`, and the table every drained round
/// must return to.
pub struct Phase<B> {
    topo: Topology,
    rules: HashMap<SwitchId, Vec<FlowRule>>,
    steps: usize,
    battery: Vec<TagReport>,
    baseline: checks::Fingerprint,
    backend: PhantomData<B>,
}

impl<B: HeaderSetBackend> Phase<B> {
    pub fn new(seed: u64, scale: &ChurnScale) -> Self {
        let topo = veridp_topo::gen::internet2();
        let mut ctrl = veridp_controller::Controller::new(topo.clone());
        veridp_controller::synth::install_rib(&mut ctrl, scale.prefixes, RIB_SEED);
        let rules = rule_map(ctrl.logical_rules());
        let server = set_up::<B>(&topo, &rules);
        Phase {
            baseline: checks::fingerprint(server.table(), server.header_space()),
            battery: battery(server.table(), server.header_space(), seed),
            topo,
            rules,
            steps: scale.steps,
            backend: PhantomData,
        }
    }

    /// One round on a fresh server: steps, cross-checks, drain, final check.
    pub fn round(&self, out: &mut ChurnOut) {
        let t0 = Instant::now();
        let mut server = set_up::<B>(&self.topo, &self.rules);
        out.setup_ms.push(sys::ms(t0.elapsed()));
        let (steps, drain) = sequence(&self.topo, self.steps);
        let failed_before = out.battery_failed;
        let mut live = self.rules.clone();
        for upd in &steps {
            mirror(&mut live, upd);
            update_and_verify(&mut server, upd, &self.battery, out);
        }

        // Mid-churn: the maintained table against from-scratch builds of the
        // same rules, on both backends. The fingerprints cover every path
        // entry, the churned ones too; the battery, drawn outside the churn
        // block, checks verdicts.
        out.backend_size = server.header_space().size_metric() as f64;
        let ours = checks::verdicts(server.table(), server.header_space(), &self.battery);
        let t0 = Instant::now();
        let mut hs = B::default();
        let rebuilt = span("core.build.churned", 1, || {
            PathTable::build(&self.topo, &live, &mut hs, wire::TAG_BITS)
        });
        out.rebuild_ms.push(sys::ms(t0.elapsed()));
        let scratch = checks::verdicts(&rebuilt, &hs, &self.battery);
        let mut bdd = HeaderSpace::new();
        let bdd_table = PathTable::build(&self.topo, &live, &mut bdd, wire::TAG_BITS);
        let mut atoms = AtomSpace::new();
        let atoms_table = PathTable::build(&self.topo, &live, &mut atoms, wire::TAG_BITS);
        let problems = [
            checks::same_table(
                "churned table",
                &checks::fingerprint(server.table(), server.header_space()),
                &checks::fingerprint(&rebuilt, &hs),
            ),
            checks::same_table(
                "atoms build of the churned rules",
                &checks::fingerprint(&atoms_table, &atoms),
                &checks::fingerprint(&bdd_table, &bdd),
            ),
            checks::verdicts_agree(B::NAME, &ours, "from-scratch build", &scratch),
            checks::verdicts_agree(
                "bdd",
                &checks::verdicts(&bdd_table, &bdd, &self.battery),
                "atoms",
                &checks::verdicts(&atoms_table, &atoms, &self.battery),
            ),
            checks::verdicts_agree(
                B::NAME,
                &ours,
                "bdd build",
                &checks::verdicts(&bdd_table, &bdd, &self.battery),
            ),
            checks::all_pass("battery after churn", &ours),
        ];
        out.problems
            .extend(problems.into_iter().filter_map(Result::err));

        for upd in &drain {
            update_and_verify(&mut server, upd, &self.battery, out);
        }
        let drained = checks::fingerprint(server.table(), server.header_space());
        if let Err(e) = checks::same_table("drained churn", &drained, &self.baseline) {
            out.problems.push(e);
        }
        if out.battery_failed > failed_before {
            out.problems.push(format!(
                "{} battery verdicts failed during churn",
                out.battery_failed - failed_before
            ));
        }
        out.clone_fallbacks += server.snapshot_stats().map_or(0, |s| s.clone_fallbacks);
        out.rounds += 1;
    }

    /// Replay the round's sequence on a bare master table (no publication),
    /// then through a snapshot publisher, timing each layer on its own.
    pub fn replay_layers(&self) {
        let (steps, drain) = sequence(&self.topo, self.steps);
        let mut hs = B::default();
        let mut master = span("core.build.replay", 1, || {
            PathTable::build(&self.topo, &self.rules, &mut hs, wire::TAG_BITS)
        });
        let mut publisher = veridp_core::SnapshotPublisher::new(&master, &hs, true);
        for upd in steps.iter().chain(&drain) {
            span("core.master_update", 1, || {
                apply_master(&mut master, &mut hs, upd)
            });
            span("core.publish", 1, || {
                publisher.record(*upd);
                publisher.publish(&master, &hs);
            });
        }
    }
}

/// A fresh server of `rules`, configured as `veridp-demo --churn-rate` runs
/// it.
fn set_up<B: HeaderSetBackend>(
    topo: &Topology,
    rules: &HashMap<SwitchId, Vec<FlowRule>>,
) -> VeriDpServer<B> {
    let mut server = span("core.churn_setup", 1, || {
        VeriDpServer::with_backend(B::default(), topo, rules, wire::TAG_BITS)
    });
    server.set_fastpath(true);
    server.set_snapshots(true);
    server
}

fn apply_master<B: HeaderSetBackend>(table: &mut PathTable<B>, hs: &mut B, upd: &RuleUpdate) {
    match *upd {
        RuleUpdate::Add(s, rule) => table.add_rule(s, rule, hs),
        RuleUpdate::Delete(s, id) => table.delete_rule(s, id, hs),
        RuleUpdate::Modify(s, id, action) => table.modify_rule(s, id, action, hs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_on_each_backend_returns_to_the_original_table() {
        fn check<B: HeaderSetBackend>() {
            let phase = Phase::<B>::new(5, &ChurnScale::smoke());
            let (steps, drain) = sequence(&phase.topo, phase.steps);
            let mut out = ChurnOut::default();
            phase.round(&mut out);
            phase.round(&mut out);
            assert!(out.problems.is_empty(), "{:?}", out.problems);
            assert_eq!(out.updates(), 2 * (steps.len() + drain.len()) as u64);
            assert_eq!(out.battery_reports, out.updates() * BATTERY as u64);
        }
        check::<HeaderSpace>();
        check::<AtomSpace>();
    }
}
