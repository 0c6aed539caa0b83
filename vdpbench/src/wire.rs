//! The wire workloads: a deployed `VeriDpServer` behind the real listener
//! (`veridp_net::serve`, reactor intake, loopback TCP), fed by at most two
//! generator threads over at most two connections.
//!
//! A run is: set-up (deploy, fast path, listener bind, several times), a
//! light phase (one 64-report burst in flight), a saturating phase (two
//! closed-loop senders held back only by TCP backpressure, in windows that
//! each end with `IngestPipeline::shutdown`), and the rule-churn phase of
//! [`crate::churn`] on servers of its own. Every phase sends whole rounds,
//! so the share of failed operations is the same in every run.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veridp_controller::{Controller, Intent};
use veridp_core::{
    HeaderSetBackend, HeaderSpace, PathTable, RobustConfig, ServerStats, VeriDpServer,
};
use veridp_net::{IngestConfig, IngestPipeline, NetSender, NetStats, NetStatsSnapshot, Transport};
use veridp_packet::{FiveTuple, FrameReader, Packet, PortNo, SwitchId, TagReport};
use veridp_sim::{ChaosConfig, Monitor, Network, SwitchAgent};
use veridp_switch::{Action, Fault};
use veridp_topo::{HostRole, Topology};

use crate::checks::{self, ObsKey};
use crate::churn::{self, ChurnOut, ChurnScale};
use crate::sys;
use crate::trace::{self, span};
use crate::{Metric, Output};

/// Bloom tag width, as `veridp-demo` deploys by default.
pub const TAG_BITS: u32 = 16;

/// Reports per light-phase burst.
const BURST: usize = 64;

/// Share of the hostile block's frames a `SwitchAgent` corrupts. The block
/// is a ninth of every round, so about 2% of all frames are corrupted.
const BLOCK_CORRUPT_PCT: f64 = 20.0;

/// Seeds of the hostile block and of its agents' corruption. Fixed, not
/// drawn from `--seed`: which corrupted frames slip past the checksum
/// depends on the bytes, and the benchmark keeps that count, a fault of
/// the program, the same share of every run.
const BLOCK_SEED: u64 = 0xb10c_5eed;
const AGENT_SEED: u64 = 0xa9e7_5eed;

/// One hostile observation in this many is deviated by the fault.
const DEVIATED_SHARE: usize = 64;

/// Seeds of the fault site and of the deviated observations. Fixed, not
/// drawn from `--seed`: the reports a fault deviates, and where
/// `PathTable::localize` places each of them, decide how many operations
/// fail (see `check_pipeline`), and that share must not depend on the seed.
/// The site drawn is FT(6) switch 13, where the localization of some
/// deviated reports names switches 19 and 38 as well, so how the program
/// handles an ambiguous localization shows in `failed`.
const FAULT_SEED: u64 = 0x4032;
const DEVIATED_SEED: u64 = 0xde71;

/// Run sizes; [`WireScale::full`] for measurement, [`WireScale::smoke`]
/// for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct WireScale {
    /// Fat-tree parameter.
    pub k: u16,
    /// Samples per flow in the clean pool.
    pub samples: usize,
    /// Distinct observations per generator thread in the hostile pool.
    pub pool_per_thread: usize,
    /// Reports per generator thread in the fixed hostile block.
    pub block_per_thread: usize,
    /// Deployments timed for `setup_s`.
    pub setup_reps: usize,
    /// Segments of the measured time (one saturating window each).
    pub segments: usize,
}

impl WireScale {
    pub fn full() -> Self {
        WireScale {
            k: 6,
            samples: 4,
            pool_per_thread: 16_384,
            block_per_thread: 2_048,
            setup_reps: 3,
            segments: 8,
        }
    }

    pub fn smoke() -> Self {
        WireScale {
            k: 4,
            samples: 2,
            pool_per_thread: 18_432,
            block_per_thread: 1_024,
            setup_reps: 3,
            segments: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Clean,
    Hostile,
}

/// One stretch of a generator thread's round: the reports it sends, over
/// which sender, and whether their destination port is relabelled per
/// round (which keeps every observation of the hostile pool distinct).
#[derive(Clone)]
pub struct Part {
    reports: Arc<Vec<TagReport>>,
    /// `Some`: sent by a `SwitchAgent` with this chaos, on a fresh
    /// connection per round. `None`: a plain `NetSender` kept open.
    agent: Option<ChaosConfig>,
    relabel: bool,
}

impl Part {
    /// Reports sent over a plain sender, unchanged every round.
    pub fn plain(reports: Vec<TagReport>) -> Part {
        Part {
            reports: Arc::new(reports),
            agent: None,
            relabel: false,
        }
    }
}

/// Destination port of round `r`'s relabelled observations (never 0, the
/// port the fixed block uses).
fn round_port(r: u64) -> u16 {
    1 + (r % 65_535) as u16
}

enum Link {
    Plain(NetSender),
    Agent(SwitchAgent),
}

impl Link {
    fn send(&mut self, r: &TagReport) -> io::Result<()> {
        match self {
            Link::Plain(s) => s.send_report(r),
            Link::Agent(a) => a.send(r),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Link::Plain(s) => s.flush(),
            Link::Agent(a) => a.flush(),
        }
    }

    fn finish(self) -> io::Result<()> {
        match self {
            Link::Plain(s) => s.finish().map(|_| ()),
            Link::Agent(a) => a.finish().map(|_| ()),
        }
    }
}

/// Send one part, calling `after_chunk` after every flushed chunk of
/// `chunk` reports. Plain parts reuse `plain`; agent parts connect and
/// finish a fresh agent.
fn send_part(
    addr: SocketAddr,
    part: &Part,
    round: u64,
    chunk: usize,
    plain: &mut Option<Link>,
    mut after_chunk: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<()> {
    let mut fresh = match &part.agent {
        Some(cfg) => Some(Link::Agent(SwitchAgent::connect(
            Transport::Tcp,
            addr,
            cfg.clone(),
        )?)),
        None => None,
    };
    if fresh.is_none() && plain.is_none() {
        *plain = Some(Link::Plain(NetSender::connect(Transport::Tcp, addr)?));
    }
    let link = match fresh.as_mut() {
        Some(l) => l,
        None => plain.as_mut().expect("plain link opened above"),
    };
    let port = round_port(round);
    for c in part.reports.chunks(chunk) {
        span("net.send_report", c.len() as u64, || -> io::Result<()> {
            for r in c {
                if part.relabel {
                    let mut r = *r;
                    r.header.dst_port = port;
                    link.send(&r)?;
                } else {
                    link.send(r)?;
                }
            }
            link.flush()
        })?;
        after_chunk(c.len())?;
    }
    match fresh {
        Some(l) => l.finish(),
        None => Ok(()),
    }
}

/// Block until the pipeline has accounted for `frames` frames: verified,
/// rejected at decode, or (a corrupted report turned heartbeat) counted as
/// a heartbeat. Polls with `yield_now` when `nap` is zero (a burst's
/// latency is being timed), else sleeps `nap` between polls so the wait
/// leaves the cores to the verify workers.
fn wait_accounted(stats: &NetStats, frames: u64, nap: Duration) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    span("net.wait_verified", 0, || loop {
        let s = stats.snapshot();
        if s.verified + s.decode_errors + s.heartbeats >= frames {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "burst not verified: {} of {frames} frames accounted",
                    s.verified + s.decode_errors
                ),
            ));
        }
        if nap.is_zero() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(nap);
        }
    })
}

/// The light phase: whole rounds of every thread's parts, one burst of
/// `BURST` reports in flight. Returns each burst's time in µs and the
/// rounds sent.
pub fn light_phase<B: HeaderSetBackend>(
    pipeline: &IngestPipeline<B>,
    plan: &[Vec<Part>],
    budget: Duration,
    round_base: u64,
) -> io::Result<(Vec<f64>, u64)> {
    let addr = pipeline.local_addr();
    let stats = pipeline.stats_arc();
    let start = Instant::now();
    let mut bursts = Vec::new();
    let mut frames = 0u64;
    let mut plain: Option<Link> = None;
    let mut rounds = 0u64;
    loop {
        for part in plan.iter().flatten() {
            let mut t0 = Instant::now();
            send_part(addr, part, round_base + rounds, BURST, &mut plain, |n| {
                frames += n as u64;
                wait_accounted(&stats, frames, Duration::ZERO)?;
                bursts.push(sys::us(t0.elapsed()));
                t0 = Instant::now();
                Ok(())
            })?;
        }
        rounds += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    if let Some(l) = plain {
        l.finish()?;
    }
    Ok((bursts, rounds))
}

/// One saturating window's measurements.
#[derive(Debug, Clone)]
pub struct Window {
    /// Seconds from the first send until `IngestPipeline::shutdown`
    /// returned.
    pub secs: f64,
    pub rounds: u64,
    pub snap: NetStatsSnapshot,
    /// Process CPU minus the generator threads' CPU, in ns.
    pub server_cpu_ns: u64,
}

/// Serve `server`, run the closed-loop senders of `plan` (one thread per
/// entry) in whole rounds for `len`, then shut down and hand the server
/// back with the window's figures.
pub fn saturating_window<B: HeaderSetBackend>(
    server: VeriDpServer<B>,
    cfg: &IngestConfig,
    plan: &[Vec<Part>],
    len: Duration,
    round_base: u64,
) -> io::Result<(VeriDpServer<B>, Window)> {
    let pipeline = span("net.serve", 1, || veridp_net::serve(cfg.clone(), server))?;
    let addr = pipeline.local_addr();
    let stats = pipeline.stats_arc();
    // Parts sent over a fresh connection per round could overtake earlier
    // frames still queued on another event loop, and a block report
    // repeated from the previous round could then arrive inside the
    // duplicate filter's window. Such plans wait after every part until the
    // listener has accounted for every frame sent, so each part is verified
    // whole before the next begins and a repeated report is always at least
    // the other parts' reports away from its previous copy.
    let sync = plan.iter().flatten().any(|p| p.agent.is_some());
    let frames_per_round: u64 = plan.iter().flatten().map(|p| p.reports.len() as u64).sum();
    let parts = plan.first().map_or(0, Vec::len);
    assert!(
        plan.iter().all(|p| p.len() == parts),
        "every generator thread sends the same number of parts"
    );
    // Frames sent by all threads through part `i` of a round.
    let through: Vec<u64> = (0..parts)
        .scan(0u64, |acc, i| {
            *acc += plan.iter().map(|p| p[i].reports.len() as u64).sum::<u64>();
            Some(*acc)
        })
        .collect();
    let barrier = Barrier::new(plan.len());
    let stop = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let traced = trace::enabled();
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let deadline = t0 + len;
    let results: Vec<(io::Result<()>, u64, u64, trace::ThreadSpans)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(t, parts)| {
                let (barrier, stop, abort, stats, through) =
                    (&barrier, &stop, &abort, &stats, &through);
                s.spawn(move || {
                    trace::enable(traced, t as u32 + 1);
                    let c0 = sys::thread_cpu_ns();
                    let mut plain: Option<Link> = None;
                    let mut res = Ok(());
                    let mut rounds = 0u64;
                    loop {
                        for (i, part) in parts.iter().enumerate() {
                            if res.is_ok() {
                                let round = round_base + rounds;
                                res = send_part(addr, part, round, 1024, &mut plain, |_| Ok(()));
                                if res.is_err() {
                                    abort.store(true, Ordering::SeqCst);
                                }
                            }
                            if sync {
                                if barrier.wait().is_leader() && !abort.load(Ordering::SeqCst) {
                                    let sent = rounds * frames_per_round + through[i];
                                    let nap = Duration::from_micros(200);
                                    if let Err(e) = wait_accounted(stats, sent, nap) {
                                        res = Err(e);
                                        abort.store(true, Ordering::SeqCst);
                                    }
                                }
                                barrier.wait();
                            }
                        }
                        rounds += 1;
                        if barrier.wait().is_leader()
                            && (Instant::now() >= deadline || abort.load(Ordering::SeqCst))
                        {
                            stop.store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    if let (Ok(()), Some(l)) = (&res, plain) {
                        res = l.finish();
                    }
                    let cpu = sys::thread_cpu_ns().saturating_sub(c0);
                    (res, rounds, cpu, trace::take_thread())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let (server, snap) = span("net.shutdown", 1, || pipeline.shutdown());
    let secs = t0.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_ns().saturating_sub(cpu0);
    let mut gen_cpu = 0;
    let mut rounds = 0;
    for (res, r, c, spans) in results {
        res?;
        rounds = r;
        gen_cpu += c;
        trace::absorb(spans);
    }
    let window = Window {
        secs,
        rounds,
        server_cpu_ns: cpu.saturating_sub(gen_cpu),
        snap,
    };
    Ok((server, window))
}

/// The listener configuration `veridp-demo --listen tcp:…` uses, with
/// `--robust` for the hostile workload.
fn ingest_config(kind: Kind) -> IngestConfig {
    let mut cfg = IngestConfig::new(
        Transport::Tcp,
        "127.0.0.1:0".parse().expect("loopback address"),
    );
    if kind == Kind::Hostile {
        cfg.robust = Some(RobustConfig::default());
    }
    cfg
}

/// Hosts of a topology (not middleboxes), in topology order.
fn hosts(topo: &Topology) -> Vec<veridp_topo::Host> {
    topo.hosts()
        .iter()
        .filter(|h| h.role == HostRole::Host)
        .cloned()
        .collect()
}

/// Inject one packet and return its only report, if it produced exactly one.
fn observe(net: &mut Network, at: veridp_packet::PortRef, header: FiveTuple) -> Option<TagReport> {
    let trace = span("sim.inject", 1, || net.inject(at, Packet::new(header)));
    net.advance_clock(1_000_000);
    match trace.reports.as_slice() {
        [r] => Some(*r),
        _ => None,
    }
}

/// Wrong-port fault: a `Forward` rule towards some host's subnet, on that
/// host's shortest path from another host, now sends out of a different
/// wired port (`Fault::ExternalModify`). The site is drawn from `rng`.
///
/// A candidate is kept only if, on a scratch copy of the data plane, packets
/// towards that host from at least two other hosts still produce reports
/// that differ from the fault-free ones: a fault that only drops packets
/// leaves no report to verify. Returns the switch and the host whose subnet
/// the modified rule serves.
fn inject_wrong_port(
    net: &mut Network,
    ctrl: &Controller,
    rng: &mut StdRng,
) -> (SwitchId, veridp_topo::Host) {
    let topo = net.topo().clone();
    let hs = hosts(&topo);
    let mut clean = data_plane(&topo, ctrl);
    loop {
        let a = &hs[rng.gen_range(0..hs.len())];
        let b = &hs[rng.gen_range(0..hs.len())];
        if a.ip == b.ip {
            continue;
        }
        let Some(path) = topo.shortest_path(a.attached.switch, b.attached.switch) else {
            continue;
        };
        let s = path[rng.gen_range(0..path.len())];
        let subnet = veridp_switch::prefix_mask(b.ip, b.plen);
        let Some(rule) = ctrl
            .rules_of(s)
            .iter()
            .find(|r| r.fields.dst_ip == subnet && r.fields.dst_plen == b.plen)
        else {
            continue;
        };
        let Action::Forward(old) = rule.action else {
            continue;
        };
        let mut wired: Vec<PortNo> = topo.neighbors(s).into_iter().map(|(p, _)| p).collect();
        wired.extend(
            topo.host_ports()
                .into_iter()
                .filter(|p| p.switch == s)
                .map(|p| p.port),
        );
        wired.retain(|p| *p != old);
        if wired.is_empty() {
            continue;
        }
        let fault = Fault::ExternalModify(
            rule.id,
            Action::Forward(wired[rng.gen_range(0..wired.len())]),
        );
        let mut probe = data_plane(&topo, ctrl);
        probe.switch_mut(s).faults_mut().add(fault.clone());
        let deviated = hs
            .iter()
            .filter(|src| src.ip != b.ip)
            .filter(|src| {
                let h = FiveTuple::tcp(src.ip, b.ip, 1, 0);
                let got = observe(&mut probe, src.attached, h);
                got.is_some() && got != observe(&mut clean, src.attached, h)
            })
            .count();
        if deviated >= 2 {
            net.switch_mut(s).faults_mut().add(fault);
            return (s, b.clone());
        }
    }
}

/// The clean pool: every ordered host pair as one flow with a seeded
/// source port, each flow sampled `samples` times, shuffled, split in two.
fn clean_pool(net: &mut Network, seed: u64, samples: usize, epoch: u64) -> [Vec<TagReport>; 2] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1ea);
    let hs = hosts(net.topo());
    let mut pool = Vec::new();
    for a in &hs {
        for b in &hs {
            if a.ip == b.ip {
                continue;
            }
            let header = FiveTuple::tcp(a.ip, b.ip, rng.gen_range(1024..60_000), 80);
            for _ in 0..samples {
                if let Some(r) = observe(net, a.attached, header) {
                    pool.push(r.with_epoch(epoch));
                }
            }
        }
    }
    shuffle(&mut pool, &mut rng);
    let second = pool.split_off(pool.len() / 2);
    [pool, second]
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Distinct observations of random host pairs, `n` of them, with source
/// ports from `sports`; each produced exactly one report.
fn observations(
    net: &mut Network,
    rng: &mut StdRng,
    n: usize,
    sports: std::ops::Range<u16>,
    epoch: u64,
) -> Vec<TagReport> {
    let hs = hosts(net.topo());
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let a = &hs[rng.gen_range(0..hs.len())];
        let b = &hs[rng.gen_range(0..hs.len())];
        let sport = rng.gen_range(sports.clone());
        if a.ip == b.ip || !seen.insert((a.ip, b.ip, sport)) {
            continue;
        }
        if let Some(r) = observe(net, a.attached, FiveTuple::tcp(a.ip, b.ip, sport, 0)) {
            out.push(r.with_epoch(epoch));
        }
    }
    out
}

/// The hostile pool: `n` distinct observations from the faulty data plane,
/// exactly `deviated_quota` of them deviated, which the fault-free replay
/// (`replay`) decides: an observation is deviated when its report differs
/// from the replay's. The deviated observations are a fixed draw towards
/// the faulted host `target` (seed `DEVIATED_SEED`), so every run fails and
/// localizes the same reports; the undeviated rest comes from `rng`.
/// Returns the shuffled pool and the deviated keys.
fn hostile_pool(
    net: &mut Network,
    replay: &mut Network,
    target: &veridp_topo::Host,
    rng: &mut StdRng,
    n: usize,
    deviated_quota: usize,
    epoch: u64,
) -> (Vec<TagReport>, HashSet<ObsKey>) {
    let hs = hosts(net.topo());
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    let mut deviated = HashSet::new();
    let mut fixed = StdRng::seed_from_u64(DEVIATED_SEED);
    while deviated.len() < deviated_quota {
        let a = &hs[fixed.gen_range(0..hs.len())];
        let sport = fixed.gen_range(1024..50_000);
        if a.ip == target.ip || !seen.insert((a.ip, target.ip, sport)) {
            continue;
        }
        let header = FiveTuple::tcp(a.ip, target.ip, sport, 0);
        let Some(r) = observe(net, a.attached, header) else {
            continue;
        };
        if observe(replay, a.attached, header) != Some(r) {
            deviated.insert(checks::obs_key(a.attached, &header));
            pool.push(r.with_epoch(epoch));
        }
    }
    while pool.len() < n {
        let a = &hs[rng.gen_range(0..hs.len())];
        let b = &hs[rng.gen_range(0..hs.len())];
        let sport = rng.gen_range(1024..50_000);
        if a.ip == b.ip || !seen.insert((a.ip, b.ip, sport)) {
            continue;
        }
        let header = FiveTuple::tcp(a.ip, b.ip, sport, 0);
        let Some(r) = observe(net, a.attached, header) else {
            continue;
        };
        if observe(replay, a.attached, header) == Some(r) {
            pool.push(r.with_epoch(epoch));
        }
    }
    shuffle(&mut pool, rng);
    (pool, deviated)
}

/// What one hostile agent does to the fixed block: frames rejected at
/// decode, and the corrupted frames that decoded into a report.
struct BlockFate {
    rejected: u64,
    heartbeats: u64,
    leaked: Vec<TagReport>,
    bytes: Vec<u8>,
}

/// Send `block` through a `SwitchAgent` with `cfg` into a local capture
/// socket, and decode the captured stream with `FrameReader`.
fn capture_block(block: &[TagReport], cfg: ChaosConfig) -> io::Result<BlockFate> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let (bytes, chaos) = std::thread::scope(|s| -> io::Result<_> {
        let reader = s.spawn(move || -> io::Result<Vec<u8>> {
            use std::io::Read;
            let (mut conn, _) = listener.accept()?;
            let mut buf = Vec::new();
            conn.read_to_end(&mut buf)?;
            Ok(buf)
        });
        let mut agent = SwitchAgent::connect(Transport::Tcp, addr, cfg)?;
        for r in block {
            agent.send(r)?;
        }
        let (chaos, _) = agent.finish()?;
        let bytes = reader.join().expect("capture thread panicked")?;
        Ok((bytes, chaos))
    })?;
    let mut fr = FrameReader::new();
    let mut decoded = Vec::new();
    for c in bytes.chunks(64 * 1024) {
        fr.push(c);
        fr.drain_into(&mut decoded);
    }
    fr.finish();
    fr.drain_into(&mut decoded);
    let mut want: HashMap<TagReport, u64> = HashMap::new();
    for r in block {
        *want.entry(*r).or_default() += 1;
    }
    let mut leaked = Vec::new();
    for d in decoded {
        match want.get_mut(&d) {
            Some(n) if *n > 0 => *n -= 1,
            _ => leaked.push(d),
        }
    }
    // A corrupted frame is rejected, decodes into another report (leaked),
    // becomes a heartbeat, or (two flips of one bit) is its own original.
    let accounted = fr.decode_errors() + fr.heartbeats() + leaked.len() as u64;
    if fr.frames() != block.len() as u64 || accounted > chaos.corrupted {
        return Err(io::Error::other(format!(
            "capture accounting: {} frames of {}, {} corrupted, {} rejected, {} heartbeats, {} leaked",
            fr.frames(),
            block.len(),
            chaos.corrupted,
            fr.decode_errors(),
            fr.heartbeats(),
            leaked.len()
        )));
    }
    Ok(BlockFate {
        rejected: fr.decode_errors(),
        heartbeats: fr.heartbeats(),
        leaked,
        bytes,
    })
}

/// The hostile inputs beyond the plan.
struct Hostile {
    fault: SwitchId,
    deviated: HashSet<ObsKey>,
    leaked_keys: HashSet<ObsKey>,
    /// Per round, over both threads.
    rejected: u64,
    heartbeats: u64,
    leaked: u64,
    /// Captured block bytes, for the decode replay.
    block_bytes: Vec<u8>,
    /// Reports of deviated observations, for the localization replay.
    failing: Vec<TagReport>,
}

/// Everything a run feeds the deployed server.
struct Inputs {
    plan: Vec<Vec<Part>>,
    hostile: Option<Hostile>,
}

impl Inputs {
    fn frames_per_round(&self) -> u64 {
        self.plan
            .iter()
            .flatten()
            .map(|p| p.reports.len() as u64)
            .sum()
    }

    fn reports(&self) -> Vec<TagReport> {
        self.plan
            .iter()
            .flatten()
            .flat_map(|p| p.reports.iter().copied())
            .collect()
    }
}

fn build_inputs(
    kind: Kind,
    scale: &WireScale,
    seed: u64,
    ctrl: &Controller,
    (gen_net, replay_net): (&mut Network, &mut Network),
    epoch: u64,
) -> io::Result<Inputs> {
    if kind == Kind::Clean {
        let [a, b] = clean_pool(gen_net, seed, scale.samples, epoch);
        return Ok(Inputs {
            plan: vec![vec![Part::plain(a)], vec![Part::plain(b)]],
            hostile: None,
        });
    }
    let (fault, target) = inject_wrong_port(gen_net, ctrl, &mut StdRng::seed_from_u64(FAULT_SEED));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4057);
    let n = 2 * scale.pool_per_thread;
    let (pool, deviated) = hostile_pool(
        gen_net,
        replay_net,
        &target,
        &mut rng,
        n,
        n / DEVIATED_SHARE,
        epoch,
    );
    let mut block_rng = StdRng::seed_from_u64(BLOCK_SEED);
    let block = observations(
        replay_net,
        &mut block_rng,
        2 * scale.block_per_thread,
        50_000..65_535,
        epoch,
    );
    let failing: Vec<TagReport> = pool
        .iter()
        .filter(|r| deviated.contains(&checks::obs_key(r.inport, &r.header)))
        .copied()
        .collect();
    let mut plan = Vec::new();
    let mut rejected = 0;
    let mut heartbeats = 0;
    let mut leaked = 0;
    let mut leaked_keys = HashSet::new();
    let mut block_bytes = Vec::new();
    for t in 0..2 {
        let b = block[t * scale.block_per_thread..(t + 1) * scale.block_per_thread].to_vec();
        let p = pool[t * scale.pool_per_thread..(t + 1) * scale.pool_per_thread].to_vec();
        let cfg = ChaosConfig {
            seed: AGENT_SEED + t as u64,
            loss_pct: 0.0,
            dup_pct: 0.0,
            corrupt_pct: BLOCK_CORRUPT_PCT,
        };
        let fate = capture_block(&b, cfg.clone())?;
        rejected += fate.rejected;
        heartbeats += fate.heartbeats;
        leaked += fate.leaked.len() as u64;
        leaked_keys.extend(
            fate.leaked
                .iter()
                .map(|r| checks::obs_key(r.inport, &r.header)),
        );
        block_bytes.extend_from_slice(&fate.bytes);
        let faithful = ChaosConfig {
            seed: AGENT_SEED,
            loss_pct: 0.0,
            dup_pct: 0.0,
            corrupt_pct: 0.0,
        };
        plan.push(vec![
            Part {
                reports: Arc::new(b),
                agent: Some(cfg),
                relabel: false,
            },
            Part {
                reports: Arc::new(p),
                agent: Some(faithful),
                relabel: true,
            },
        ]);
    }
    Ok(Inputs {
        plan,
        hostile: Some(Hostile {
            fault,
            deviated,
            leaked_keys,
            rejected,
            heartbeats,
            leaked,
            block_bytes,
            failing,
        }),
    })
}

/// Relabelled observations must get the report their base observation got:
/// replay a sample through the simulated data plane with each round port.
fn check_relabel(net: &mut Network, pool: &[TagReport], rounds: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(rounds);
    for i in 0..64 {
        let base = pool[rng.gen_range(0..pool.len())];
        let mut header = base.header;
        header.dst_port = round_port(i * 997 % rounds.max(1));
        let got = observe(net, base.inport, header);
        let mut want = base;
        want.header = header;
        if got.map(|r| r.with_epoch(base.epoch)) != Some(want) {
            return Err(format!(
                "relabelled observation {header:?} took another path"
            ));
        }
    }
    Ok(())
}

/// Check one pipeline's outcome (a light phase or a saturating window) and
/// return `(frames attempted, operations failed)`.
///
/// `veridp_net::serve` with a robust configuration re-enables robust mode,
/// which resets the dedup filter and the alarm state, so the alarms read
/// here are this pipeline's alone; the exact count of failing deviated
/// reports below would catch alarms carried over from an earlier one.
fn check_pipeline(
    inputs: &Inputs,
    rounds: u64,
    snap: &NetStatsSnapshot,
    server: &VeriDpServer<HeaderSpace>,
    before: &ServerStats,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let frames = rounds * inputs.frames_per_round();
    let after = server.stats();
    let reports = after.reports - before.reports;
    let passed = after.passed - before.passed;
    let duplicates = after.duplicates - before.duplicates;
    let mut results = vec![
        checks::conserved(snap),
        checks::count_is("duplicates", 0, duplicates),
        checks::count_is("verdicts", snap.verified, reports),
        // Every report carries the table's epoch: none is graced or held
        // back as stale.
        checks::count_is("graced reports", 0, after.graced - before.graced),
        checks::count_is(
            "quarantined reports",
            0,
            after.quarantined - before.quarantined,
        ),
    ];
    let failed = match &inputs.hostile {
        None => {
            results.push(checks::count_is("reports verified", frames, snap.verified));
            results.push(checks::count_is("passing verdicts", frames, passed));
            frames.saturating_sub(snap.verified)
        }
        Some(h) => {
            let rejected = rounds * h.rejected;
            let heartbeats = rounds * h.heartbeats;
            results.push(checks::count_is(
                "frames rejected at decode",
                rejected,
                snap.decode_errors,
            ));
            results.push(checks::count_is("heartbeats", heartbeats, snap.heartbeats));
            results.push(checks::count_is(
                "reports verified",
                frames - rejected - heartbeats,
                snap.verified,
            ));
            let robust = server.robust().expect("hostile server runs robust");
            let alarms = robust.alarms.alarms();
            let alarm_keys: Vec<ObsKey> = alarms
                .iter()
                .map(|a| checks::obs_key(a.inport, &a.header))
                .collect();
            results.push(checks::hostile_alarms(
                &alarm_keys,
                &h.deviated,
                &h.leaked_keys,
                &h.deviated,
            ));
            let deviated: Vec<_> = alarms
                .iter()
                .filter(|a| h.deviated.contains(&checks::obs_key(a.inport, &a.header)))
                .collect();
            results.push(checks::count_is(
                "failing deviated reports",
                rounds * h.deviated.len() as u64,
                deviated.iter().map(|a| a.count).sum(),
            ));
            // A deviated report whose localization names a switch other
            // than the faulted one is a failed operation: the aggregator
            // then confirms that switch too.
            let mut misnamed = 0;
            let mut named = HashSet::new();
            for a in &deviated {
                let wrong: Vec<SwitchId> = a
                    .suspects
                    .iter()
                    .map(|&(s, _)| s)
                    .filter(|&s| s != h.fault)
                    .collect();
                if !wrong.is_empty() {
                    misnamed += a.count;
                    named.extend(wrong);
                }
            }
            results.push(checks::confirmed_is(
                &robust.alarms.confirmed_suspects(),
                h.fault,
                &named,
            ));
            let leaked = rounds * h.leaked;
            let clean_verified = snap.verified.saturating_sub(leaked);
            leaked
                + misnamed
                + (frames - rejected - heartbeats - leaked).saturating_sub(clean_verified)
        }
    };
    problems.extend(results.into_iter().filter_map(Result::err));
    (frames, failed + duplicates)
}

/// A timed set-up: deploy (intent compile plus per-FlowMod intercept),
/// fast path on, listener bound. Returns the monitor's parts, the running
/// pipeline, and the deploy and whole set-up times in seconds.
fn set_up(
    topo: &Topology,
    cfg: &IngestConfig,
) -> io::Result<(Controller, IngestPipeline<HeaderSpace>, u64, f64, f64)> {
    let t0 = Instant::now();
    let mut m = span("core.deploy", 1, || {
        Monitor::deploy(topo.clone(), &[Intent::Connectivity], TAG_BITS)
    })
    .map_err(|e| io::Error::other(format!("intents do not compile: {e:?}")))?;
    let deploy_s = t0.elapsed().as_secs_f64();
    m.set_fastpath(true);
    let Monitor {
        controller, server, ..
    } = m;
    let epoch = server.table().epoch();
    let pipeline = span("net.serve", 1, || veridp_net::serve(cfg.clone(), server))?;
    Ok((
        controller,
        pipeline,
        epoch,
        deploy_s,
        t0.elapsed().as_secs_f64(),
    ))
}

/// A data plane with the controller's rules installed, for the generator
/// and the fault-free replay.
fn data_plane(topo: &Topology, ctrl: &Controller) -> Network {
    let mut net = Network::new(topo.clone());
    net.set_tag_bits(TAG_BITS);
    net.apply_messages(ctrl.logical_rules().iter().flat_map(|(s, rules)| {
        rules
            .iter()
            .map(|r| (*s, veridp_switch::OfMessage::FlowAdd(*r)))
    }));
    net
}

/// Run one wire workload, its churn phase on backend `C`. The measured time
/// is cut into segments, each a light phase, a saturating window and churn
/// rounds, so every figure covers the whole run; further set-ups are timed
/// between segments for the same reason.
pub fn run<C: HeaderSetBackend>(
    kind: Kind,
    seed: u64,
    seconds: f64,
    scale: &WireScale,
    churn_scale: &ChurnScale,
) -> io::Result<Output> {
    let traced = trace::enabled();
    let topo = veridp_topo::gen::fat_tree(scale.k);
    let cfg = ingest_config(kind);
    let segments = scale.segments.max(1);
    let light_budget = Duration::from_secs_f64(seconds * 0.25 / segments as f64);
    let window_len = Duration::from_secs_f64(seconds * 0.55 / segments as f64);
    let churn_share = seconds * 0.20;

    let mut setup_s = Vec::new();
    let mut deploy_s = Vec::new();
    let (ctrl, mut pipeline, epoch, d, s) = set_up(&topo, &cfg)?;
    deploy_s.push(d);
    setup_s.push(s);
    let rules = churn::rule_map(ctrl.logical_rules());
    let t0 = Instant::now();
    let mut hs = HeaderSpace::new();
    let built = span("core.build", 1, || {
        PathTable::build(&topo, &rules, &mut hs, TAG_BITS)
    });
    let build_s = t0.elapsed().as_secs_f64();

    let mut gen_net = data_plane(&topo, &ctrl);
    let mut replay_net = data_plane(&topo, &ctrl);
    let inputs = build_inputs(
        kind,
        scale,
        seed,
        &ctrl,
        (&mut gen_net, &mut replay_net),
        epoch,
    )?;
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    // The deployed table must equal a from-scratch build of its rules.
    let (mut server, snap) = pipeline.shutdown();
    problems.extend(checks::count_is("reports before traffic", 0, snap.reports).err());
    problems.extend(
        checks::same_table(
            "deployed table",
            &checks::fingerprint(server.table(), server.header_space()),
            &checks::fingerprint(&built, &hs),
        )
        .err(),
    );
    let phase = churn::Phase::<C>::new(seed, churn_scale);

    let mut bursts = Vec::new();
    let mut rates = Vec::new();
    let mut window_secs = 0.0;
    let mut round_base = 0u64;
    let mut cpu_ns = 0u64;
    let mut verified = 0u64;
    let mut bytes = 0u64;
    let mut reports = 0u64;
    let mut batches = 0u64;
    let mut decode_errors = 0u64;
    let mut pump_p50 = Vec::new();
    let mut ch = ChurnOut::default();
    let mut churn_secs = 0.0;
    let mut extra_setups = scale.setup_reps.saturating_sub(1);
    for seg in 0..segments {
        // Light phase: one burst in flight.
        let before = server.stats().clone();
        pipeline = span("net.serve", 1, || veridp_net::serve(cfg.clone(), server))?;
        let (b, rounds) = light_phase(&pipeline, &inputs.plan, light_budget, round_base)?;
        let (s, snap) = span("net.shutdown", 1, || pipeline.shutdown());
        server = s;
        let (a, f) = check_pipeline(&inputs, rounds, &snap, &server, &before, &mut problems);
        attempted += a;
        failed += f;
        round_base += rounds;
        bursts.extend(b);

        // Saturating window: two closed-loop senders.
        let before = server.stats().clone();
        let (s, w) = saturating_window(server, &cfg, &inputs.plan, window_len, round_base)?;
        server = s;
        let (a, f) = check_pipeline(&inputs, w.rounds, &w.snap, &server, &before, &mut problems);
        attempted += a;
        failed += f;
        round_base += w.rounds;
        rates.push(w.snap.verified as f64 / w.secs.max(1e-9));
        window_secs += w.secs;
        cpu_ns += w.server_cpu_ns;
        verified += w.snap.verified;
        bytes += w.snap.bytes;
        reports += w.snap.reports;
        batches += w.snap.batches;
        decode_errors += w.snap.decode_errors;
        if let Some(l) = w.snap.ingest_latency {
            pump_p50.push(l.p50 as f64);
        }

        // Rule churn in whole rounds, as many as keep the churn phase at its
        // share of the run so far.
        let due = churn_share * (seg + 1) as f64 / segments as f64;
        while ch.rounds == 0 || churn_secs < due {
            let t0 = Instant::now();
            phase.round(&mut ch);
            churn_secs += t0.elapsed().as_secs_f64();
        }

        // Another timed set-up, spread over the run.
        let due = (seg + 1) * (scale.setup_reps - 1) / segments;
        while extra_setups > scale.setup_reps - 1 - due {
            let (_, p, _, d, s) = set_up(&topo, &cfg)?;
            drop(p.shutdown());
            deploy_s.push(d);
            setup_s.push(s);
            extra_setups -= 1;
        }
    }
    problems.append(&mut ch.problems);
    problems.extend(checks::count_is("deployed table epoch", epoch, server.table().epoch()).err());
    if kind == Kind::Hostile {
        if let Err(e) = check_relabel(&mut gen_net, &inputs.plan[0][1].reports, round_base) {
            problems.push(e);
        }
    }
    let cache_hit_ratio = server.stats().cache_hit_ratio();

    let e2e = vec![
        Metric::new("setup_s", sys::median(&setup_s), "s"),
        Metric::new("verify_rps", verified as f64 / window_secs.max(1e-9), "1/s"),
        Metric::new("verdict_p50_us", sys::median(&bursts), "us"),
        Metric::new("update_iqm_ms", sys::middle_mean(&ch.update_ms), "ms"),
        Metric::new("updates_per_s", ch.updates_per_s(), "1/s"),
    ];
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!(
        "wire: {} light bursts; windows at {} reports/s; {} {} churn rounds, {} updates; set-ups {:?} s",
        bursts.len(),
        shown.join(", "),
        ch.rounds,
        C::NAME,
        ch.updates(),
        setup_s
    );
    if let Some(h) = &inputs.hostile {
        eprintln!(
            "fault at {:?}; the last pipeline confirmed {:?}",
            h.fault,
            server.robust().map(|r| r.alarms.confirmed_suspects())
        );
    }

    let peak_rss_mb = sys::peak_rss_mb();
    let mut layers = Vec::new();
    if traced {
        let pool = inputs.reports();
        let (block_bytes, failing) = match &inputs.hostile {
            Some(h) => (h.block_bytes.as_slice(), h.failing.clone()),
            None => (&[][..], Vec::new()),
        };
        let block_frames = match &inputs.hostile {
            Some(_) => 2 * scale.block_per_thread as u64,
            None => 0,
        };
        crate::layers::replay_codec(&pool, block_bytes, block_frames);
        let intake_rps = crate::layers::replay_intake(&pool)?;
        crate::layers::replay_server(&mut server, &pool, &failing, cfg.verify_threads);
        phase.replay_layers();
        layers = crate::layers::collect(crate::layers::Live {
            bytes_per_report: bytes as f64 / reports.max(1) as f64,
            intake_rps,
            reports_per_batch: reports as f64 / batches.max(1) as f64,
            pump_ns_p50: sys::median(&pump_p50),
            server_cpu_ns: cpu_ns as f64 / verified.max(1) as f64,
            decode_errors: decode_errors as f64,
            cache_hit_ratio,
            deploy_s: sys::median(&deploy_s),
            build_s,
            peak_rss_mb,
            verdict_us: bursts.clone(),
            churn: &ch,
        });
    }
    Ok(Output {
        attempted,
        failed,
        problems,
        e2e,
        layers,
    })
}
