//! Per-layer timings for the traced run.
//!
//! Server layers run on the program's own threads (reactor, pump, robust
//! workers), where the benchmark cannot open a span. They are timed here by
//! replaying the workload's own inputs through each layer's public
//! function, on the calling thread, inside spans. Every replay repeats its
//! input until it has run for at least [`MIN_REPLAY`], so layers as fast as
//! 40 ns per report still add up to a measurable span total.

use std::io;
use std::time::{Duration, Instant};

use veridp_bloom::BloomTag;
use veridp_core::{HeaderSetBackend, RobustConfig, VeriDpServer};
use veridp_net::{IngestConfig, IngestServer, NetSender, Transport};
use veridp_packet::{append_framed_report, FrameReader, TagReport};

use crate::churn::ChurnOut;
use crate::sys;
use crate::trace::{self, span};
use crate::Metric;

/// Shortest run of each replay.
const MIN_REPLAY: Duration = Duration::from_millis(200);

/// Reports per replayed batch: the listener's `IngestConfig::batch_reports`.
const BATCH: usize = 1024;

/// Run `pass` until `MIN_REPLAY` has elapsed (at least once).
fn repeat(mut pass: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        pass();
        if t0.elapsed() >= MIN_REPLAY {
            break;
        }
    }
}

/// Encode the reports into framed wire bytes (`append_framed_report`) and
/// decode them again (`FrameReader::push` + `drain_into`), plus any
/// captured bytes of frames the workload put on the wire as they were
/// sent (`extra`, holding `extra_frames` frames, corrupted ones included).
pub fn replay_codec(reports: &[TagReport], extra: &[u8], extra_frames: u64) {
    let stamped: Vec<TagReport> = reports.iter().map(|r| r.with_origin(1 + r.epoch)).collect();
    let mut buffers: Vec<Vec<u8>> = Vec::new();
    repeat(|| {
        buffers.clear();
        for c in stamped.chunks(BATCH) {
            let mut buf = Vec::with_capacity(c.len() * veridp_packet::FRAMED_REPORT_WIRE_LEN);
            span("packet.encode", c.len() as u64, || {
                for r in c {
                    append_framed_report(&mut buf, r);
                }
            });
            buffers.push(buf);
        }
    });
    let mut out = Vec::with_capacity(BATCH);
    repeat(|| {
        for (buf, c) in buffers.iter().zip(stamped.chunks(BATCH)) {
            let mut fr = FrameReader::new();
            span("packet.decode", c.len() as u64, || {
                fr.push(buf);
                out.clear();
                fr.drain_into(&mut out);
            });
            assert_eq!(out.len(), c.len(), "replayed frames decode one to one");
        }
        if !extra.is_empty() {
            let mut fr = FrameReader::new();
            span("packet.decode", extra_frames, || {
                for c in extra.chunks(64 * 1024) {
                    fr.push(c);
                    out.clear();
                    fr.drain_into(&mut out);
                }
            });
        }
    });
}

/// Intake alone: `IngestServer::bind` with no pump, one `NetSender`
/// streaming the reports, the calling thread emptying the queue with
/// `try_drain`. Returns reports taken in per second.
pub fn replay_intake(reports: &[TagReport]) -> io::Result<f64> {
    let server = IngestServer::bind(IngestConfig::new(
        Transport::Tcp,
        "127.0.0.1:0".parse().expect("loopback address"),
    ))?;
    let addr = server.local_addr();
    let reps = 200_000usize.div_ceil(reports.len().max(1));
    let total = (reps * reports.len()) as u64;
    let mut out = Vec::new();
    let (sent, secs) = std::thread::scope(|s| -> io::Result<(u64, f64)> {
        let sender = s.spawn(move || -> io::Result<u64> {
            let mut tx = NetSender::connect(Transport::Tcp, addr)?;
            for _ in 0..reps {
                for r in reports {
                    tx.send_report(r)?;
                }
            }
            Ok(tx.finish()?.reports_sent)
        });
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(60);
        let mut got = 0u64;
        span("net.intake", total, || {
            while got < total && Instant::now() < deadline {
                got += server.try_drain(&mut out) as u64;
                out.clear();
                std::thread::yield_now();
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        let sent = sender.join().expect("intake sender panicked")?;
        Ok((sent, secs))
    })?;
    let snap = server.shutdown_polled(&mut out);
    if snap.reports != sent {
        return Err(io::Error::other(format!(
            "intake replay lost reports: {sent} sent, {} taken in",
            snap.reports
        )));
    }
    Ok(total as f64 / secs.max(1e-9))
}

/// The verify layers on the workload's server: `ingest_batch` at the
/// listener's batch size with `threads` workers and with one, the plain
/// scan (fast path off), `RobustWorker::ingest_batch`, and
/// `PathTable::localize` on failing reports. Without failing reports in
/// the workload, localization runs on copies of its reports whose tag has
/// one bit flipped, the failure localization exists for.
pub fn replay_server<B: HeaderSetBackend>(
    server: &mut VeriDpServer<B>,
    reports: &[TagReport],
    failing: &[TagReport],
    threads: usize,
) {
    let batch = |server: &mut VeriDpServer<B>, name: &'static str, threads: usize| {
        repeat(|| {
            for c in reports.chunks(BATCH) {
                span(name, c.len() as u64, || server.ingest_batch(c, threads));
            }
        })
    };
    batch(server, "core.ingest_batch", threads);
    batch(server, "core.ingest_batch_1t", 1);
    server.set_fastpath(false);
    batch(server, "core.scan", threads);
    server.set_fastpath(true);

    if server.robust().is_none() {
        server.set_robust(Some(RobustConfig::default()));
    }
    server.set_snapshots(true);
    repeat(|| {
        let mut worker = server
            .robust_worker()
            .expect("robust mode and snapshots are on");
        for c in reports.chunks(BATCH) {
            span("core.robust", c.len() as u64, || worker.ingest_batch(c));
        }
    });

    let flipped: Vec<TagReport>;
    let failing = if failing.is_empty() {
        flipped = reports
            .iter()
            .step_by((reports.len() / 256).max(1))
            .map(|r| {
                let mut r = *r;
                r.tag = BloomTag::from_bits(r.tag.bits() ^ 1, r.tag.nbits());
                r
            })
            .collect();
        &flipped[..]
    } else {
        failing
    };
    repeat(|| {
        for r in failing {
            span("core.localize", 1, || {
                server.table().localize(r, server.header_space())
            });
        }
    });
}

/// Figures measured live in the run rather than from spans.
pub struct Live<'a> {
    pub bytes_per_report: f64,
    pub intake_rps: f64,
    pub reports_per_batch: f64,
    pub pump_ns_p50: f64,
    pub server_cpu_ns: f64,
    pub decode_errors: f64,
    pub cache_hit_ratio: f64,
    pub deploy_s: f64,
    pub build_s: f64,
    /// `VmHWM` before the traced replays.
    pub peak_rss_mb: f64,
    /// Every light-phase burst time, in µs.
    pub verdict_us: Vec<f64>,
    pub churn: &'a ChurnOut,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn collect(live: Live) -> Vec<Metric> {
    let t = trace::totals();
    let per_op = |name: &str| t.get(name).map_or(0.0, |x| x.ns_per_op());
    let ch = live.churn;
    let (tail_pct, tail_ms) =
        sys::tail(&ch.update_ms).unwrap_or((50.0, sys::median(&ch.update_ms)));
    vec![
        Metric::new("packet.encode_ns", per_op("packet.encode"), "ns"),
        Metric::new("packet.decode_ns", per_op("packet.decode"), "ns"),
        Metric::new("packet.bytes_per_report", live.bytes_per_report, "B"),
        Metric::new("net.send_ns", per_op("net.send_report"), "ns"),
        Metric::new("net.intake_rps", live.intake_rps, "1/s"),
        Metric::new("net.reports_per_batch", live.reports_per_batch, "count"),
        Metric::new("net.pump_ns_p50", live.pump_ns_p50, "ns"),
        Metric::new("net.server_cpu_ns", live.server_cpu_ns, "ns"),
        Metric::new("net.decode_errors", live.decode_errors, "count"),
        Metric::new("core.ingest_batch_ns", per_op("core.ingest_batch"), "ns"),
        Metric::new(
            "core.ingest_batch_1t_ns",
            per_op("core.ingest_batch_1t"),
            "ns",
        ),
        Metric::new("core.scan_ns", per_op("core.scan"), "ns"),
        Metric::new("core.cache_hit_ratio", live.cache_hit_ratio, "ratio"),
        Metric::new("core.robust_ns", per_op("core.robust"), "ns"),
        Metric::new("core.localize_us", per_op("core.localize") / 1e3, "us"),
        Metric::new("core.deploy_s", live.deploy_s, "s"),
        Metric::new("core.build_s", live.build_s, "s"),
        Metric::new(
            "core.master_update_ms",
            per_op("core.master_update") / 1e6,
            "ms",
        ),
        Metric::new("core.publish_ms", per_op("core.publish") / 1e6, "ms"),
        Metric::new("core.update_p50_ms", sys::median(&ch.update_ms), "ms"),
        Metric::new("core.update_tail_ms", tail_ms, "ms"),
        Metric::new("core.update_tail_pct", tail_pct, "%"),
        Metric::new("core.clone_fallbacks", ch.clone_fallbacks as f64, "count"),
        Metric::new("core.rebuild_ms", sys::median(&ch.rebuild_ms), "ms"),
        Metric::new("core.backend_size", ch.backend_size, "count"),
        Metric::new("core.churn_hit_ratio", ch.hit_ratio(), "ratio"),
        Metric::new("core.battery_rps", ch.verify_rps(), "1/s"),
        Metric::new("core.churn_setup_ms", sys::median(&ch.setup_ms), "ms"),
        Metric::new(
            "verdict_p99_us",
            sys::quantile(&live.verdict_us, 0.99),
            "us",
        ),
        Metric::new("peak_rss_mb", live.peak_rss_mb, "MB"),
    ]
}
