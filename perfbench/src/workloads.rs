//! The workloads and the helpers they share: booting a server at
//! the `ltm serve` defaults, bulk loads, forced full refits, the
//! freshness watcher, and the correctness checks.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ltm_model::{ClaimDb, RawDatabaseBuilder};
use ltm_serve::{HttpClient, LockExt, ServeConfig, Server, WalConfig};

use crate::corpus::{self, books_for_claims, Corpus, Query, Row};
use crate::layers;
use crate::net::{self, Done, Job, Op};
use crate::prom::Scrape;
use crate::report::{json_string, Report};
use crate::stats;
use crate::trace::{self, Span, Trace};
use crate::Args;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadStorm,
    FullReconcile,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadStorm => "read_storm",
            Workload::FullReconcile => "full_reconcile",
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "read_storm" => Ok(Workload::ReadStorm),
            "full_reconcile" => Ok(Workload::FullReconcile),
            other => Err(format!("unknown workload `{other}`")),
        }
    }
}

/// Corpus sizes, in Definition-3 claims.
const READ_STORM_CLAIMS: usize = 100_000;
const FULL_RECONCILE_CLAIMS: usize = 500_000;
/// Set-ups `read_storm` runs per run.
const READ_STORM_SETUPS: usize = 5;
/// Servers `full_reconcile` boots from its prepared directory per run.
const RECONCILE_BOOTS: usize = 4;
/// Distinct generated queries each workload cycles through.
const QUERY_POOL: usize = 4_096;
/// Fact queries per `/query/batch` request.
const BATCH_QUERIES: usize = 64;
/// Rows per batch of the bulk loads whose acks are the ingest latency
/// samples: small enough that every run times tens of thousands of acks
/// spread over seconds, so a short stall of the host moves few of the
/// slices.
const READ_STORM_BATCH_ROWS: usize = 5;
const RECONCILE_BATCH_ROWS: usize = 10;
/// Fresh servers that bulk-load `full_reconcile`'s snapshot rows for its
/// ingest samples: a fresh server's speed varies by tens of percent from
/// one boot to the next.
const RECONCILE_LOADS: usize = 3;
/// Samples per slice of a latency series: the fewest that support a
/// p99. A latency percentile is the median over slices of each slice's
/// percentile.
const LATENCY_SLICE: usize = 1_000;
/// The generator's own lag limit (p99 of how late it noticed a request
/// was due); a run beyond it is invalid.
const LATE_LIMIT_MS: f64 = 100.0;
/// Per-workload floor of `answer_accuracy`.
const ACCURACY_FLOOR: f64 = 0.9;

/// Indexes of the latency and freshness series in `Ctx::server_starts`.
const QUERY: usize = 0;
const ACK: usize = 1;
const FRESH: usize = 2;

/// Samples and state shared by the phases of one run.
struct Ctx<'a> {
    args: &'a Args,
    origin: Instant,
    report: Report,
    /// The main thread's span buffer; worker threads merge theirs in.
    trace: Trace,
    spans: Vec<Span>,
    next_lane: u64,
    setup_s: Vec<f64>,
    query_ms: Vec<f64>,
    /// Successful closed-loop queries, and the storms' seconds summed.
    queries_done: u64,
    query_window_s: f64,
    /// Round-trip seconds of each `/query/batch` (of [`BATCH_QUERIES`]
    /// facts).
    batches: Vec<f64>,
    ingest_rows_per_s: Vec<f64>,
    ack_ms: Vec<f64>,
    /// `full_reconcile`'s probe beside the forced full refits: query and
    /// ingest ack latencies (from the generator's pick-up), reported as
    /// layer metrics.
    beside_query_ms: Vec<f64>,
    beside_ack_ms: Vec<f64>,
    fresh_s: Vec<f64>,
    refit_full_s: Vec<f64>,
    late_ms: Vec<f64>,
    /// `/proc/stat` CPU times when the first server's samples began.
    cpu_at_first_boot: Option<Vec<u64>>,
    /// Where each server's samples start in `query_ms`, `ack_ms` and
    /// `fresh_s` (indexed by [`QUERY`], [`ACK`], [`FRESH`]): slices of a
    /// series never straddle two servers.
    server_starts: Vec<[usize; 3]>,
    /// Client-side `/query` round trips (from send) in the window; their
    /// mean gives the front end's self time.
    query_rtt_ms: Vec<f64>,
    forced_refits: u64,
    forced_refits_failed: u64,
    /// Acked batches the fold watermark never reached.
    unfolded: usize,
    /// Closed-loop completions in each whole second of the storms.
    storm_seconds: Vec<f64>,
    /// Resident set in MiB when the peak was reset, just before the
    /// first server booted.
    rss_baseline_mb: f64,
    /// `VmHWM` read as the first server's window closed, less the
    /// baseline, in MiB: that server's peak without the benchmark's own
    /// inputs.
    peak_rss_mb: Option<f64>,
    /// `answer_accuracy` of each server checked.
    accuracy: Vec<f64>,
}

impl<'a> Ctx<'a> {
    fn new(args: &'a Args, origin: Instant) -> Self {
        Self {
            args,
            origin,
            report: Report::default(),
            trace: Trace::new(args.trace, origin, 0),
            spans: Vec::new(),
            next_lane: 1,
            setup_s: Vec::new(),
            query_ms: Vec::new(),
            queries_done: 0,
            query_window_s: 0.0,
            batches: Vec::new(),
            ingest_rows_per_s: Vec::new(),
            ack_ms: Vec::new(),
            beside_query_ms: Vec::new(),
            beside_ack_ms: Vec::new(),
            fresh_s: Vec::new(),
            refit_full_s: Vec::new(),
            late_ms: Vec::new(),
            cpu_at_first_boot: None,
            server_starts: Vec::new(),
            query_rtt_ms: Vec::new(),
            forced_refits: 0,
            forced_refits_failed: 0,
            unfolded: 0,
            storm_seconds: Vec::new(),
            rss_baseline_mb: 0.0,
            peak_rss_mb: None,
            accuracy: Vec::new(),
        }
    }

    /// Marks where the next server's samples start.
    fn new_server(&mut self) {
        if self.cpu_at_first_boot.is_none() {
            self.cpu_at_first_boot = Some(cpu_times());
        }
        self.server_starts
            .push([self.query_ms.len(), self.ack_ms.len(), self.fresh_s.len()]);
    }

    /// A span buffer for a worker thread.
    fn trace_lane(&mut self) -> Trace {
        self.next_lane += 1;
        Trace::new(self.args.trace, self.origin, self.next_lane)
    }

    /// One HTTP call from the main thread, counted and traced.
    fn call(
        &mut self,
        conn: &mut HttpClient,
        op: Op,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<String, String> {
        let name = http_span(op);
        let open = self.trace.begin(name, None, 0);
        let result = conn.call(method, path, (!body.is_empty()).then_some(body));
        self.trace.end(open);
        let ok = matches!(&result, Ok((s, _)) if (200..300).contains(s));
        self.report.op(op, ok);
        match result {
            Ok((_, body)) if ok => Ok(body),
            Ok((status, body)) => Err(format!("{method} {path} answered {status}: {body}")),
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }

    /// Notes how long a phase of the run took (wall time, for sizing).
    fn phase(&mut self, name: &str, started: Instant) {
        self.report.info.push(format!(
            "phase {name}: {:.3} s",
            started.elapsed().as_secs_f64()
        ));
    }

    fn scrape(&mut self, conn: &mut HttpClient) -> Result<Scrape, String> {
        let body = self.call(conn, Op::Admin, "GET", "/metrics", "")?;
        Scrape::parse(&body)
    }
}

/// A keep-alive client for `addr` (a resolved address cannot fail to
/// resolve).
fn client(addr: SocketAddr) -> HttpClient {
    HttpClient::new(addr).expect("a socket address resolves to itself")
}

fn http_span(op: Op) -> &'static str {
    match op {
        Op::Query => "http.query",
        Op::Batch => "http.batch",
        Op::Ingest => "http.ingest",
        Op::Refit => "http.refit",
        Op::Fact => "http.fact",
        Op::Admin => "http.admin",
    }
}

fn op_span(op: Op) -> &'static str {
    match op {
        Op::Query => "op.query",
        Op::Batch => "op.batch",
        Op::Ingest => "op.ingest",
        _ => "op.other",
    }
}

/// Runs `args.workload` and returns its report.
pub fn run(args: &Args, scratch: &Path, origin: Instant) -> Result<Report, String> {
    let mut ctx = Ctx::new(args, origin);
    record_meta(&mut ctx);
    match args.workload {
        Workload::ReadStorm => read_storm(&mut ctx)?,
        Workload::FullReconcile => full_reconcile(&mut ctx, scratch)?,
    }
    finish(ctx)
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Reads only: a books corpus of about 100k claims with one published
/// full epoch, then a closed-loop `/query` storm over 64 keep-alive
/// connections and a `/query/batch` sub-phase. No ingest, so no refits.
///
/// The set-up runs [`READ_STORM_SETUPS`] times, each on a fresh server
/// that then serves an equal share of the window: one `setup_s` sample
/// and one bulk load (the ingest and freshness samples) per server. How
/// a server's threads land on the cores differs from one boot to the
/// next and moves every latency with it, so one run samples several.
fn read_storm(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.args.seed;
    let share = ctx.args.seconds / READ_STORM_SETUPS as f64;
    let t = Instant::now();
    let corpus = Corpus::books(books_for_claims(READ_STORM_CLAIMS), seed);
    ctx.phase("corpus", t);
    corpus_meta(ctx, &corpus);
    let queries = corpus::queries(&corpus, seed, QUERY_POOL);
    ctx.report.meta("setups", READ_STORM_SETUPS.to_string());
    ctx.report
        .meta_str("automatic_refits", "off (min_pending unreachable)");
    let bodies = query_bodies(&queries, &corpus.sources);
    let batch_bodies = batch_bodies(&queries, &corpus.sources);
    reset_peak_rss(ctx);
    for round in 0..READ_STORM_SETUPS {
        // Automatic refits are off (the window has no ingest, so the
        // daemon would be idle there anyway): the load runs alone and one
        // forced full refit folds it.
        ctx.new_server();
        let started = Instant::now();
        let setup = ctx.trace.begin("setup", None, 0);
        let server = boot_quiet(None)?;
        let fresh = Freshness::start(&server);
        bulk_load(
            ctx,
            &server,
            &corpus.rows,
            READ_STORM_BATCH_ROWS,
            Some(&fresh),
        )?;
        force_full_refit(ctx, &server)?;
        ctx.trace.end(setup);
        ctx.setup_s.push(started.elapsed().as_secs_f64());
        let fresh = fresh.finish(Duration::from_secs(60));
        ctx.unfolded += fresh.unfolded;
        ctx.fresh_s.extend(fresh.samples);
        wait_idle(&server)?;

        let addr = server.addr();
        let mut admin = client(addr);
        let before = ctx.scrape(&mut admin)?;
        let rtt_from = ctx.query_rtt_ms.len();
        let epoch_before = server.predictor().load().epoch;
        read_phase(ctx, addr, &bodies, &batch_bodies, share);
        let after = ctx.scrape(&mut admin)?;
        let epoch_after = server.predictor().load().epoch;
        ctx.report.check(
            "no_refit_during_reads",
            epoch_after == epoch_before,
            format!("epoch {epoch_before} -> {epoch_after}"),
        );
        after_window(ctx, &server, &mut admin, &queries, &corpus, &corpus.rows)?;
        // The per-layer metrics come from the last server's share.
        if ctx.args.trace && round + 1 == READ_STORM_SETUPS {
            let rtt = stats::mean(&ctx.query_rtt_ms[rtt_from..]);
            layers::from_metrics(&mut ctx.report, &before, &after, rtt);
            layers::query_path(ctx_layers(ctx), &server, &queries, &corpus.sources);
            tracing_overhead(ctx, addr, &bodies);
        }
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    Ok(())
}

/// Full reconciliation: boot on a prepared WAL + snapshot directory of
/// about 550k claims, read from the restored store, then force a full
/// refit beside a low-rate open-loop probe of queries and small ingest
/// batches.
///
/// The directory is booted [`RECONCILE_BOOTS`] times, back to back.
/// Each boot is one `setup_s` sample; once it is idle, it serves an equal
/// share of `--seconds`: first the reads of `read_storm` on the restored
/// store (the query samples), then one forced full refit beside the probe
/// (the `refit_full_s` and freshness samples). The ingest samples are
/// bulk loads of the snapshot rows (see [`prepare_reconcile`]).
/// Latencies beside the refit are layer metrics only: with two chains
/// folding on two cores they time the host's scheduler and its CPU
/// steal, which moved their p99 by several times from run to run.
fn full_reconcile(ctx: &mut Ctx, scratch: &Path) -> Result<(), String> {
    /// Share of each boot's window that the reads take.
    const READ_SHARE: f64 = 0.5;
    const PROBE_QUERIES_PER_S: f64 = 500.0;
    const PROBE_INGESTS_PER_S: f64 = 275.0;
    const PROBE_ROWS: usize = 2;
    let seed = ctx.args.seed;
    let share = ctx.args.seconds / RECONCILE_BOOTS as f64;
    let (read_s, reconcile_s) = (share * READ_SHARE, share * (1.0 - READ_SHARE));
    let t = Instant::now();
    let mut corpus = Corpus::books(books_for_claims(FULL_RECONCILE_CLAIMS), seed);
    ctx.phase("corpus", t);
    corpus_meta(ctx, &corpus);
    let queries = corpus::queries(&corpus, seed, QUERY_POOL);
    // Every boot ingests the same probe rows on top of the same base.
    let probe_rows = (PROBE_INGESTS_PER_S * reconcile_s) as usize * PROBE_ROWS;
    let (base, probe) = corpus.split_tail(probe_rows, seed);
    // `base` and `probe` hold every row; drop the corpus's own copy
    // before the measured boots.
    corpus.rows = Vec::new();
    // The last 5% of the base rows live only in the WAL tail, replayed
    // at boot past the snapshot.
    let (snap_rows, wal_rows) = base.split_at(base.len() - base.len() / 20);
    ctx.report
        .meta("snapshot_rows", snap_rows.len().to_string());
    ctx.report.meta("wal_tail_rows", wal_rows.len().to_string());
    ctx.report.meta("boots", RECONCILE_BOOTS.to_string());
    ctx.report.meta_str(
        "automatic_refits",
        "off while preparing, the server defaults once booted",
    );
    let prepared = scratch.join("prepared");
    let t = Instant::now();
    prepare_reconcile(ctx, &prepared, snap_rows, wal_rows)?;
    ctx.phase("prepare", t);
    wal_meta(ctx, &WalConfig::new(&prepared));

    let bodies = query_bodies(&queries, &corpus.sources);
    let batch_bodies = batch_bodies(&queries, &corpus.sources);
    let mut probes = query_jobs(
        &queries,
        &corpus.sources,
        PROBE_QUERIES_PER_S,
        reconcile_s,
        100,
    );
    probes.extend(probe.chunks(PROBE_ROWS).enumerate().map(|(i, rows)| Job {
        due: Duration::from_secs_f64((i as f64 + 0.5) / PROBE_INGESTS_PER_S),
        op: Op::Ingest,
        tag: i,
        lane: WRITE_LANE,
        method: "POST",
        path: "/claims".into(),
        body: corpus::claims_body(rows),
    }));
    probes.sort_by_key(|j| j.due);
    let probe_batches: Vec<&[Row]> = probe.chunks(PROBE_ROWS).collect();
    reset_peak_rss(ctx);
    for round in 0..RECONCILE_BOOTS {
        let dir = scratch.join(format!("boot{round}"));
        copy_dir(&prepared, &dir)?;
        let started = Instant::now();
        let setup = ctx.trace.begin("setup", None, 0);
        let server = boot(Some(WalConfig::new(&dir)))?;
        wait_serving(&server)?;
        ctx.trace.end(setup);
        ctx.setup_s.push(started.elapsed().as_secs_f64());
        // Let the daemon fold the replayed tail first, so every share of
        // the window starts the same way: reads on an idle server.
        let t = Instant::now();
        wait_idle(&server)?;
        ctx.phase("replayed tail folded", t);
        ctx.new_server();

        let addr = server.addr();
        let mut admin = client(addr);
        let before = ctx.scrape(&mut admin)?;
        let rtt_from = ctx.query_rtt_ms.len();
        read_phase(ctx, addr, &bodies, &batch_bodies, read_s);
        let fresh = Freshness::start(&server);
        let start = Instant::now() + Duration::from_millis(50);
        let until = start + Duration::from_secs_f64(reconcile_s);
        // One forced full refit per share, triggered as the probe starts.
        let forcing = |ctx: &mut Ctx, server: &Server| -> Result<(), String> {
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            force_full_refit(ctx, server)
        };
        let acked = open_loop(
            ctx,
            &server,
            &fresh,
            (start, until),
            probes.clone(),
            forcing,
        )?;
        let t = Instant::now();
        let fresh = fresh.finish(Duration::from_secs(120));
        ctx.phase("probe rows folded", t);
        ctx.unfolded += fresh.unfolded;
        ctx.fresh_s.extend(fresh.samples);
        let after = ctx.scrape(&mut admin)?;

        let acked_rows = base
            .iter()
            .chain(acked.iter().flat_map(|&i| probe_batches[i]));
        check_wal_appends(ctx, &server, acked.len() as u64);
        let t = Instant::now();
        after_window(ctx, &server, &mut admin, &queries, &corpus, acked_rows)?;
        ctx.phase("checks", t);
        // The per-layer metrics come from the last boot's share.
        if ctx.args.trace && round + 1 == RECONCILE_BOOTS {
            let rtt = stats::mean(&ctx.query_rtt_ms[rtt_from..]);
            layers::from_metrics(&mut ctx.report, &before, &after, rtt);
            if ctx.report.layers.get("wal.compactions") == Some(&0.0) {
                ctx.report.absent.insert(
                    "wal.compactions",
                    "no WAL segment sealed in the window (default 8 MiB segments)".into(),
                );
            }
            layers::query_path(ctx_layers(ctx), &server, &queries, &corpus.sources);
            layers::store_path(ctx_layers(ctx), &base, &probe, PROBE_ROWS);
            layers::capture(ctx_layers(ctx), &server);
            layers::restore(ctx_layers(ctx), &prepared.join("snapshot.json"))?;
            tracing_overhead(ctx, addr, &bodies);
        }
        let t = Instant::now();
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        ctx.phase("boot shutdown", t);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// Builds the directory `full_reconcile` boots from, through a server
/// with the WAL on and automatic refits off: bulk-load `snap_rows`,
/// publish a full epoch, compact into the snapshot, then journal
/// `wal_rows` past it and copy the directory before the server's final
/// compaction folds them in. Then takes `full_reconcile`'s ingest
/// samples: [`RECONCILE_LOADS`] fresh servers, one after another, each
/// bulk-load `snap_rows` in small batches.
///
/// The sampled loads run with the WAL off. With it on, an ack waits on
/// the disk: for its fsync, and without one, on the kernel's writeback
/// of the appended pages. On a virtual disk shared with other guests
/// that moved the ack p99 by up to 1.6 ms against 0.1 ms from run to
/// run, so the WAL's part is a layer metric instead (`wal.append_mean_ms`
/// and `wal.fsync_mean_ms`, from the booted servers' durable probe).
fn prepare_reconcile(
    ctx: &mut Ctx,
    prepared: &Path,
    snap_rows: &[Row],
    wal_rows: &[Row],
) -> Result<(), String> {
    let staging = prepared.with_extension("staging");
    // Automatic refits off: the directory is built the same way on every
    // run.
    let server = boot_quiet(Some(WalConfig::new(&staging)))?;
    let (acks, rates) = (ctx.ack_ms.len(), ctx.ingest_rows_per_s.len());
    bulk_load(ctx, &server, snap_rows, 1_000, None)?;
    force_full_refit(ctx, &server)?;
    ctx.refit_full_s.clear();
    let mut admin = client(server.addr());
    ctx.call(&mut admin, Op::Admin, "POST", "/admin/compact", "")?;
    bulk_load(ctx, &server, wal_rows, 1_000, None)?;
    ctx.ack_ms.truncate(acks);
    ctx.ingest_rows_per_s.truncate(rates);
    // The tail is fsync'd (acked) and sits in the active segment, which
    // the background compactor leaves alone.
    copy_dir(&staging, prepared)?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let _ = std::fs::remove_dir_all(&staging);
    for _ in 0..RECONCILE_LOADS {
        ctx.new_server();
        let server = boot_quiet(None)?;
        bulk_load(ctx, &server, snap_rows, RECONCILE_BATCH_ROWS, None)?;
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Load phases
// ---------------------------------------------------------------------------

/// The reads of a window: a closed-loop `/query` storm on 2 threads over
/// 64 keep-alive connections for three quarters of `seconds`, then one
/// connection streaming `/query/batch` for the rest.
fn read_phase(
    ctx: &mut Ctx,
    addr: SocketAddr,
    bodies: &[(String, String)],
    batch_bodies: &[String],
    seconds: f64,
) {
    let storm_s = seconds * 0.75;
    closed_loop_storm(ctx, addr, bodies, 2, 32, storm_s);
    batch_phase(ctx, addr, batch_bodies, seconds - storm_s);
}

/// Closed loop: `threads` threads, each cycling round-robin over its own
/// `conns` keep-alive connections with one request outstanding.
fn closed_loop_storm(
    ctx: &mut Ctx,
    addr: SocketAddr,
    bodies: &[(String, String)],
    threads: usize,
    conns: usize,
    seconds: f64,
) {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut lanes: Vec<Trace> = (0..threads).map(|_| ctx.trace_lane()).collect();
    // Per thread: each query's latency (infinite when it failed),
    // completions in each whole second of the window, spans.
    type StormOut = (Vec<f64>, Vec<u64>, Vec<Span>);
    let results: Vec<StormOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(t, lane)| {
                scope.spawn(move || {
                    let mut pool: Vec<HttpClient> = (0..conns).map(|_| client(addr)).collect();
                    let mut lat = Vec::new();
                    let mut per_second: Vec<u64> = Vec::new();
                    let mut n = t;
                    while Instant::now() < until {
                        let (path, body) = &bodies[n % bodies.len()];
                        let conn = &mut pool[(n / threads) % conns];
                        let request = n as u64;
                        let sent = Instant::now();
                        let open = lane.begin("op.query", None, request);
                        let http = lane.begin("http.query", open.id(), request);
                        let result = conn.call("POST", path, Some(body));
                        lane.end(http);
                        let ok = matches!(result, Ok((200, _)));
                        lane.end(open);
                        lat.push(if ok {
                            sent.elapsed().as_secs_f64() * 1e3
                        } else {
                            f64::INFINITY
                        });
                        if ok {
                            let second = started.elapsed().as_secs() as usize;
                            per_second.resize(per_second.len().max(second + 1), 0);
                            per_second[second] += 1;
                        }
                        n += threads;
                    }
                    (lat, per_second, lane.take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("storm thread"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();
    ctx.query_window_s += window_s;
    let whole_seconds = window_s as usize;
    let mut per_second = vec![0u64; whole_seconds];
    for (lat, counts, spans) in results {
        for (total, c) in per_second.iter_mut().zip(counts) {
            *total += c;
        }
        for &l in &lat {
            ctx.report.op(Op::Query, l.is_finite());
            if l.is_finite() {
                ctx.queries_done += 1;
                ctx.query_rtt_ms.push(l);
            }
        }
        ctx.query_ms.extend(lat);
        ctx.spans.extend(spans);
    }
    ctx.storm_seconds
        .extend(per_second.iter().map(|&c| c as f64));
}

/// `/query/batch` bodies of [`BATCH_QUERIES`] consecutive queries.
fn batch_bodies(queries: &[Query], sources: &[String]) -> Vec<String> {
    queries
        .chunks(BATCH_QUERIES)
        .map(|chunk| {
            let items: Vec<String> = chunk.iter().map(|q| q.claims_json(sources)).collect();
            format!("{{\"queries\":[{}]}}", items.join(","))
        })
        .collect()
}

/// The path (1 in 20 with `?methods=all`) and body of every query.
fn query_bodies(queries: &[Query], sources: &[String]) -> Vec<(String, String)> {
    queries
        .iter()
        .map(|q| (q.path().to_owned(), q.body(sources)))
        .collect()
}

/// Closed loop on one connection streaming `/query/batch` requests.
fn batch_phase(ctx: &mut Ctx, addr: SocketAddr, bodies: &[String], seconds: f64) {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut conn = client(addr);
    let mut n = 0;
    while Instant::now() < until {
        let sent = Instant::now();
        let open = ctx.trace.begin("op.batch", None, n as u64);
        let http = ctx.trace.begin("http.batch", open.id(), n as u64);
        let result = conn.call("POST", "/query/batch", Some(&bodies[n % bodies.len()]));
        ctx.trace.end(http);
        ctx.trace.end(open);
        let ok = matches!(result, Ok((200, _)));
        ctx.report.op(Op::Batch, ok);
        if ok {
            ctx.batches.push(sent.elapsed().as_secs_f64());
        }
        n += 1;
    }
}

/// An open-loop query schedule at `per_s` for `seconds`, every
/// `batch_every`-th job a `/query/batch`.
fn query_jobs(
    queries: &[Query],
    sources: &[String],
    per_s: f64,
    seconds: f64,
    batch_every: usize,
) -> Vec<Job> {
    let batches = batch_bodies(queries, sources);
    (0..(per_s * seconds) as usize)
        .map(|i| {
            let due = Duration::from_secs_f64(i as f64 / per_s);
            if i % batch_every == batch_every - 1 {
                Job {
                    due,
                    op: Op::Batch,
                    tag: i,
                    lane: READ_LANE,
                    method: "POST",
                    path: "/query/batch".into(),
                    body: batches[(i / batch_every) % batches.len()].clone(),
                }
            } else {
                let q = &queries[i % queries.len()];
                Job {
                    due,
                    op: Op::Query,
                    tag: i,
                    lane: READ_LANE,
                    method: "POST",
                    path: q.path().into(),
                    body: q.body(sources),
                }
            }
        })
        .collect()
}

/// Lane of the open loop that queries and batches use.
const READ_LANE: usize = 0;
/// Lane of the open loop that ingest batches use.
const WRITE_LANE: usize = 1;

/// Connections of the open loop's lanes: queries and batches on 16,
/// ingest on 2, so requests of one kind stalled in the server cannot
/// hold the connections of the other.
const LANES: [usize; 2] = [16, 2];

/// Runs `jobs` as one open loop on its own thread over `window` (start,
/// end), while `main` runs on the calling thread; the latencies feed the
/// layer metrics of latency beside a refit. Returns the tags of acked
/// ingest jobs.
fn open_loop(
    ctx: &mut Ctx,
    server: &Server,
    fresh: &Freshness,
    window: (Instant, Instant),
    jobs: Vec<Job>,
    main: impl FnOnce(&mut Ctx, &Server) -> Result<(), String>,
) -> Result<Vec<usize>, String> {
    let (start, until) = window;
    let addr = server.addr();
    let store = server.store();
    let mut lane = ctx.trace_lane();
    let (result, main_result) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut done = Vec::new();
            net::open_loop(addr, &LANES, start, until, jobs, &mut |d: Done| {
                if d.op == Op::Ingest && d.ok() {
                    fresh.push(d.done, store.accepted_seq());
                }
                let request = ((d.op as u64) << 32) | d.tag as u64;
                let root = lane.record(op_span(d.op), None, request, d.due, d.done);
                lane.record(http_span(d.op), root, request, d.sent, d.done);
                done.push(d);
            })
            .map(|()| done)
        });
        let main_result = main(ctx, server);
        (handle.join().expect("open-loop thread"), main_result)
    });
    ctx.spans.extend(lane.take());
    let done = result.map_err(|e| format!("open loop: {e}"))?;
    main_result?;
    let mut acked = Vec::new();
    for d in done {
        let ok = d.ok();
        ctx.report.op(d.op, ok);
        ctx.late_ms.push(d.late_ms());
        let latency = if ok { d.latency_ms() } else { f64::INFINITY };
        match d.op {
            Op::Query => {
                ctx.beside_query_ms.push(latency);
                if ok {
                    ctx.query_rtt_ms
                        .push(d.done.duration_since(d.sent).as_secs_f64() * 1e3);
                }
            }
            Op::Ingest => {
                ctx.beside_ack_ms.push(latency);
                if ok {
                    acked.push(d.tag);
                }
            }
            _ => {}
        }
    }
    acked.sort_unstable();
    Ok(acked)
}

// ---------------------------------------------------------------------------
// Server helpers
// ---------------------------------------------------------------------------

/// The `ltm serve` defaults on an ephemeral port, plus `wal`.
fn serve_config(wal: Option<WalConfig>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        wal,
        ..ServeConfig::default()
    }
}

fn boot(wal: Option<WalConfig>) -> Result<Server, String> {
    Server::start(serve_config(wal)).map_err(|e| format!("server boot: {e}"))
}

/// [`boot`] with automatic refits off (`min_pending` unreachable): only
/// forced refits run.
fn boot_quiet(wal: Option<WalConfig>) -> Result<Server, String> {
    let mut config = serve_config(wal);
    config.refit.min_pending = usize::MAX;
    Server::start(config).map_err(|e| format!("server boot: {e}"))
}

/// Closed-loop bulk load on one connection. Records each batch's ack
/// latency and the load's rate at its median ack: batch rows over the
/// median batch round trip (the stalls show in the ack tail instead).
fn bulk_load(
    ctx: &mut Ctx,
    server: &Server,
    rows: &[Row],
    batch: usize,
    fresh: Option<&Freshness>,
) -> Result<(), String> {
    let store = server.store();
    let mut conn = client(server.addr());
    let mut acks = Vec::with_capacity(rows.len().div_ceil(batch));
    for chunk in rows.chunks(batch) {
        let body = corpus::claims_body(chunk);
        let sent = Instant::now();
        ctx.call(&mut conn, Op::Ingest, "POST", "/claims", &body)?;
        let acked = Instant::now();
        acks.push(acked.duration_since(sent).as_secs_f64());
        if let Some(f) = fresh {
            f.push(acked, store.accepted_seq());
        }
    }
    let rows_per_batch = rows.len() as f64 / acks.len().max(1) as f64;
    ctx.ingest_rows_per_s
        .push(rows_per_batch / stats::median(&acks).max(1e-9));
    ctx.ack_ms.extend(acks.iter().map(|s| s * 1e3));
    Ok(())
}

/// The default domain's daemon counters: `(refits started, full refits
/// finished, refits failed)`.
fn refit_counts(server: &Server) -> (u64, u64, u64) {
    let domain = server.domain("default").expect("default domain exists");
    let started = domain.daemon().map_or(0, |d| d.refits_started());
    let counters = server.refit_state().locked().counters();
    (started, counters.refits_full, counters.refits_failed)
}

/// `POST /admin/refit?mode=full`, then waits until that refit published,
/// was rejected or failed; records trigger-to-finish seconds of the
/// first two, and counts the third in `forced_refits_failed`.
fn force_full_refit(ctx: &mut Ctx, server: &Server) -> Result<(), String> {
    let mut conn = client(server.addr());
    let (started_before, _, _) = refit_counts(server);
    let t0 = Instant::now();
    let open = ctx.trace.begin("admin.refit_full", None, 0);
    ctx.call(&mut conn, Op::Refit, "POST", "/admin/refit?mode=full", "")?;
    ctx.forced_refits += 1;
    let deadline = t0 + Duration::from_secs(150);
    // Our refit is the first one started after the trigger, and the
    // daemon runs one refit at a time: whatever finishes next is ours.
    let (full_mid, failed_mid) = loop {
        let (started, full, failed) = refit_counts(server);
        if started > started_before {
            break (full, failed);
        }
        if Instant::now() > deadline {
            return Err("forced full refit never started".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    loop {
        let (_, full, failed) = refit_counts(server);
        // A full refit counts in `refits_full` only once it published or
        // was rejected.
        if full > full_mid {
            ctx.trace.end(open);
            ctx.refit_full_s.push(t0.elapsed().as_secs_f64());
            return Ok(());
        }
        if failed > failed_mid {
            ctx.trace.end(open);
            ctx.forced_refits_failed += 1;
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("forced full refit never finished".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Waits until the daemon has nothing pending and the process has gone
/// quiet: a refit folds and fits its shadow baselines for seconds after
/// it took the pending rows, and a phase that started then would run
/// beside it. Quiet means under 2 CPU ticks (20 ms) in a 250 ms window.
fn wait_idle(server: &Server) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    while server.store().pending() > 0 {
        if Instant::now() > deadline {
            return Err("refit daemon never caught up".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut ticks = process_cpu_ticks();
    loop {
        std::thread::sleep(Duration::from_millis(250));
        let now = process_cpu_ticks();
        if now.saturating_sub(ticks) < 2 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("the server never went idle".into());
        }
        ticks = now;
    }
}

/// CPU time this process has used (user plus system), in clock ticks,
/// from `/proc/self/stat`; 0 where the file is missing.
fn process_cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the whole line.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0)
}

/// Waits until `/healthz` answers 200 with a published epoch.
fn wait_serving(server: &Server) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut conn = client(server.addr());
    loop {
        if let Ok((200, body)) = conn.call("GET", "/healthz", None) {
            if json_field(&body, "epoch").is_some_and(|e| e >= 1.0) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("restored server never served an epoch".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A numeric field of a JSON object.
fn json_field(body: &str, field: &str) -> Option<f64> {
    let value: serde::Value = serde_json::from_str(body).ok()?;
    value.get_field(field).and_then(serde::Value::as_f64)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let target: PathBuf = to.join(entry.file_name());
        if path.is_dir() {
            copy_dir(&path, &target)?;
        } else {
            std::fs::copy(&path, &target).map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Freshness
// ---------------------------------------------------------------------------

/// Times each acked batch until the fold watermark covers the store's
/// accepted sequence as read at its ack.
struct Freshness {
    pending: Arc<Mutex<VecDeque<(Instant, u64)>>>,
    /// Set by [`Freshness::finish`]: the watcher stops once every acked
    /// batch folded, or at this instant.
    give_up: Arc<Mutex<Option<Instant>>>,
    watcher: JoinHandle<Vec<f64>>,
}

/// What the watcher saw.
struct FreshOut {
    samples: Vec<f64>,
    /// Acked batches never folded before the watcher gave up.
    unfolded: usize,
}

impl Freshness {
    fn start(server: &Server) -> Freshness {
        let pending: Arc<Mutex<VecDeque<(Instant, u64)>>> = Arc::default();
        let give_up: Arc<Mutex<Option<Instant>>> = Arc::default();
        let state = server.refit_state();
        let watcher = {
            let pending = Arc::clone(&pending);
            let give_up = Arc::clone(&give_up);
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                loop {
                    let watermark = state.locked().counters().watermark;
                    let now = Instant::now();
                    let mut queue = pending.locked();
                    // Acks are pushed in order, so their sequences never
                    // decrease along the queue.
                    while queue.front().is_some_and(|&(_, seq)| seq <= watermark) {
                        let (acked, _) = queue.pop_front().expect("front exists");
                        samples.push(now.duration_since(acked).as_secs_f64());
                    }
                    let empty = queue.is_empty();
                    drop(queue);
                    if let Some(limit) = *give_up.locked() {
                        if empty || now > limit {
                            return samples;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        Freshness {
            pending,
            give_up,
            watcher,
        }
    }

    fn push(&self, acked: Instant, seq: u64) {
        self.pending.locked().push_back((acked, seq));
    }

    /// Stops accepting acks and waits up to `grace` for the rest to fold.
    fn finish(self, grace: Duration) -> FreshOut {
        *self.give_up.locked() = Some(Instant::now() + grace);
        let samples = self.watcher.join().expect("freshness watcher");
        FreshOut {
            samples,
            unfolded: self.pending.locked().len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Checks and results
// ---------------------------------------------------------------------------

/// The checks every workload runs after its window: batch answers equal
/// single answers, served accuracy, and store counts.
fn after_window<'r>(
    ctx: &mut Ctx,
    server: &Server,
    admin: &mut HttpClient,
    queries: &[Query],
    corpus: &Corpus,
    acked_rows: impl IntoIterator<Item = &'r Row>,
) -> Result<(), String> {
    // The first server's peak, read before the checks below allocate (a
    // claim database of every acked row). Later servers start in a heap
    // that earlier ones left resident (about 10 MiB per server on
    // `read_storm`), so their peaks would read low.
    if ctx.peak_rss_mb.is_none() {
        let peak = proc_status_mb("VmHWM");
        ctx.peak_rss_mb = Some(peak - ctx.rss_baseline_mb);
        ctx.report.info.push(format!(
            "peak RSS: VmHWM {peak:.1} MiB, {:.1} MiB above the baseline",
            peak - ctx.rss_baseline_mb
        ));
    }
    wait_idle(server)?;
    check_batch_equality(ctx, admin, queries, &corpus.sources)?;
    accuracy(ctx, server, admin, corpus)?;
    check_store_counts(ctx, server, acked_rows);
    ctx.report.check(
        "acked_rows_folded",
        ctx.unfolded == 0,
        format!("{} acked batches never folded", ctx.unfolded),
    );
    ctx.report.check(
        "forced_full_refits_finished",
        ctx.forced_refits_failed == 0,
        format!(
            "{} of {} forced full refits published or were rejected, {} failed",
            ctx.forced_refits - ctx.forced_refits_failed,
            ctx.forced_refits,
            ctx.forced_refits_failed
        ),
    );
    Ok(())
}

/// Every `/query/batch` answer must be bit-equal to the single `/query`
/// answers at the same epoch. Retries a batch whose epoch moved.
fn check_batch_equality(
    ctx: &mut Ctx,
    conn: &mut HttpClient,
    queries: &[Query],
    sources: &[String],
) -> Result<(), String> {
    let mut compared = 0;
    let mut mismatched = 0;
    for chunk in queries.chunks(BATCH_QUERIES).take(4) {
        let items: Vec<String> = chunk.iter().map(|q| q.claims_json(sources)).collect();
        let body = format!("{{\"queries\":[{}]}}", items.join(","));
        for _attempt in 0..20 {
            let batch = ctx.call(conn, Op::Batch, "POST", "/query/batch", &body)?;
            let value: serde::Value = serde_json::from_str(&batch).map_err(|e| e.to_string())?;
            let epoch = value.get_field("epoch").and_then(serde::Value::as_f64);
            let Some(serde::Value::Array(results)) = value.get_field("results") else {
                return Err(format!("batch answer without results: {batch}"));
            };
            let batch_p: Vec<Option<f64>> = results
                .iter()
                .map(|r| r.get_field("probability").and_then(serde::Value::as_f64))
                .collect();
            let mut singles = Vec::new();
            let mut same_epoch = true;
            for q in chunk {
                let one = ctx.call(conn, Op::Query, "POST", "/query", &q.body(sources))?;
                same_epoch &= json_field(&one, "epoch") == epoch;
                singles.push(json_field(&one, "probability"));
            }
            if !same_epoch {
                continue;
            }
            compared += chunk.len();
            mismatched += batch_p
                .iter()
                .zip(&singles)
                .filter(|(b, s)| b.map(f64::to_bits) != s.map(f64::to_bits) || b.is_none())
                .count()
                + chunk.len().abs_diff(batch_p.len());
            break;
        }
    }
    ctx.report.check(
        "batch_equals_single",
        compared > 0 && mismatched == 0,
        format!("{compared} answers compared at one epoch, {mismatched} differ"),
    );
    Ok(())
}

/// Share of the generator's labeled facts whose served probability
/// falls on the true side of 0.5.
fn accuracy(
    ctx: &mut Ctx,
    server: &Server,
    conn: &mut HttpClient,
    corpus: &Corpus,
) -> Result<(), String> {
    let store = server.store();
    let mut right = 0;
    for label in &corpus.labels {
        let Some(id) = store.fact_id_by_name(&label.entity, &label.attr) else {
            continue;
        };
        let body = ctx.call(conn, Op::Fact, "GET", &format!("/facts/{id}"), "")?;
        let p = json_field(&body, "probability").unwrap_or(0.5);
        if (label.truth && p > 0.5) || (!label.truth && p < 0.5) {
            right += 1;
        }
    }
    let accuracy = right as f64 / corpus.labels.len().max(1) as f64;
    ctx.accuracy.push(accuracy);
    ctx.report.check(
        "answer_accuracy_floor",
        accuracy >= ACCURACY_FLOOR,
        format!(
            "{right} of {} labeled facts on the true side (floor {ACCURACY_FLOOR})",
            corpus.labels.len()
        ),
    );
    Ok(())
}

/// The store's claim and fact counts must equal those of a claim
/// database built independently from the acked rows.
fn check_store_counts<'r>(
    ctx: &mut Ctx,
    server: &Server,
    acked_rows: impl IntoIterator<Item = &'r Row>,
) {
    let mut builder = RawDatabaseBuilder::new();
    for r in acked_rows {
        builder.add(&r.entity, &r.attr, &r.source);
    }
    let expected = ClaimDb::from_raw(&builder.build());
    let stats = server.store().stats();
    ctx.report.check(
        "store_counts_match_acked_rows",
        stats.claims == expected.num_claims() && stats.facts == expected.num_facts(),
        format!(
            "store {} claims / {} facts, acked rows imply {} / {}",
            stats.claims,
            stats.facts,
            expected.num_claims(),
            expected.num_facts()
        ),
    );
}

/// `wal_appends` must equal the batches acked since this server booted.
fn check_wal_appends(ctx: &mut Ctx, server: &Server, acked_batches: u64) {
    let domain = server.domain("default").expect("default domain exists");
    let appends = domain.wal().map_or(0, |w| w.counters().0);
    ctx.report.check(
        "wal_appends_match_acks",
        appends == acked_batches,
        format!("{appends} WAL appends, {acked_batches} acked batches"),
    );
}

fn ctx_layers<'c, 'a>(ctx: &'c mut Ctx<'a>) -> layers::Sink<'c> {
    layers::Sink {
        report: &mut ctx.report,
        trace: &mut ctx.trace,
    }
}

/// Tracing overhead on the query path: alternating untraced and traced
/// closed-loop slices on one connection, compared by mean round trip.
fn tracing_overhead(ctx: &mut Ctx, addr: SocketAddr, bodies: &[(String, String)]) {
    let mut conn = client(addr);
    let mut spans = Trace::new(true, ctx.origin, 999);
    let mut sums = [(0.0f64, 0u64); 2];
    for slice in 0..8 {
        let traced = slice % 2 == 1;
        let until = Instant::now() + Duration::from_millis(250);
        let mut n = 0;
        while Instant::now() < until {
            let (path, body) = &bodies[n % bodies.len()];
            let sent = Instant::now();
            if traced {
                let open = spans.begin("op.query", None, n as u64);
                let http = spans.begin("http.query", open.id(), n as u64);
                let _ = conn.call("POST", path, Some(body));
                spans.end(http);
                spans.end(open);
            } else {
                let _ = conn.call("POST", path, Some(body));
            }
            sums[usize::from(traced)].0 += sent.elapsed().as_secs_f64();
            sums[usize::from(traced)].1 += 1;
            n += 1;
        }
    }
    let mean = |(s, n): (f64, u64)| s / n.max(1) as f64;
    let overhead = mean(sums[1]) / mean(sums[0]) - 1.0;
    ctx.report.layers.insert("trace.overhead_frac", overhead);
    ctx.report.info.push(format!(
        "tracing overhead: traced mean round trip {:.4} ms over {} calls, untraced {:.4} ms over {} calls ({:+.2}%)",
        mean(sums[1]) * 1e3,
        sums[1].1,
        mean(sums[0]) * 1e3,
        sums[0].1,
        overhead * 100.0
    ));
}

fn record_meta(ctx: &mut Ctx) {
    let args = ctx.args;
    let config = serve_config(None);
    let refit = &config.refit;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    ctx.report.meta_str("workload", args.workload.name());
    ctx.report.meta("seed", args.seed.to_string());
    ctx.report.meta("seconds", args.seconds.to_string());
    ctx.report.meta("trace", args.trace.to_string());
    ctx.report.meta("nproc", nproc.to_string());
    ctx.report.meta_str(
        "git_describe",
        &command_line("git", &["describe", "--always", "--dirty"]),
    );
    ctx.report.meta_str("server_git", ltm_serve::obs::BUILD_GIT);
    ctx.report
        .meta_str("rustc", &command_line("rustc", &["--version"]));
    ctx.report.meta_str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    ctx.report.meta(
        "server",
        format!(
            "{{\"shards\":{},\"threads\":{},\"frontend\":{},\"refit\":{{\"shadows\":{},\"chains\":{},\"min_pending\":{},\"interval_ms\":{},\"full_refit_every\":{},\"rhat_gate\":{},\"iterations\":{},\"burn_in\":{}}}}}",
            config.shards,
            config.threads,
            json_string(&format!("{:?}", config.frontend)),
            refit.shadows,
            refit.chains,
            refit.min_pending,
            refit.interval.as_millis(),
            refit.full_refit_every,
            refit.rhat_gate,
            refit.ltm.schedule.iterations,
            refit.ltm.schedule.burn_in,
        ),
    );
}

fn wal_meta(ctx: &mut Ctx, wal: &WalConfig) {
    ctx.report.meta(
        "wal",
        format!(
            "{{\"sync\":{},\"segment_bytes\":{}}}",
            json_string(&wal.sync.to_string()),
            wal.segment_bytes
        ),
    );
}

fn corpus_meta(ctx: &mut Ctx, corpus: &Corpus) {
    ctx.report.meta(
        "corpus",
        format!(
            "{{\"kind\":\"books\",\"claims\":{},\"facts\":{},\"sources\":{},\"rows\":{},\"labeled_facts\":{}}}",
            corpus.claims,
            corpus.facts,
            corpus.sources.len(),
            corpus.rows.len(),
            corpus.labels.len()
        ),
    );
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Turns the samples into end-to-end metrics, applies the generator's
/// validity limit, and writes the trace.
fn finish(mut ctx: Ctx) -> Result<Report, String> {
    cpu_meta(&mut ctx);
    let window_ms = ctx.query_window_s * 1e3;
    // A failed request misses every latency limit: it reads as the whole
    // window. A latency percentile is the median over consecutive slices
    // of LATENCY_SLICE samples (none across two servers) of each slice's
    // percentile: the host lends the machine's two cores unevenly, and a
    // burst of CPU steal then moves the few slices it covers instead of a
    // whole server's tail. Freshness follows each server's bulk load or
    // refit from start to end, so its percentile is taken per server.
    let starts = &ctx.server_starts;
    let groups = |series: usize, len: usize| -> Vec<usize> {
        let from: Vec<usize> = starts.iter().map(|s| s[series]).collect();
        let slice = if series == FRESH {
            usize::MAX
        } else {
            LATENCY_SLICE
        };
        stats::slice_starts(&from, len, slice)
    };
    let pick = |samples: &[f64], series: usize, q: f64, what: &str| -> Result<f64, String> {
        let capped: Vec<f64> = samples
            .iter()
            .map(|&v| if v.is_finite() { v } else { window_ms })
            .collect();
        stats::median_of_groups(&capped, &groups(series, samples.len()), q)
            .map_err(|e| format!("{what}: {e}"))
    };
    let e2e = &mut ctx.report.e2e;
    e2e.insert("setup_s", stats::median(&ctx.setup_s));
    e2e.insert(
        "query_p50_ms",
        pick(&ctx.query_ms, QUERY, 0.5, "query_p50_ms")?,
    );
    e2e.insert(
        "query_p99_ms",
        pick(&ctx.query_ms, QUERY, 0.99, "query_p99_ms")?,
    );
    // A closed loop's throughput is its median whole second, so one
    // disturbed second does not move it; an open loop's is its rate.
    e2e.insert(
        "query_qps",
        if ctx.storm_seconds.is_empty() {
            ctx.queries_done as f64 / ctx.query_window_s
        } else {
            stats::median(&ctx.storm_seconds)
        },
    );
    // Facts per second at the median batch round trip: robust to the
    // few batches that wait behind a stall.
    e2e.insert(
        "batch_facts_per_s",
        BATCH_QUERIES as f64 / stats::median(&ctx.batches).max(1e-9),
    );
    e2e.insert(
        "ingest_triples_per_s",
        stats::median(&ctx.ingest_rows_per_s),
    );
    e2e.insert(
        "ingest_ack_p50_ms",
        pick(&ctx.ack_ms, ACK, 0.5, "ingest_ack_p50_ms")?,
    );
    e2e.insert(
        "ingest_ack_p99_ms",
        pick(&ctx.ack_ms, ACK, 0.99, "ingest_ack_p99_ms")?,
    );
    e2e.insert(
        "freshness_p50_s",
        pick(&ctx.fresh_s, FRESH, 0.5, "freshness_p50_s")?,
    );
    e2e.insert(
        "freshness_p90_s",
        pick(&ctx.fresh_s, FRESH, 0.9, "freshness_p90_s")?,
    );
    e2e.insert("refit_full_s", stats::median(&ctx.refit_full_s));
    e2e.insert("peak_rss_mb", ctx.peak_rss_mb.unwrap_or(0.0));
    e2e.insert("answer_accuracy", stats::median(&ctx.accuracy));
    for (series, (what, samples)) in [
        ("query", &ctx.query_ms),
        ("ingest ack", &ctx.ack_ms),
        ("freshness", &ctx.fresh_s),
    ]
    .into_iter()
    .enumerate()
    {
        let mut bounds = groups(series, samples.len());
        bounds.push(samples.len());
        let fewest = bounds.windows(2).map(|b| b[1] - b[0]).min().unwrap_or(0);
        ctx.report.info.push(format!(
            "samples {what}: {} in {} groups, fewest {fewest} in one (highest percentile it supports {})",
            samples.len(),
            bounds.len() - 1,
            stats::highest_supported(fewest)
        ));
    }
    beside_refit(
        &mut ctx.report,
        "query",
        "refit.beside_query_p99_ms",
        &ctx.beside_query_ms,
    );
    beside_refit(
        &mut ctx.report,
        "ingest ack",
        "refit.beside_ack_p99_ms",
        &ctx.beside_ack_ms,
    );
    ctx.report.info.push(format!(
        "samples setup: {}, full refits: {}, batches: {}",
        ctx.setup_s.len(),
        ctx.refit_full_s.len(),
        ctx.batches.len()
    ));

    let late_p99 = if ctx.late_ms.len() >= 1_000 {
        stats::percentile(&stats::sorted(&ctx.late_ms), 0.99)?
    } else {
        ctx.late_ms.iter().copied().fold(0.0, f64::max)
    };
    ctx.report.layers.insert("gen.late_p99_ms", late_p99);
    ctx.report.info.push(format!(
        "generator lateness p99 {late_p99:.3} ms over {} open-loop sends (limit {LATE_LIMIT_MS} ms)",
        ctx.late_ms.len()
    ));
    if late_p99 > LATE_LIMIT_MS {
        ctx.report.invalid = Some(format!(
            "the load generator ran {late_p99:.1} ms late at p99 (limit {LATE_LIMIT_MS} ms)"
        ));
    }

    let mut spans = ctx.trace.take();
    spans.append(&mut ctx.spans);
    if ctx.args.trace {
        write_trace(&mut ctx.report, ctx.args, &spans)?;
        for (name, _) in crate::report::PER_LAYER {
            if !ctx.report.layers.contains_key(name) {
                ctx.report.layers.insert(name, 0.0);
                ctx.report
                    .absent
                    .entry(name)
                    .or_insert_with(|| "layer not exercised by this workload".into());
            }
        }
    }
    Ok(ctx.report)
}

/// Reports the latencies of `full_reconcile`'s probe beside its forced
/// full refits, pooled over the run: p50 and p99 as text, the p99 as the
/// layer metric `name` (absent when the probe did not run or too few
/// samples support a p99).
fn beside_refit(report: &mut Report, what: &str, name: &'static str, samples: &[f64]) {
    if samples.is_empty() {
        return;
    }
    let sorted = stats::sorted(samples);
    let p50 = stats::percentile(&sorted, 0.5);
    match stats::percentile(&sorted, 0.99) {
        Ok(p99) if p99.is_finite() => {
            report.layers.insert(name, p99);
            report.info.push(format!(
                "beside the forced full refits: {what} p50 {:.4} ms, p99 {p99:.4} ms over {} samples",
                p50.unwrap_or(f64::NAN),
                samples.len()
            ));
        }
        Ok(_) => {
            let why = format!("over 1% of the {what} requests beside the refits failed");
            report.absent.insert(name, why);
        }
        Err(e) => {
            let why = format!("{what} beside the refits: {e}");
            report.absent.insert(name, why);
        }
    }
}

/// Writes the spans as JSON lines and reports self time per layer.
fn write_trace(report: &mut Report, args: &Args, spans: &[Span]) -> Result<(), String> {
    let path = args.out.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, trace::to_json_lines(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let times = trace::self_times(spans);
    report.layers.insert("trace.spans", spans.len() as f64);
    report.info.push(format!(
        "trace: {} spans written to {}",
        spans.len(),
        path.display()
    ));
    let mut per_layer: std::collections::BTreeMap<String, f64> = Default::default();
    for (name, t) in &times {
        report.info.push(format!(
            "self time {name:<22} count {:>8} total {:>12.3} ms self {:>12.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
        let layer = name.split('.').next().unwrap_or(name);
        *per_layer.entry(format!("self.{layer}_ms")).or_default() += t.self_ns as f64 / 1e6;
    }
    for (name, _) in crate::report::PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("self."))
    {
        let v = per_layer.get(*name).copied().unwrap_or(0.0);
        report.layers.insert(name, v);
    }
    Ok(())
}

/// The machine's CPU times from the first line of `/proc/stat` (user,
/// nice, system, idle, iowait, irq, softirq, steal, …); empty where the
/// file is missing.
fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_owned();
            Some(
                line.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Records how busy the machine was from the first boot on, and how
/// much of its CPU time the host took for others (steal): on a shared
/// host, steal moves every latency, and this says how much it had to.
fn cpu_meta(ctx: &mut Ctx) {
    let (Some(before), after) = (ctx.cpu_at_first_boot.as_ref(), cpu_times()) else {
        return;
    };
    let delta: Vec<f64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    let total: f64 = delta.iter().sum();
    let field = |i: usize| delta.get(i).copied().unwrap_or(0.0) / total.max(1.0);
    ctx.report.meta(
        "cpu",
        format!(
            "{{\"busy_frac\":{:.4},\"steal_frac\":{:.4}}}",
            1.0 - field(3) - field(4) - field(7),
            field(7)
        ),
    );
}

/// A memory field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MiB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands the heap's free pages back to the kernel, so memory that an
/// earlier server freed no longer counts as resident.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim takes a plain integer and only releases free
    // heap memory; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Called just before the run's first server boots: trims the heap and
/// resets the process's peak resident set (`VmHWM`) to its current
/// resident set, which becomes the baseline `peak_rss_mb` is measured
/// from.
fn reset_peak_rss(ctx: &mut Ctx) {
    trim_heap();
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    ctx.rss_baseline_mb = proc_status_mb("VmRSS");
    ctx.report.info.push(format!(
        "peak RSS reset {}: {:.1} MiB resident before the first boot (the benchmark's own inputs)",
        if reset { "done" } else { "unavailable" },
        ctx.rss_baseline_mb
    ));
}
