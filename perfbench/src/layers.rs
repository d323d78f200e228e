//! Per-layer metrics for the traced run, measured from outside the
//! program: deltas of the histograms and counters `/metrics` exports,
//! and timings of the benchmark's own calls into the layers' public
//! functions (on the live server for read-only calls, on a replica store
//! for calls that would change the server's state).

use std::path::Path;
use std::time::Instant;

use ltm_serve::store::LogRecord;
use ltm_serve::{snapshot, DomainSet, RefitConfig, Server, ShardedStore};

use crate::corpus::{Query, Row};
use crate::prom::Scrape;
use crate::report::Report;
use crate::stats;
use crate::trace::Trace;

/// Where layer measurements go.
pub struct Sink<'a> {
    pub report: &'a mut Report,
    pub trace: &'a mut Trace,
}

impl Sink<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.report.layers.insert(name, value);
    }
}

/// Layer metrics read as deltas between two `/metrics` scrapes taken
/// around the measured window. `client_query_ms` is the benchmark's mean
/// `/query` round trip over the same window.
pub fn from_metrics(report: &mut Report, before: &Scrape, after: &Scrape, client_query_ms: f64) {
    let mut set = |name: &'static str, value: f64| {
        report.layers.insert(name, value);
    };
    let http = "ltm_http_request_duration_seconds";
    let query = after.summary_delta(before, http, &[("endpoint", "/query")]);
    let ingest = after.summary_delta(before, http, &[("endpoint", "/claims")]);
    set("server.query_handler_mean_ms", query.mean() * 1e3);
    set("server.ingest_handler_mean_ms", ingest.mean() * 1e3);
    set(
        "frontend.self_mean_ms",
        if query.count > 0.0 {
            client_query_ms - query.mean() * 1e3
        } else {
            0.0
        },
    );
    let requests = after.delta(before, "ltm_http_requests_total", &[]);
    set(
        "event_loop.keepalive_reuse_ratio",
        ratio(
            after.delta(before, "ltm_keepalive_reuse_total", &[]),
            requests,
        ),
    );

    let append = after.summary_delta(before, "ltm_wal_append_duration_seconds", &[]);
    let fsync = after.summary_delta(before, "ltm_wal_fsync_duration_seconds", &[]);
    set("wal.append_mean_ms", append.mean() * 1e3);
    set("wal.fsync_mean_ms", fsync.mean() * 1e3);
    set(
        "wal.fsyncs_per_ack",
        ratio(
            after.delta(before, "ltm_wal_fsyncs_total", &[]),
            ingest.count,
        ),
    );
    set(
        "wal.bytes_per_row",
        ratio(
            after.delta(before, "ltm_wal_bytes_total", &[]),
            after.delta(before, "ltm_ingest_rows_accepted_total", &[]),
        ),
    );
    set(
        "wal.compactions",
        after.delta(before, "ltm_wal_compactions_total", &[]),
    );
    // Rows replayed at this server's boot (a lifetime value, not a delta).
    set(
        "wal.replayed_rows",
        after.sum("ltm_wal_replayed_rows_total", &[]),
    );

    let phase = |p: &str| {
        after
            .summary_delta(before, "ltm_refit_phase_duration_seconds", &[("phase", p)])
            .sum
    };
    let promote = phase("promote");
    set("refit.extract_s", phase("extract"));
    set("refit.fold_s", phase("fold"));
    set("refit.rhat_s", phase("rhat"));
    set("refit.promote_s", promote);
    let published = after.delta(before, "ltm_epochs_published_total", &[]);
    let rejected = after.delta(before, "ltm_epochs_rejected_total", &[]);
    set("refit.finished", published + rejected);
    set(
        "refit.rejected_ratio",
        ratio(rejected, published + rejected),
    );
    set(
        "refit.incremental_count",
        after.delta(before, "ltm_refits_incremental_total", &[]),
    );
    set(
        "refit.full_count",
        after.delta(before, "ltm_refits_full_total", &[]),
    );
    let shadow = after
        .summary_delta(before, "ltm_shadow_fit_duration_seconds", &[])
        .sum;
    set("shadow.fit_s", shadow);
    set("shadow.fit_share_of_promote", ratio(shadow, promote));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Repeats `f` until at least `min_s` seconds have passed; returns the
/// mean seconds per call.
fn per_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed().as_secs_f64() < min_s {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / calls as f64
}

/// The query path's layers, timed on the live server: the epoch load,
/// Equation-3 scoring of the workload's claim lists, and shadow-table
/// lookups.
pub fn query_path(mut sink: Sink, server: &Server, queries: &[Query], sources: &[String]) {
    let root = sink.trace.begin("layers", None, 0);
    let predictor = server.predictor();
    let load = sink.trace.begin("epoch.load", root.id(), 0);
    let load_s = per_call(0.2, || {
        std::hint::black_box(predictor.load());
    });
    sink.trace.end(load);
    sink.set("epoch.load_ns", load_s * 1e9);

    let store = server.store();
    let lists: Vec<Vec<(ltm_model::SourceId, bool)>> = queries
        .iter()
        .map(|q| {
            q.claims
                .iter()
                .map(|&(s, o)| {
                    let id = store
                        .source_id(&sources[s])
                        .unwrap_or(ltm_model::SourceId::new(u32::MAX));
                    (id, o)
                })
                .collect()
        })
        .collect();
    let snap = predictor.load();
    let predict = sink.trace.begin("model.predict", root.id(), 0);
    let mut i = 0;
    let predict_s = per_call(0.2, || {
        std::hint::black_box(snap.predictor.predict_fact(&lists[i % lists.len()]));
        i += 1;
    });
    sink.trace.end(predict);
    sink.set("model.predict_us", predict_s * 1e6);

    match snap.shadow.as_deref() {
        Some(tables) if !tables.fact_ids.is_empty() => {
            let ids = &tables.fact_ids;
            let score = sink.trace.begin("shadow.score", root.id(), 0);
            let mut k = 0;
            // One lookup = every method's score plus the ensemble for
            // one fact, as a `?methods=all` answer needs.
            let score_s = per_call(0.2, || {
                let id = ids[(k * 7919) % ids.len()];
                for m in 0..tables.methods.len() {
                    std::hint::black_box(tables.score(m, id));
                }
                std::hint::black_box(tables.ensemble_score(id));
                k += 1;
            });
            sink.trace.end(score);
            sink.set("shadow.score_us", score_s * 1e6);
        }
        _ => {
            sink.set("shadow.score_us", 0.0);
            sink.report
                .absent
                .insert("shadow.score_us", "no shadow tables published".into());
        }
    }
    sink.trace.end(root);
}

fn records(rows: &[Row]) -> Vec<LogRecord> {
    rows.iter()
        .map(|r| LogRecord {
            entity: r.entity.clone(),
            attr: r.attr.clone(),
            source: r.source.clone(),
            value: None,
        })
        .collect()
}

/// The store and Gibbs layers on a replica store (the live server's
/// store must not be touched: a delta extraction prunes its dirty set).
/// `base` is loaded first; then each `batch`-row batch of `stream` is
/// ingested and the delta since the previous batch extracted — the Δ the
/// daemon folds. Finally the full extraction, and one multi-chain Gibbs
/// fit of its largest shard at the server's refit settings.
pub fn store_path(mut sink: Sink, base: &[Row], stream: &[Row], batch: usize) {
    let root = sink.trace.begin("layers", None, 0);
    let config = RefitConfig::default();
    let replica = ShardedStore::new(ltm_serve::ServeConfig::default().shards);
    for chunk in records(base).chunks(1_000) {
        replica.ingest_batch(chunk, None).expect("replica ingest");
    }
    let mut watermark = replica.accepted_seq();
    let mut ingest_ms = Vec::new();
    let mut extract_ms = Vec::new();
    let (mut dirty_claims, mut rows) = (0usize, 0usize);
    for chunk in records(stream).chunks(batch).take(400) {
        let t = Instant::now();
        let open = sink.trace.begin("store.ingest_batch", root.id(), 0);
        replica.ingest_batch(chunk, None).expect("replica ingest");
        sink.trace.end(open);
        ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let open = sink.trace.begin("store.extract_delta", root.id(), 0);
        let delta = replica.shard_databases_since(watermark);
        sink.trace.end(open);
        extract_ms.push(t.elapsed().as_secs_f64() * 1e3);
        dirty_claims += delta.delta_claims;
        rows += chunk.len();
        watermark = delta.watermark;
    }
    sink.set("store.ingest_batch_ms", stats::mean(&ingest_ms));
    sink.set("store.extract_delta_ms", stats::mean(&extract_ms));
    sink.set(
        "store.dirty_claims_per_row",
        dirty_claims as f64 / rows.max(1) as f64,
    );

    let mut full_ms = Vec::new();
    let mut full = None;
    for _ in 0..3 {
        let t = Instant::now();
        let open = sink.trace.begin("store.extract_full", root.id(), 0);
        full = Some(replica.full_databases_with_ids());
        sink.trace.end(open);
        full_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    sink.set("store.extract_full_ms", stats::median(&full_ms));

    let (delta, _) = full.expect("extracted three times");
    if let Some(db) = delta.batches.iter().max_by_key(|db| db.num_claims()) {
        let t = Instant::now();
        let open = sink.trace.begin("core.fit_chains", root.id(), 0);
        std::hint::black_box(ltm_core::fit_chains(db, &config.ltm, config.chains));
        sink.trace.end(open);
        let work = db.num_claims() * config.ltm.schedule.iterations * config.chains;
        sink.set(
            "core.fold_claims_per_s",
            work as f64 / t.elapsed().as_secs_f64(),
        );
    }
    sink.trace.end(root);
}

/// `snapshot::capture` of the live server's domains: what every
/// compaction pays before it serializes.
pub fn capture(mut sink: Sink, server: &Server) {
    let domains = server.domains();
    let t = Instant::now();
    let open = sink.trace.begin("snapshot.capture", None, 0);
    std::hint::black_box(snapshot::capture(&domains));
    sink.trace.end(open);
    sink.set("snapshot.capture_ms", t.elapsed().as_secs_f64() * 1e3);
}

/// `snapshot::load` + `snapshot::restore` of `path` into a fresh domain
/// set: the snapshot half of a boot.
pub fn restore(mut sink: Sink, path: &Path) -> Result<(), String> {
    let root = sink.trace.begin("snapshot.boot", None, 0);
    let t = Instant::now();
    let load = sink.trace.begin("snapshot.load", root.id(), 0);
    let snap = snapshot::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    sink.trace.end(load);
    let restore = sink.trace.begin("snapshot.restore", root.id(), 0);
    snapshot::restore(&snap, &DomainSet::new(), &RefitConfig::default())
        .map_err(|e| format!("restore {}: {e}", path.display()))?;
    sink.trace.end(restore);
    sink.trace.end(root);
    sink.set("snapshot.restore_s", t.elapsed().as_secs_f64());
    Ok(())
}
