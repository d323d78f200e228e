//! Snapshot save/restore: every domain's store checkpoint + learned
//! state as one JSON file, so a restarted server resumes serving its last
//! published epochs without refitting from scratch.
//!
//! **Format v3** (the only one [`load`] accepts): a `domains` array, one
//! record per hosted domain, each carrying the domain's name,
//! [`ModelKind`] wire name, a [`StoreCheckpoint`] of its store at one
//! accepted sequence `S`, the refit accumulator, and the served epoch.
//! The snapshot holds no rows: the write-ahead log is the only row-level
//! log, and boot replays the WAL records past `S` on top of the restored
//! checkpoint. Files of older versions (which carried the whole row log)
//! are refused with an error naming their version.
//!
//! Per domain: the store side is the checkpoint (names, id assignments,
//! asserted rows, values, dirty maps, sequence, pending count — restore
//! derives every index from it, so global fact ids and sequence numbers
//! survive); the predictor side is the raw parameter tables of the
//! served epoch; the refit side is the streaming accumulator —
//! expected-count cells for boolean domains (4 per source), Gaussian
//! sufficient statistics for real-valued ones (6 per source) — plus its
//! fold watermark, so a restarted server resumes *incremental* refits
//! over the unfolded tail.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use ltm_core::{
    BetaPair, ExpectedCounts, IncrementalLtm, IncrementalRealLtm, NigPrior, RealSuffStats,
    StreamingLtm, StreamingRealLtm,
};
use serde::{Deserialize, Serialize};

use crate::domain::{Domain, DomainSet};
use crate::epoch::EpochSnapshot;
use crate::model::{ModelKind, ServePredictor};
use crate::refit::RefitConfig;
use crate::shadow::{ShadowColumn, ShadowTables};
use crate::store::StoreCheckpoint;

/// The snapshot format version [`capture`] writes and [`load`] accepts.
pub const VERSION: u32 = 3;

/// The real-valued predictor parameters of a served epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealPredictorRec {
    /// Accumulated per-source statistics ([`RealSuffStats::cells`]).
    pub cells: Vec<f64>,
    /// False-side NIG prior mean `m₀`.
    pub side0_mean: f64,
    /// False-side NIG prior strength `κ₀`.
    pub side0_kappa: f64,
    /// False-side inverse-gamma shape `a₀`.
    pub side0_a: f64,
    /// False-side inverse-gamma rate `b₀`.
    pub side0_b: f64,
    /// True-side NIG prior mean `m₁`.
    pub side1_mean: f64,
    /// True-side NIG prior strength `κ₁`.
    pub side1_kappa: f64,
    /// True-side inverse-gamma shape `a₁`.
    pub side1_a: f64,
    /// True-side inverse-gamma rate `b₁`.
    pub side1_b: f64,
}

/// One persisted shadow method column: the method's display name plus
/// its fitted scores and per-source trust.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowColumnRec {
    /// Method display name (`"LTM"` or a paper Table 7 spelling).
    pub name: String,
    /// Per-fact scores, parallel to [`ShadowRec::fact_ids`].
    pub scores: Vec<f64>,
    /// Per-source agreement trust in global source-id order.
    pub trust: Vec<f64>,
}

/// The published shadow tables of a served epoch. Only the fitted
/// columns are persisted; the ensemble, agreement matrices, and
/// percentile indexes are recomputed deterministically on restore
/// ([`crate::shadow::ShadowTables::assemble`]), so a round-trip serves
/// bit-identical shadow answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowRec {
    /// Global fact ids of the fit extraction, ascending.
    pub fact_ids: Vec<u64>,
    /// Score columns, LTM first then Table 7 order.
    pub methods: Vec<ShadowColumnRec>,
}

/// The served epoch's parameters. Boolean and positive-only domains fill
/// the `φ` tables; real-valued domains fill `real` and leave the `φ`
/// tables empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRec {
    /// Epoch number at save time.
    pub epoch: u64,
    /// Per-source sensitivity `φ¹`, indexed by global source id.
    pub phi1: Vec<f64>,
    /// Per-source false-positive rate `φ⁰`.
    pub phi0: Vec<f64>,
    /// `β` prior pseudo-counts.
    pub beta_pos: f64,
    /// See `beta_pos`.
    pub beta_neg: f64,
    /// Fallback `φ¹` for unseen sources.
    pub default_phi1: f64,
    /// Fallback `φ⁰` for unseen sources.
    pub default_phi0: f64,
    /// Diagnostics of the refit that produced the epoch.
    pub max_rhat: f64,
    /// See `max_rhat`.
    pub converged_fraction: f64,
    /// Claims that refit folded in.
    pub trained_claims: usize,
    /// Sources covered by the learned quality.
    pub trained_sources: usize,
    /// Real-valued predictor parameters (real-valued domains only).
    pub real: Option<RealPredictorRec>,
    /// Shadow baseline tables of the epoch (absent for real-valued
    /// domains and epochs fit with shadows disabled).
    pub shadow: Option<ShadowRec>,
}

/// The refit daemon's accumulator at save time. `cells` semantics follow
/// the domain kind: [`ExpectedCounts::cells`] (4 per source) for boolean
/// and positive-only domains, [`RealSuffStats::cells`] (6 per source)
/// for real-valued ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccumulatorRec {
    /// Raw accumulator cells in global source-id order.
    pub cells: Vec<f64>,
    /// Batches the saved trainer had folded (resumes per-batch seed
    /// decorrelation).
    pub batches_seen: usize,
    /// Accepted-row sequence the accumulator covers. The checkpoint and
    /// WAL replay preserve sequence numbers, so this value is directly
    /// meaningful to the restored store.
    pub watermark: u64,
}

/// One domain's complete persisted state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainRec {
    /// Domain name (`default` for the legacy un-prefixed routes).
    pub name: String,
    /// [`ModelKind`] wire name (`boolean` | `real_valued` |
    /// `positive_only`).
    pub kind: String,
    /// The store at one accepted sequence. Its `pending` count is the
    /// tail no refit had folded at save time: restore leaves exactly
    /// that many rows pending so they still arm the refit trigger after
    /// a restart — the saved epoch never saw them.
    pub store: StoreCheckpoint,
    /// The refit accumulator, if any fold had committed by save time.
    pub accumulator: Option<AccumulatorRec>,
    /// The served epoch, if any was published before the save.
    pub epoch: Option<EpochRec>,
}

/// The on-disk snapshot: format version plus one record per domain.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// Format version ([`VERSION`]).
    pub version: u32,
    /// Per-domain state, in the server's domain order.
    pub domains: Vec<DomainRec>,
}

/// Reads `version` before anything else, so a file of another version is
/// refused by name rather than by whichever of its fields fails to parse.
impl Deserialize for Snapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let version = match v.get_field("version") {
            Some(serde::Value::Int(n)) => *n,
            _ => return Err(serde::Error::msg("snapshot has no integer `version` field")),
        };
        if version != i64::from(VERSION) {
            return Err(serde::Error::msg(format!(
                "snapshot format version {version} is not supported (this server reads \
                 version {VERSION} only)"
            )));
        }
        Ok(Snapshot {
            version: VERSION,
            domains: Deserialize::from_value(serde::field_or_null(v, "domains")?)?,
        })
    }
}

impl Snapshot {
    /// The record for `name`, if present.
    pub fn domain(&self, name: &str) -> Option<&DomainRec> {
        self.domains.iter().find(|d| d.name == name)
    }
}

/// Persists the raw shadow columns (the derived artifacts are rebuilt on
/// restore).
fn capture_shadow(tables: &ShadowTables) -> ShadowRec {
    ShadowRec {
        fact_ids: tables.fact_ids.clone(),
        methods: tables
            .methods
            .iter()
            .map(|c| ShadowColumnRec {
                name: c.name.clone(),
                scores: c.scores.clone(),
                trust: c.trust.clone(),
            })
            .collect(),
    }
}

/// Rebuilds full shadow tables (ensemble, agreement, percentile indexes)
/// from persisted columns. Deterministic, so a save/restore round-trip
/// serves bit-identical shadow answers.
fn restore_shadow(rec: &ShadowRec) -> ShadowTables {
    ShadowTables::assemble(
        rec.fact_ids.clone(),
        rec.methods
            .iter()
            .map(|c| ShadowColumn {
                name: c.name.clone(),
                scores: c.scores.clone(),
                trust: c.trust.clone(),
            })
            .collect(),
    )
}

/// Captures one domain's state: store first (one consistent checkpoint
/// under the ingest-order lock), the refit accumulator second, the served
/// epoch last — the same order a refit commits in reverse. A refit that
/// lands in between can only make the saved accumulator/epoch *newer*
/// than the saved checkpoint, which errs toward re-folding already-folded
/// rows at the next boot (the refit path self-heals that with an Empty
/// pass); the reverse order could pair an old accumulator with
/// `pending: 0` and silently exclude the unfolded tail.
fn capture_domain(domain: &Domain) -> DomainRec {
    let store = domain.store().checkpoint();
    let accumulator = {
        let st = domain.refit_state().lock().expect("refit state");
        match domain.kind() {
            ModelKind::Boolean | ModelKind::PositiveOnly => {
                st.streaming().map(|s| AccumulatorRec {
                    cells: s.accumulated().cells().to_vec(),
                    batches_seen: s.batches_seen(),
                    watermark: st.watermark(),
                })
            }
            ModelKind::RealValued => st.streaming_real().map(|s| AccumulatorRec {
                cells: s.accumulated().cells().to_vec(),
                batches_seen: s.batches_seen(),
                watermark: st.watermark(),
            }),
        }
    };
    let snap = domain.predictor().load();
    let epoch = if snap.epoch == 0 {
        None
    } else {
        Some(match &snap.predictor {
            ServePredictor::Boolean(p) => EpochRec {
                epoch: snap.epoch,
                phi1: p.phi1().to_vec(),
                phi0: p.phi0().to_vec(),
                beta_pos: p.beta().pos,
                beta_neg: p.beta().neg,
                default_phi1: p.fallback().0,
                default_phi0: p.fallback().1,
                max_rhat: snap.max_rhat,
                converged_fraction: snap.converged_fraction,
                trained_claims: snap.trained_claims,
                trained_sources: snap.trained_sources,
                real: None,
                shadow: snap.shadow.as_deref().map(capture_shadow),
            },
            ServePredictor::Real(p) => {
                let (side0, side1) = p.priors();
                EpochRec {
                    epoch: snap.epoch,
                    phi1: Vec::new(),
                    phi0: Vec::new(),
                    beta_pos: p.beta().pos,
                    beta_neg: p.beta().neg,
                    default_phi1: 0.0,
                    default_phi0: 0.0,
                    max_rhat: snap.max_rhat,
                    converged_fraction: snap.converged_fraction,
                    trained_claims: snap.trained_claims,
                    trained_sources: snap.trained_sources,
                    real: Some(RealPredictorRec {
                        cells: p.stats().cells().to_vec(),
                        side0_mean: side0.mean,
                        side0_kappa: side0.kappa,
                        side0_a: side0.a,
                        side0_b: side0.b,
                        side1_mean: side1.mean,
                        side1_kappa: side1.kappa,
                        side1_a: side1.a,
                        side1_b: side1.b,
                    }),
                    shadow: None,
                }
            }
        })
    };
    DomainRec {
        name: domain.name().to_owned(),
        kind: domain.kind().as_str().to_owned(),
        store,
        accumulator,
        epoch,
    }
}

/// Captures every domain's state as a v3 snapshot.
pub fn capture(domains: &DomainSet) -> Snapshot {
    Snapshot {
        version: VERSION,
        domains: domains.list().iter().map(|d| capture_domain(d)).collect(),
    }
}

/// Saves a snapshot of every domain as compact JSON.
///
/// The write is atomic and durable: the JSON goes to a temporary file in
/// the same directory, which is fsync'd, renamed over the target, and the
/// directory fsync'd in turn. A kill mid-write can never leave a
/// truncated snapshot (or clobber the previous good one), and once `save`
/// returns `Ok` the new snapshot survives a power loss — which WAL
/// compaction relies on before it deletes the segments the snapshot
/// covers.
pub fn save(domains: &DomainSet, path: &Path) -> io::Result<()> {
    let snapshot = capture(domains);
    let json = serde_json::to_string(&snapshot)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    // Unique per call, not just per process: two workers saving the same
    // path concurrently (racing admin snapshots, or one racing the final
    // shutdown save) must not interleave writes into a shared temp file
    // and rename torn JSON into place.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    // Both failure paths remove the temp file: each save mints a unique
    // name, so leaking it would accumulate litter across retries.
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(json.as_bytes())?;
        file.sync_all()
    });
    written
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
    std::fs::File::open(parent_dir(path))?.sync_all()
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> std::path::PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    }
}

/// Deletes stale `<snapshot>.tmp.*` temp files next to `path` — the
/// litter a crash mid-[`save`] leaves behind (the in-process cleanup in
/// `save` never runs when the process dies between write and rename).
/// Returns how many were removed. Called at boot, before the first save
/// can race anything. A missing parent directory counts as zero.
pub fn clean_stale_temps(path: &Path) -> io::Result<usize> {
    let parent = parent_dir(path);
    let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
        return Ok(0);
    };
    let prefix = format!("{file_name}.tmp.");
    if !parent.exists() {
        return Ok(0);
    }
    let mut removed = 0;
    for entry in std::fs::read_dir(&parent)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with(&prefix)) {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Loads a snapshot file. Only format [`VERSION`] is accepted; any other
/// version is an [`io::ErrorKind::InvalidData`] error naming it.
pub fn load(path: &Path) -> io::Result<Snapshot> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Restores a snapshot into `domains`: each recorded domain is resolved
/// by name — an existing domain must match the record's kind and shard
/// count (its store must be empty, i.e. freshly booted); a missing one
/// is created with the record's kind/shards and `config` and inserted.
/// Per domain the store is rebuilt from its checkpoint, the served epoch
/// installed, and the refit accumulator resumed so the first
/// post-restart refit is incremental. Restored-but-created domains do
/// **not** have a daemon yet; the server spawns daemons for every domain
/// after restore.
pub fn restore(snapshot: &Snapshot, domains: &DomainSet, config: &RefitConfig) -> io::Result<()> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    for rec in &snapshot.domains {
        let kind: ModelKind = rec
            .kind
            .parse()
            .map_err(|e: crate::model::UnknownModelKind| invalid(e.to_string()))?;
        let domain = match domains.get(&rec.name) {
            Some(existing) => {
                if existing.kind() != kind {
                    return Err(invalid(format!(
                        "snapshot domain `{}` is {} but the configured domain is {}",
                        rec.name,
                        kind,
                        existing.kind()
                    )));
                }
                existing
            }
            None => {
                if rec.store.shards.is_empty() {
                    return Err(invalid(format!(
                        "snapshot domain `{}` has no shards",
                        rec.name
                    )));
                }
                let created = Domain::new(&rec.name, kind, rec.store.shards.len(), config);
                domains
                    .insert(Arc::clone(&created))
                    .map_err(|e| invalid(e.to_string()))?;
                created
            }
        };
        restore_domain(rec, kind, &domain, config)?;
    }
    Ok(())
}

fn restore_domain(
    rec: &DomainRec,
    kind: ModelKind,
    domain: &Domain,
    config: &RefitConfig,
) -> io::Result<()> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let cells_per_source = match kind {
        ModelKind::Boolean | ModelKind::PositiveOnly => 4,
        ModelKind::RealValued => 6,
    };
    if let Some(acc) = &rec.accumulator {
        if !acc.cells.len().is_multiple_of(cells_per_source) {
            return Err(invalid(format!(
                "domain `{}` accumulator cells come in blocks of {cells_per_source} per \
                 source, got {}",
                rec.name,
                acc.cells.len()
            )));
        }
    }
    let store = domain.store();
    store
        .restore(&rec.store)
        .map_err(|e| invalid(format!("snapshot domain `{}`: {e}", rec.name)))?;
    if let Some(acc) = &rec.accumulator {
        // A capture that raced a refit can legally pair an accumulator
        // slightly *newer* than the saved checkpoint: a fold that
        // committed between the store read and the state read may cover
        // rows (and even a source) the checkpoint never saw. Both
        // mismatches are repaired here rather than rejected — rejecting
        // would make the server unable to boot from its own
        // legitimately-saved snapshot:
        //
        // * the watermark is clamped to the checkpoint's sequence, so the
        //   rows it is missing are simply not marked folded, and
        // * cells for sources beyond the checkpoint's id space are
        //   dropped (the source was interned after the checkpoint was
        //   taken; its rows come back through WAL replay), keeping every
        //   remaining cell attributed to the id the restored store
        //   assigns. The shed contribution is drift-sized and the next
        //   full refit reconciles it exactly.
        //
        // The checkpoint's pending tail is trusted unless the
        // accumulator provably folded further.
        let watermark = acc.watermark.min(rec.store.seq);
        let folded = rec.store.seq - rec.store.pending as u64;
        store.consume_pending(
            usize::try_from(watermark.saturating_sub(folded)).unwrap_or(usize::MAX),
        );
        let mut cells = acc.cells.clone();
        cells.truncate(rec.store.sources.len() * cells_per_source);
        let mut st = domain.refit_state().lock().expect("refit state");
        match kind {
            ModelKind::Boolean | ModelKind::PositiveOnly => st.restore(
                StreamingLtm::from_accumulated(
                    config.ltm,
                    ExpectedCounts::from_cells(cells),
                    acc.batches_seen,
                ),
                watermark,
            ),
            ModelKind::RealValued => st.restore_real(
                StreamingRealLtm::from_accumulated(
                    config.real,
                    RealSuffStats::from_cells(cells),
                    acc.batches_seen,
                ),
                watermark,
            ),
        }
    }
    if let Some(e) = &rec.epoch {
        let predictor = match kind {
            ModelKind::Boolean | ModelKind::PositiveOnly => {
                ServePredictor::Boolean(IncrementalLtm::from_parts(
                    e.phi1.clone(),
                    e.phi0.clone(),
                    BetaPair::new(e.beta_pos, e.beta_neg),
                    e.default_phi1,
                    e.default_phi0,
                ))
            }
            ModelKind::RealValued => {
                let r = e.real.as_ref().ok_or_else(|| {
                    invalid(format!(
                        "domain `{}` is real_valued but its epoch record has no real \
                         predictor parameters",
                        rec.name
                    ))
                })?;
                if !r.cells.len().is_multiple_of(6) {
                    return Err(invalid(format!(
                        "domain `{}` epoch stats cells come in blocks of 6 per source, got {}",
                        rec.name,
                        r.cells.len()
                    )));
                }
                ServePredictor::Real(IncrementalRealLtm::from_parts(
                    NigPrior {
                        mean: r.side0_mean,
                        kappa: r.side0_kappa,
                        a: r.side0_a,
                        b: r.side0_b,
                    },
                    NigPrior {
                        mean: r.side1_mean,
                        kappa: r.side1_kappa,
                        a: r.side1_a,
                        b: r.side1_b,
                    },
                    BetaPair::new(e.beta_pos, e.beta_neg),
                    RealSuffStats::from_cells(r.cells.clone()),
                ))
            }
        };
        domain.predictor().restore(EpochSnapshot {
            epoch: e.epoch,
            predictor,
            max_rhat: e.max_rhat,
            converged_fraction: e.converged_fraction,
            trained_claims: e.trained_claims,
            trained_sources: e.trained_sources,
            shadow: e.shadow.as_ref().map(|s| Arc::new(restore_shadow(s))),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DEFAULT_DOMAIN;
    use ltm_model::SourceId;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ltm-serve-test-{}-{name}", std::process::id()));
        p
    }

    fn boolean_set(shards: usize) -> DomainSet {
        let set = DomainSet::new();
        set.insert(Domain::new(
            DEFAULT_DOMAIN,
            ModelKind::Boolean,
            shards,
            &RefitConfig::default(),
        ))
        .unwrap();
        set
    }

    #[test]
    fn snapshot_round_trips_store_and_epoch() {
        let set = boolean_set(3);
        let domain = set.default_domain();
        let store = domain.store();
        store.ingest("e0", "a0", "s0");
        store.ingest("e0", "a1", "s1");
        store.ingest("e1", "a0", "s0");
        let mut snap = EpochSnapshot::boot(&RefitConfig::default().ltm.priors);
        snap.predictor = ServePredictor::Boolean(IncrementalLtm::from_parts(
            vec![0.9, 0.4],
            vec![0.05, 0.3],
            BetaPair::new(2.0, 3.0),
            0.5,
            0.1,
        ));
        snap.max_rhat = 1.07;
        snap.trained_claims = 4;
        domain.predictor().publish(snap);

        let path = temp_path("roundtrip.json");
        save(&set, &path).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, capture(&set));
        assert_eq!(loaded.version, VERSION);

        let set2 = boolean_set(3);
        restore(&loaded, &set2, &RefitConfig::default()).unwrap();
        let domain2 = set2.default_domain();
        assert_eq!(domain2.store().stats().facts, store.stats().facts);
        assert_eq!(domain2.store().source_names(), store.source_names());
        assert_eq!(
            domain2.store().pending(),
            store.pending(),
            "restore preserves the unfolded tail"
        );

        let before = domain.predictor().load();
        let after = domain2.predictor().load();
        assert_eq!(after.epoch, before.epoch);
        let claims = [(SourceId::new(0), true), (SourceId::new(1), false)];
        assert_eq!(
            after.predictor.predict_fact(&claims),
            before.predictor.predict_fact(&claims),
            "bit-identical predictions after restore"
        );
    }

    #[test]
    fn snapshot_round_trips_a_real_domain() {
        let set = boolean_set(2);
        let cfg = RefitConfig::default();
        set.insert(Domain::new("scores", ModelKind::RealValued, 2, &cfg))
            .unwrap();
        let domain = set.get("scores").unwrap();
        let store = domain.store();
        store.ingest_valued("e0", "a0", "s0", 0.92);
        store.ingest_valued("e0", "a1", "s1", 0.15);
        store.ingest_valued("e1", "a0", "s0", 0.88);

        // A committed fold: real accumulator over the full store.
        let mut streaming = StreamingRealLtm::new(cfg.real);
        for db in store.full_real_databases().batches {
            streaming.try_observe(&db).unwrap();
        }
        let predictor = streaming.predictor();
        let cells_before = streaming.accumulated().cells().to_vec();
        domain
            .refit_state()
            .lock()
            .unwrap()
            .restore_real(streaming, 3);
        store.consume_pending(3);
        let mut snap = EpochSnapshot::boot_real(&cfg.real);
        snap.predictor = ServePredictor::Real(predictor);
        snap.max_rhat = 1.02;
        domain.predictor().publish(snap);
        // …then one more row arrives unfolded.
        store.ingest_valued("e1", "a1", "s1", 0.4);

        let path = temp_path("real-roundtrip.json");
        save(&set, &path).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let rec = loaded.domain("scores").expect("real domain saved");
        assert_eq!(rec.kind, "real_valued");
        let values: Vec<f64> = rec
            .store
            .shards
            .iter()
            .flat_map(|s| &s.facts)
            .flat_map(|f| f.values.iter().map(|&(_, v)| v))
            .collect();
        assert_eq!(values.len(), 4);
        assert!(values.contains(&0.92), "{values:?}");
        assert_eq!(rec.store.pending, 1);
        assert_eq!(rec.accumulator.as_ref().unwrap().cells, cells_before);

        // Restore into a fresh set that does NOT pre-configure `scores`:
        // the domain is created from the record.
        let set2 = boolean_set(2);
        restore(&loaded, &set2, &cfg).unwrap();
        let domain2 = set2.get("scores").expect("domain created by restore");
        assert_eq!(domain2.kind(), ModelKind::RealValued);
        assert_eq!(domain2.store().pending(), 1, "unfolded tail stays pending");
        let st = domain2.refit_state().lock().unwrap();
        assert_eq!(st.watermark(), 3);
        assert_eq!(
            st.streaming_real().unwrap().accumulated().cells(),
            &cells_before[..]
        );
        drop(st);
        let claims = [(SourceId::new(0), 0.9), (SourceId::new(1), 0.2)];
        assert_eq!(
            domain2.predictor().load().predictor.predict_real(&claims),
            domain.predictor().load().predictor.predict_real(&claims),
            "bit-identical real predictions after restore"
        );
    }

    #[test]
    fn restore_trusts_the_newer_of_pending_and_accumulator_watermark() {
        // A capture racing a refit can pair an older log view (pending
        // still unconsumed) with a newer accumulator; restore must trust
        // the accumulator's watermark instead of re-arming forever.
        let set = boolean_set(1);
        let domain = set.default_domain();
        let store = domain.store();
        store.ingest("e0", "a0", "s0");
        store.ingest("e1", "a0", "s0");
        let mut snapshot = capture(&set);
        assert_eq!(snapshot.domains[0].store.pending, 2);
        snapshot.domains[0].accumulator = Some(AccumulatorRec {
            cells: vec![0.0; 4],
            batches_seen: 1,
            watermark: 2,
        });
        let set2 = boolean_set(1);
        restore(&snapshot, &set2, &RefitConfig::default()).unwrap();
        let domain2 = set2.default_domain();
        assert_eq!(
            domain2.store().pending(),
            0,
            "accumulator already folded both rows"
        );
        assert_eq!(domain2.refit_state().lock().unwrap().watermark(), 2);
    }

    #[test]
    fn restore_leaves_unfolded_tail_pending() {
        let set = boolean_set(2);
        let domain = set.default_domain();
        let store = domain.store();
        store.ingest("e0", "a0", "s0");
        store.ingest("e0", "a1", "s1");
        store.ingest("e1", "a0", "s0");
        // A refit folded the first three rows…
        store.consume_pending(3);
        // …then two more arrived before the save.
        store.ingest("e2", "a0", "s1");
        store.ingest("e2", "a1", "s0");
        assert_eq!(store.pending(), 2);

        let snapshot = capture(&set);
        assert_eq!(snapshot.domains[0].store.pending, 2);
        let set2 = boolean_set(2);
        restore(&snapshot, &set2, &RefitConfig::default()).unwrap();
        assert_eq!(
            set2.default_domain().store().pending(),
            2,
            "the tail the saved epoch never saw must re-arm the refit trigger"
        );
    }

    #[test]
    fn restore_rejects_ragged_accumulator_cells() {
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let mut snapshot = capture(&set);
        snapshot.domains[0].accumulator = Some(AccumulatorRec {
            cells: vec![0.0; 6],
            batches_seen: 1,
            watermark: 1,
        });
        let err = restore(&snapshot, &boolean_set(1), &RefitConfig::default()).unwrap_err();
        assert!(err.to_string().contains("blocks of 4"), "{err}");
    }

    #[test]
    fn restore_repairs_an_accumulator_newer_than_the_checkpoint() {
        // A capture racing a refit can save an accumulator whose
        // watermark exceeds the checkpoint and whose cells cover a source
        // it never interned. Restore must repair (clamp + truncate),
        // not reject — the snapshot was legitimately saved, and a boot
        // failure would strand the server until an operator deletes it.
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let mut snapshot = capture(&set);
        snapshot.domains[0].accumulator = Some(AccumulatorRec {
            // Two sources' cells, but the checkpoint only interns one.
            cells: vec![1.0; 8],
            batches_seen: 3,
            watermark: 99,
        });
        let set2 = boolean_set(1);
        restore(&snapshot, &set2, &RefitConfig::default()).unwrap();
        let domain2 = set2.default_domain();
        let st = domain2.refit_state().lock().unwrap();
        assert_eq!(st.watermark(), 1, "watermark clamped to the checkpoint");
        let resumed = st.streaming().unwrap();
        assert_eq!(
            resumed.accumulated().num_sources(),
            1,
            "cells for the phantom source are dropped"
        );
        drop(st);
        assert_eq!(domain2.store().pending(), 0);
        // The repaired accumulator folds incrementally again — no
        // SourceSpaceShrunk poisoning.
        let store2 = domain2.store();
        let delta = store2.shard_databases_since(1);
        assert!(delta.batches.is_empty());
        store2.ingest("e2", "a", "s");
        assert_eq!(store2.shard_databases_since(1).delta_facts, 1);
    }

    #[test]
    fn clean_stale_temps_removes_only_this_snapshots_litter() {
        let dir = temp_path("stale-temps-dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        std::fs::write(&path, "{}").unwrap();
        std::fs::write(dir.join("snap.json.tmp.1234.0"), "torn").unwrap();
        std::fs::write(dir.join("snap.json.tmp.1234.7"), "torn").unwrap();
        std::fs::write(dir.join("other.json.tmp.1.0"), "not ours").unwrap();
        assert_eq!(clean_stale_temps(&path).unwrap(), 2);
        assert!(path.exists(), "the snapshot itself is untouched");
        assert!(dir.join("other.json.tmp.1.0").exists());
        // Idempotent, and fine on a directory with nothing to clean.
        assert_eq!(clean_stale_temps(&path).unwrap(), 0);
        assert_eq!(
            clean_stale_temps(&dir.join("missing/deep.json")).unwrap(),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_over_an_existing_snapshot() {
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let path = temp_path("atomic.json");
        std::fs::write(&path, "previous good snapshot").unwrap();
        save(&set, &path).unwrap();
        let reloaded = load(&path).unwrap();
        assert_eq!(reloaded, capture(&set));
        // No temp file left behind in the target directory.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n != &stem)
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_corrupt_it() {
        let set = Arc::new(boolean_set(1));
        set.default_domain().store().ingest("e", "a", "s");
        let path = Arc::new(temp_path("concurrent-save.json"));
        let savers: Vec<_> = (0..8)
            .map(|_| {
                let set = Arc::clone(&set);
                let path = Arc::clone(&path);
                std::thread::spawn(move || save(&set, &path).unwrap())
            })
            .collect();
        for s in savers {
            s.join().unwrap();
        }
        // Whichever save renamed last, the file must be a whole snapshot.
        let reloaded = load(&path).unwrap();
        assert_eq!(reloaded, capture(&set));
        std::fs::remove_file(&*path).ok();
    }

    #[test]
    fn restore_rejects_shard_count_mismatch() {
        let set = boolean_set(2);
        set.default_domain().store().ingest("e", "a", "s");
        let snapshot = capture(&set);
        let err = restore(&snapshot, &boolean_set(3), &RefitConfig::default()).unwrap_err();
        assert!(err.to_string().contains("shards"), "{err}");
    }

    #[test]
    fn restore_rejects_kind_mismatch() {
        let set = DomainSet::new();
        set.insert(Domain::new(
            DEFAULT_DOMAIN,
            ModelKind::RealValued,
            1,
            &RefitConfig::default(),
        ))
        .unwrap();
        let snapshot = capture(&set);
        // Restoring a real-valued `default` into a boolean-configured
        // server must fail loudly, not silently mix predictors.
        let err = restore(&snapshot, &boolean_set(1), &RefitConfig::default()).unwrap_err();
        assert!(err.to_string().contains("real_valued"), "{err}");
    }

    #[test]
    fn epoch_zero_saves_without_epoch_record() {
        let set = boolean_set(1);
        let snapshot = capture(&set);
        assert!(snapshot.domains[0].epoch.is_none());
        assert!(snapshot.domains[0].accumulator.is_none());
    }

    #[test]
    fn load_refuses_every_other_version_by_name() {
        let path = temp_path("version.json");
        for (text, want) in [
            ("{\"version\":9,\"domains\":[]}", "version 9"),
            ("{\"domains\":[]}", "no integer `version`"),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(want), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_writes_compact_json() {
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let path = temp_path("compact.json");
        save(&set, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("{\"version\":3,"), "{text}");
        assert!(!text.contains('\n'), "{text}");
    }

    #[test]
    fn restore_rejects_a_corrupt_checkpoint_without_panicking() {
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let mut snapshot = capture(&set);
        snapshot.domains[0].store.shards[0].facts[0].sources = vec![7];
        let err = restore(&snapshot, &boolean_set(1), &RefitConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("source id 7"), "{err}");
        snapshot.domains[0].store.shards.clear();
        let err = restore(&snapshot, &DomainSet::new(), &RefitConfig::default()).unwrap_err();
        assert!(err.to_string().contains("no shards"), "{err}");
    }
}
