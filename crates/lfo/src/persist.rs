//! Crash-safe persistence of trained LFO deployments.
//!
//! A production rollout ships the trained model (and the configuration it
//! was trained under) to serving hosts; this module defines that artifact
//! and the on-disk store it lives in. The payload is versioned JSON —
//! models are small (30 trees × ≤31 leaves), so human-inspectable JSON
//! beats a bespoke binary format for debuggability, which the paper calls
//! out as a key advantage of trees over RL ("debugging and maintenance is
//! complicated" for model-free RL).
//!
//! ## On-disk format
//!
//! An artifact file is two lines:
//!
//! ```text
//! {"format":"lfo-artifact","version":2,"payload_bytes":N,"checksum":"<fnv1a64 hex>"}
//! {"config":{...},"model":{...},"deployed_cutoff":0.5,"provenance":{...},"validation":{...}}
//! ```
//!
//! The header is parsed first and carries a byte count and an FNV-1a 64
//! checksum over the *exact* payload bytes, so a torn write (truncation)
//! and silent disk corruption (bit flips) are both detected before any
//! model bytes are trusted — the restore path degrades to the cold LRU
//! start instead of deploying a damaged model. The payload itself stays
//! plain JSON for `jq`-style inspection.
//!
//! ## Store layout
//!
//! An [`ArtifactStore`] is a directory of `artifact-NNNNNN.json` files with
//! monotonically increasing sequence numbers. Writes are atomic: the
//! artifact is serialized to a `.tmp-…` file in the same directory, fsynced,
//! and renamed into place (then the directory is fsynced), so a crash at
//! any point leaves either the previous `latest` or the new one — never a
//! partial file under the visible name. Retention is bounded: after each
//! save the oldest artifacts beyond [`ArtifactStore::retain`] are pruned.
//! The store assumes a single writer (the pipeline's Deployer).

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gbdt::{BinMap, Model};
use serde::{Deserialize, Serialize};

use crate::config::LfoConfig;
use crate::features::TrackerSnapshot;
use crate::policy::ModelSlot;

/// Current artifact format version (bumped when the envelope or payload
/// schema changes incompatibly; see `tests/artifact_compat.rs` for the
/// golden-fixture stability contract).
pub const ARTIFACT_VERSION: u32 = 2;

/// Magic string identifying an artifact header.
const MAGIC: &str = "lfo-artifact";

/// Prefix of temporary files used by the atomic write protocol.
const TMP_PREFIX: &str = ".tmp-";

/// FNV-1a 64-bit hash — the artifact content checksum. Dependency-free,
/// deterministic across platforms, and sensitive to any single-bit change.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How the artifact's ensemble was produced: a full from-scratch rebuild,
/// or a delta append on top of an incumbent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineageKind {
    /// All trees grown from scratch on this window.
    #[default]
    Full,
    /// New trees appended to an incumbent ensemble (warm start).
    Delta,
}

/// Training lineage of an artifact's model — records whether (and from
/// what) the ensemble was warm-started, so an operator can trace a serving
/// model back through its chain of delta windows to the last full rebuild.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Lineage {
    /// Full rebuild or delta append.
    pub kind: LineageKind,
    /// Window index of the base model the delta was appended to
    /// (`None` for full rebuilds).
    pub base_window: Option<usize>,
    /// Trees added by this window's training call.
    pub delta_trees: usize,
    /// Total trees in the deployed ensemble.
    pub total_trees: usize,
    /// FNV-1a fingerprint (hex) of the frozen [`BinMap`] the window was
    /// quantized against; `None` when quantiles were fit fresh.
    pub bin_map_fingerprint: Option<String>,
}

/// Structured provenance recorded with every artifact: enough to answer
/// "which run, which window, which rollout produced the model now serving".
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Identifier of the trace/run the model was trained on.
    pub trace_id: String,
    /// Sliding-window index the model was trained on.
    pub window: usize,
    /// [`ModelSlot`] version right after the accepting swap.
    pub slot_version: u64,
    /// Free-form note (trainer host, experiment name, ...).
    pub note: String,
    /// Training lineage (absent in pre-incremental artifacts).
    pub lineage: Option<Lineage>,
    /// Edge PoP the model serves in a multi-PoP topology (`None` for
    /// single-cache deployments and pre-topology artifacts).
    pub pop: Option<usize>,
}

/// Validation data stored alongside the model so a *restore* can re-run
/// the deployment gates without the original training window: a sample of
/// the training window's feature rows (the PSI drift reference) and a
/// small labeled holdout with the accuracy recorded at save time (the
/// accuracy self-check). Both are bounded to a few hundred rows.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StoredValidation {
    /// Drift reference: the training window's trailing-quarter feature
    /// rows, re-tracked from a fresh tracker so the restore probe (also
    /// tracked from fresh) compares at a matching gap-history horizon.
    pub train_sample: Vec<Vec<f32>>,
    /// Holdout feature rows (the gate's holdout split, or the window tail).
    pub holdout_rows: Vec<Vec<f32>>,
    /// Labels paired with `holdout_rows`.
    pub holdout_labels: Vec<f32>,
    /// The model's accuracy on the holdout at `deployed_cutoff`, recorded
    /// at save time — a restored model must reproduce it.
    pub holdout_accuracy: f64,
}

/// A deployable LFO artifact: model + the config that produced it.
#[derive(Clone, Serialize, Deserialize)]
pub struct LfoArtifact {
    /// The configuration the model was trained under.
    pub config: LfoConfig,
    /// The trained admission classifier.
    pub model: Model,
    /// The admission cutoff deployed with the model (may differ from
    /// `config.cutoff` under cutoff tuning).
    pub deployed_cutoff: f64,
    /// Where the model came from.
    pub provenance: Provenance,
    /// Stored validation data for restore-time gating.
    pub validation: StoredValidation,
    /// Bounded feature-tracker history (the hottest objects at save time),
    /// so a restored model scores meaningful gap features immediately
    /// instead of seeing every object as first-seen.
    pub tracker: TrackerSnapshot,
    /// The frozen quantile grid the model's incremental chain is binned
    /// against, carried so a warm restart resumes delta training on the
    /// same grid. Absent in pre-incremental artifacts and whenever
    /// incremental retraining is off.
    pub bin_map: Option<BinMap>,
}

/// The artifact envelope header: parsed and verified before any payload
/// byte is trusted.
#[derive(Serialize, Deserialize)]
struct Header {
    format: String,
    version: u32,
    payload_bytes: u64,
    checksum: String,
}

/// Errors from artifact (de)serialization and the store.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed JSON in the payload.
    Format(serde_json::Error),
    /// The file has no recognizable artifact header (wrong magic, damaged
    /// or missing header line) — it is not (or no longer) an LFO artifact.
    NotAnArtifact,
    /// The artifact was produced by an incompatible format version.
    VersionMismatch {
        /// Version found in the artifact.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The payload byte count does not match the header — a torn write.
    Truncated {
        /// Payload bytes promised by the header.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// The payload checksum does not match the header — disk corruption.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        found: u64,
    },
    /// The store holds no artifact.
    Missing(PathBuf),
    /// The artifact is internally inconsistent or incompatible with the
    /// requesting configuration (e.g. feature-count mismatch).
    Incompatible(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Format(e) => write!(f, "format error: {e}"),
            PersistError::NotAnArtifact => write!(f, "not an LFO artifact (bad or missing header)"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "artifact version {found}, expected {expected}")
            }
            PersistError::Truncated { expected, found } => {
                write!(
                    f,
                    "artifact truncated: {found} payload bytes, header promises {expected}"
                )
            }
            PersistError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "artifact checksum {found:016x}, header records {expected:016x}"
                )
            }
            PersistError::Missing(dir) => {
                write!(f, "no artifact in store {}", dir.display())
            }
            PersistError::Incompatible(why) => write!(f, "incompatible artifact: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

impl LfoArtifact {
    /// Wraps a trained model for deployment.
    pub fn new(
        config: LfoConfig,
        model: Model,
        deployed_cutoff: f64,
        provenance: Provenance,
    ) -> Self {
        LfoArtifact {
            config,
            model,
            deployed_cutoff,
            provenance,
            validation: StoredValidation::default(),
            tracker: TrackerSnapshot::default(),
            bin_map: None,
        }
    }

    /// Attaches stored validation data (for restore-time gating).
    pub fn with_validation(mut self, validation: StoredValidation) -> Self {
        self.validation = validation;
        self
    }

    /// Attaches a feature-tracker snapshot (for warm-start serving).
    pub fn with_tracker(mut self, tracker: TrackerSnapshot) -> Self {
        self.tracker = tracker;
        self
    }

    /// Attaches the frozen bin map (for incremental warm restarts),
    /// stamping its fingerprint into the provenance lineage.
    pub fn with_bin_map(mut self, bin_map: Option<BinMap>) -> Self {
        if let Some(map) = &bin_map {
            let lineage = self.provenance.lineage.get_or_insert_with(Lineage::default);
            lineage.bin_map_fingerprint = Some(format!("{:016x}", map.fingerprint()));
        }
        self.bin_map = bin_map;
        self
    }

    /// Serializes to the checksummed envelope format.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        let payload = serde_json::to_string(self)?;
        let header = Header {
            format: MAGIC.to_string(),
            version: ARTIFACT_VERSION,
            payload_bytes: payload.len() as u64,
            checksum: format!("{:016x}", checksum(payload.as_bytes())),
        };
        let mut out = serde_json::to_string(&header)?.into_bytes();
        out.push(b'\n');
        out.extend_from_slice(payload.as_bytes());
        Ok(out)
    }

    /// Parses the envelope format, verifying magic, version, byte count,
    /// checksum, and internal consistency — in that order, so damage is
    /// reported as what it is rather than as a JSON parse error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(PersistError::NotAnArtifact)?;
        let header_str =
            std::str::from_utf8(&bytes[..newline]).map_err(|_| PersistError::NotAnArtifact)?;
        let header: Header =
            serde_json::from_str(header_str).map_err(|_| PersistError::NotAnArtifact)?;
        if header.format != MAGIC {
            return Err(PersistError::NotAnArtifact);
        }
        if header.version != ARTIFACT_VERSION {
            return Err(PersistError::VersionMismatch {
                found: header.version,
                expected: ARTIFACT_VERSION,
            });
        }
        let payload = &bytes[newline + 1..];
        if payload.len() as u64 != header.payload_bytes {
            return Err(PersistError::Truncated {
                expected: header.payload_bytes,
                found: payload.len() as u64,
            });
        }
        let expected =
            u64::from_str_radix(&header.checksum, 16).map_err(|_| PersistError::NotAnArtifact)?;
        let found = checksum(payload);
        if found != expected {
            return Err(PersistError::ChecksumMismatch { expected, found });
        }
        let artifact: LfoArtifact = serde_json::from_reader(payload)?;
        if artifact.model.num_features() != artifact.config.num_features() {
            return Err(PersistError::Incompatible(format!(
                "model expects {} features, config defines {}",
                artifact.model.num_features(),
                artifact.config.num_features()
            )));
        }
        Ok(artifact)
    }

    /// Serializes to a writer in the envelope format.
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), PersistError> {
        w.write_all(&self.to_bytes()?)?;
        Ok(())
    }

    /// Deserializes from a reader, verifying the envelope.
    pub fn load<R: Read>(mut r: R) -> Result<Self, PersistError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        LfoArtifact::from_bytes(&bytes)
    }

    /// Loads and verifies an artifact file.
    pub fn load_file(path: &Path) -> Result<Self, PersistError> {
        LfoArtifact::from_bytes(&fs::read(path)?)
    }

    /// Publishes the artifact's model and cutoff into a serving
    /// [`ModelSlot`] — the cold-start path for sharded caches and
    /// prediction servers. The slot compiles the serving engine.
    pub fn publish_to(&self, slot: &ModelSlot) {
        slot.publish(Arc::new(self.model.clone()), self.deployed_cutoff);
    }

    /// Builds a serving cache from the artifact, tracker history included.
    pub fn into_cache(self, capacity: u64) -> crate::policy::LfoCache {
        let mut cache = crate::policy::LfoCache::new(capacity, self.config);
        cache.set_cutoff(self.deployed_cutoff);
        cache.install_model(Arc::new(self.model));
        cache.tracker_mut().load_snapshot(&self.tracker);
        cache
    }
}

/// Where a simulated crash interrupts [`ArtifactStore::save`] — a test
/// hook proving the atomic write protocol never exposes a partial artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrashPoint {
    /// No simulated crash (production behaviour).
    #[default]
    None,
    /// Crash after the temp file is written and fsynced but before the
    /// rename — the visible store must still resolve the previous artifact.
    BeforeRename,
}

/// A directory of versioned artifacts with atomic writes, `latest`
/// resolution by highest sequence number, and bounded retention.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    retain: usize,
    crash: CrashPoint,
}

impl ArtifactStore {
    /// Artifacts kept by default after each save.
    pub const DEFAULT_RETAIN: usize = 4;

    /// Opens (creating if needed) a store directory with default retention.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        ArtifactStore::with_retention(dir, Self::DEFAULT_RETAIN)
    }

    /// Opens a store keeping at most `retain` artifacts (minimum 1).
    pub fn with_retention(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            retain: retain.max(1),
            crash: CrashPoint::None,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The retention bound.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Arms (or disarms) the simulated-crash test hook.
    pub fn set_crash_point(&mut self, crash: CrashPoint) {
        self.crash = crash;
    }

    /// Sequence number of `artifact-NNNNNN.json`, if the name matches.
    fn sequence_of(name: &str) -> Option<u64> {
        let digits = name.strip_prefix("artifact-")?.strip_suffix(".json")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// All artifact files in the store, sorted by ascending sequence.
    /// Temp files from interrupted writes are never visible here.
    pub fn artifacts(&self) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        let mut found = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(seq) = name.to_str().and_then(Self::sequence_of) {
                found.push((seq, entry.path()));
            }
        }
        found.sort_by_key(|(seq, _)| *seq);
        Ok(found)
    }

    /// Path of the newest artifact, if any.
    pub fn latest_path(&self) -> Result<Option<PathBuf>, PersistError> {
        Ok(self.artifacts()?.pop().map(|(_, path)| path))
    }

    /// Loads and verifies the newest artifact;
    /// [`PersistError::Missing`] when the store is empty.
    pub fn load_latest(&self) -> Result<LfoArtifact, PersistError> {
        match self.latest_path()? {
            Some(path) => LfoArtifact::load_file(&path),
            None => Err(PersistError::Missing(self.dir.clone())),
        }
    }

    /// Atomically writes `artifact` as the new latest: serialize to a temp
    /// file in the same directory, fsync, rename into place, fsync the
    /// directory, then prune beyond the retention bound.
    pub fn save(&self, artifact: &LfoArtifact) -> Result<PathBuf, PersistError> {
        let sequence = self.artifacts()?.last().map_or(1, |(seq, _)| seq + 1);
        let final_path = self.dir.join(format!("artifact-{sequence:06}.json"));
        let temp_path = self
            .dir
            .join(format!("{TMP_PREFIX}artifact-{sequence:06}.json"));
        {
            let mut file = File::create(&temp_path)?;
            file.write_all(&artifact.to_bytes()?)?;
            file.sync_all()?;
        }
        if self.crash == CrashPoint::BeforeRename {
            // The temp file stays behind, exactly as a real crash would
            // leave it; the visible store is untouched.
            return Err(PersistError::Io(std::io::Error::other(
                "simulated crash between temp write and rename",
            )));
        }
        fs::rename(&temp_path, &final_path)?;
        // Durability of the rename itself; failure to fsync a directory is
        // non-fatal on filesystems that do not support it.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        self.prune()?;
        Ok(final_path)
    }

    /// Deletes artifacts beyond the retention bound (oldest first) and any
    /// stale temp files left by interrupted writes.
    fn prune(&self) -> Result<(), PersistError> {
        let artifacts = self.artifacts()?;
        if artifacts.len() > self.retain {
            for (_, path) in &artifacts[..artifacts.len() - self.retain] {
                let _ = fs::remove_file(path);
            }
        }
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let is_stale_temp = name.to_str().is_some_and(|n| n.starts_with(TMP_PREFIX));
            if is_stale_temp {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

/// Truncates an artifact file to half its length — a torn write.
/// Test/fault-injection utility (see [`crate::FaultKind::TornArtifactWrite`]).
pub fn tear_artifact(path: &Path) -> std::io::Result<()> {
    let len = fs::metadata(path)?.len();
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len / 2)?;
    file.sync_all()?;
    Ok(())
}

/// Flips one bit of an artifact's payload at a seed-determined offset —
/// silent disk corruption the checksum must catch. Test/fault-injection
/// utility (see [`crate::FaultKind::ArtifactBitFlip`]).
pub fn flip_artifact_bit(path: &Path, seed: u64) -> std::io::Result<()> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    // Land inside the payload when there is one, so the damage exercises
    // the checksum rather than destroying the header.
    let start = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map_or(0, |nl| (nl + 1).min(bytes.len() - 1));
    let span = bytes.len() - start;
    let offset = start + (seed as usize) % span.max(1);
    bytes[offset] ^= 1 << (seed % 8) as u8;
    fs::write(path, bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::CachePolicy;
    use cdn_trace::Request;
    use gbdt::{train, Dataset, GbdtParams};

    fn toy_artifact() -> LfoArtifact {
        let config = LfoConfig::default();
        let rows: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let mut row = vec![i as f32 * 100.0, i as f32 * 100.0, 0.0];
                row.extend(std::iter::repeat_n(5.0, config.num_gaps));
                row
            })
            .collect();
        let labels: Vec<f32> = (0..100).map(|i| (i < 50) as u8 as f32).collect();
        let model = train(
            &Dataset::from_rows(rows, labels).unwrap(),
            &GbdtParams::lfo_paper(),
        );
        LfoArtifact::new(
            config,
            model,
            0.65,
            Provenance {
                trace_id: "unit-test".into(),
                window: 3,
                slot_version: 7,
                note: "toy".into(),
                lineage: None,
                pop: None,
            },
        )
    }

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lfo-persist-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_predictions_and_metadata() {
        let artifact = toy_artifact();
        let mut row = vec![100.0f32, 100.0, 0.0];
        row.extend(std::iter::repeat_n(5.0, 50));
        let before = artifact.model.predict_proba(&row);

        let mut buf = Vec::new();
        artifact.save(&mut buf).unwrap();
        let back = LfoArtifact::load(buf.as_slice()).unwrap();
        assert_eq!(back.deployed_cutoff, 0.65);
        assert_eq!(back.provenance, artifact.provenance);
        assert_eq!(back.provenance.window, 3);
        assert_eq!(back.provenance.slot_version, 7);
        // Bit-equal, not approximately equal: the JSON float formatting is
        // shortest-roundtrip, so serialization is lossless.
        assert_eq!(back.model.predict_proba(&row).to_bits(), before.to_bits());
        assert_eq!(back.model, artifact.model);
    }

    #[test]
    fn lineage_and_bin_map_roundtrip() {
        let mut artifact = toy_artifact();
        let data = Dataset::from_rows(
            (0..60)
                .map(|r| {
                    (0..artifact.config.num_features())
                        .map(|c| ((r * 7 + c * 13) % 101) as f32)
                        .collect()
                })
                .collect(),
            vec![0.0; 60],
        )
        .unwrap();
        let map = BinMap::fit(&data, artifact.config.gbdt.max_bins);
        let fingerprint = map.fingerprint();
        artifact.bin_map = Some(map);
        artifact.provenance.lineage = Some(Lineage {
            kind: LineageKind::Delta,
            base_window: Some(2),
            delta_trees: 6,
            total_trees: 36,
            bin_map_fingerprint: Some(format!("{fingerprint:016x}")),
        });

        let mut buf = Vec::new();
        artifact.save(&mut buf).unwrap();
        let back = LfoArtifact::load(buf.as_slice()).unwrap();
        assert_eq!(back.provenance.lineage, artifact.provenance.lineage);
        let back_map = back.bin_map.expect("bin map survived the roundtrip");
        assert_eq!(back_map.fingerprint(), fingerprint);
    }

    #[test]
    fn artifacts_without_optional_fields_still_load() {
        // A payload with the `bin_map` and `lineage` keys removed outright
        // (not just null) is what a pre-incremental build wrote; both
        // fields must deserialize as None.
        let artifact = toy_artifact();
        let bytes = artifact.to_bytes().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let (_, payload) = text.split_once('\n').unwrap();
        let stripped = payload
            .replace(",\"lineage\":null", "")
            .replace(",\"bin_map\":null", "");
        assert_ne!(stripped, payload, "optional keys not found to strip");
        let header = format!(
            "{{\"format\":\"{MAGIC}\",\"version\":{ARTIFACT_VERSION},\
             \"payload_bytes\":{},\"checksum\":\"{:016x}\"}}",
            stripped.len(),
            checksum(stripped.as_bytes())
        );
        let rebuilt = format!("{header}\n{stripped}").into_bytes();
        let back = LfoArtifact::from_bytes(&rebuilt).expect("stripped payload loads");
        assert!(back.provenance.lineage.is_none());
        assert!(back.bin_map.is_none());
        assert_eq!(back.model, artifact.model);
    }

    #[test]
    fn version_mismatch_rejected() {
        let artifact = toy_artifact();
        let mut bytes = artifact.to_bytes().unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let skewed = text.replacen(
            &format!("\"version\":{ARTIFACT_VERSION}"),
            "\"version\":999",
            1,
        );
        assert_ne!(text, skewed, "header version marker not found");
        bytes = skewed.into_bytes();
        assert!(matches!(
            LfoArtifact::from_bytes(&bytes),
            Err(PersistError::VersionMismatch { found: 999, .. })
        ));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            LfoArtifact::load(&b"not json"[..]),
            Err(PersistError::NotAnArtifact)
        ));
        assert!(matches!(
            LfoArtifact::load(&b"{\"format\":\"something-else\"}\n{}"[..]),
            Err(PersistError::NotAnArtifact)
        ));
    }

    #[test]
    fn truncation_detected_before_parse() {
        let bytes = toy_artifact().to_bytes().unwrap();
        let torn = &bytes[..bytes.len() / 2];
        assert!(matches!(
            LfoArtifact::from_bytes(torn),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let mut bytes = toy_artifact().to_bytes().unwrap();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let offset = newline + 1 + (bytes.len() - newline) / 2;
        bytes[offset] ^= 0x01;
        assert!(matches!(
            LfoArtifact::from_bytes(&bytes),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn checksum_is_fnv1a64() {
        // Pinned reference values keep the hash stable across refactors —
        // existing artifacts on disk depend on it.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"lfo"), 0x126f_8b19_1dca_2d88);
    }

    #[test]
    fn into_cache_deploys_model_and_cutoff() {
        let artifact = toy_artifact();
        let mut cache = artifact.into_cache(1_000_000);
        assert!(cache.has_model());
        assert_eq!(cache.cutoff(), 0.65);
        // It behaves as a live cache immediately.
        let _ = cache.handle(&Request::new(0, 1u64, 100));
        assert!(cache.used() <= cache.capacity());
    }

    #[test]
    fn publish_to_slot_serves_cold_start() {
        let artifact = toy_artifact();
        let slot = ModelSlot::new();
        assert!(!slot.has_model());
        artifact.publish_to(&slot);
        assert!(slot.has_model());
        assert_eq!(slot.version(), 1);
    }

    fn artifact_grid(artifact: &LfoArtifact) -> BinMap {
        let data = Dataset::from_rows(
            (0..80)
                .map(|r| {
                    (0..artifact.config.num_features())
                        .map(|c| ((r * 11 + c * 7) % 97) as f32 * 3.0)
                        .collect()
                })
                .collect(),
            vec![0.0; 80],
        )
        .unwrap();
        BinMap::fit(&data, artifact.config.gbdt.max_bins)
    }

    #[test]
    fn with_bin_map_stamps_the_lineage_fingerprint() {
        let artifact = toy_artifact();
        let map = artifact_grid(&artifact);
        let fingerprint = format!("{:016x}", map.fingerprint());
        let stamped = toy_artifact().with_bin_map(Some(map));
        let lineage = stamped
            .provenance
            .lineage
            .as_ref()
            .expect("lineage created");
        assert_eq!(lineage.bin_map_fingerprint.as_deref(), Some(&*fingerprint));
    }

    #[test]
    fn store_saves_resolves_latest_and_prunes() {
        let dir = temp_store_dir("retention");
        let store = ArtifactStore::with_retention(&dir, 2).unwrap();
        let mut artifact = toy_artifact();
        for window in 0..4 {
            artifact.provenance.window = window;
            store.save(&artifact).unwrap();
        }
        let kept = store.artifacts().unwrap();
        assert_eq!(kept.len(), 2, "retention must prune to 2");
        assert_eq!(kept[0].0, 3);
        assert_eq!(kept[1].0, 4);
        let latest = store.load_latest().unwrap();
        assert_eq!(latest.provenance.window, 3, "latest = last saved");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_reports_missing() {
        let dir = temp_store_dir("empty");
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(matches!(store.load_latest(), Err(PersistError::Missing(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_save_never_exposes_partial_latest() {
        let dir = temp_store_dir("crash");
        let mut store = ArtifactStore::open(&dir).unwrap();
        let mut artifact = toy_artifact();
        artifact.provenance.window = 0;
        store.save(&artifact).unwrap();

        // Crash between temp write and rename: save errors, the temp file
        // is left behind, but the store still resolves the previous
        // artifact and loads it cleanly.
        store.set_crash_point(CrashPoint::BeforeRename);
        artifact.provenance.window = 1;
        assert!(store.save(&artifact).is_err());
        let stale_temp_exists = fs::read_dir(&dir).unwrap().any(|e| {
            e.unwrap()
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(TMP_PREFIX))
        });
        assert!(stale_temp_exists, "crash must leave the temp file behind");
        let survivor = store.load_latest().unwrap();
        assert_eq!(survivor.provenance.window, 0);

        // The next successful save supersedes and cleans up the stale temp.
        store.set_crash_point(CrashPoint::None);
        artifact.provenance.window = 2;
        store.save(&artifact).unwrap();
        assert_eq!(store.load_latest().unwrap().provenance.window, 2);
        let stale_temp_exists = fs::read_dir(&dir).unwrap().any(|e| {
            e.unwrap()
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(TMP_PREFIX))
        });
        assert!(!stale_temp_exists, "recovery must clean stale temp files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_helpers_produce_detectable_damage() {
        let dir = temp_store_dir("damage");
        let store = ArtifactStore::open(&dir).unwrap();
        let artifact = toy_artifact();

        let path = store.save(&artifact).unwrap();
        tear_artifact(&path).unwrap();
        assert!(matches!(
            LfoArtifact::load_file(&path),
            Err(PersistError::Truncated { .. })
        ));

        let path = store.save(&artifact).unwrap();
        flip_artifact_bit(&path, 12345).unwrap();
        assert!(matches!(
            LfoArtifact::load_file(&path),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
