//! Stage checkpoints: durable shuffle outputs for bounded-loss recovery.
//!
//! Every recovery path before this module re-executed from the start of the
//! job: shuffle output lived in self-deleting temp segments, so a lost node
//! or an injected OOM that killed a downstream stage forced the whole
//! upstream lineage to rerun. A [`CheckpointStore`] promotes each completed
//! shuffle stage's partition outputs to *named*, manifest-tracked
//! [`SpillSegment`]s (same [`Wire`](crate::wire::Wire) framing the spill path
//! already uses, so checkpoint volume and `partition_bytes` speak the same
//! unit). On retry — whether a same-process stage rerun or a recovered
//! server process — the fault path consults the manifest first and replays
//! only the stage that actually failed.
//!
//! Durability protocol (crash-consistent by construction):
//!
//! 1. the segment file (`KEY.seg`) is written and fsynced first,
//! 2. the manifest (`KEY.manifest`) is written to a temp name, fsynced, and
//!    atomically renamed into place.
//!
//! A manifest therefore never references bytes that aren't durable, and a
//! crash mid-write leaves either no manifest (checkpoint ignored, stage
//! reruns) or a complete one. Loads verify per-chunk lengths and FNV-1a
//! checksums; any mismatch deletes the pair and reports a miss, so a corrupt
//! checkpoint degrades to recomputation, never to wrong results.
//!
//! The manifest is a line-oriented text file:
//!
//! ```text
//! asj-checkpoint v1
//! stage=<escaped stage name>
//! remote_bytes=<u64>
//! local_bytes=<u64>
//! records=<u64>
//! partition_bytes=<csv of u64>
//! chunk=<target>:<records>:<len>:<offset>:<fnv1a hex>
//! ...
//! end
//! ```
//!
//! The trailing `end` line is the commit marker a torn manifest lacks.

use crate::memory::{decode_records, encode_records, SpillChunk, SpillSegment, SpillWriter};
use crate::metrics::ShuffleStats;
use crate::wire::Wire;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a over `bytes` — the repo's standing checksum for result and chunk
/// integrity (same constants as `fault::stage_hash` and the join checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Replaces any character that could upset a filename with `_`. Checkpoint
/// keys embed stage names (which carry `:` prefixes like `job:3:shuffle`).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// What a committed checkpoint decodes back to: the per-partition `(K, V)`
/// outputs of a shuffle stage plus the byte meters measured when it ran.
pub type CheckpointPayload<K, V> = (Vec<Vec<(K, V)>>, ShuffleStats);

/// Raw verified manifest contents: per-partition `(bytes, record_count)`
/// chunks plus the stats recorded at save time.
type VerifiedChunks = (Vec<(Vec<u8>, u64)>, ShuffleStats);

/// A directory of stage checkpoints plus the obs counters the recovery
/// benchmark reports. Shared (via `Arc`) by every clone of a
/// [`Cluster`](crate::Cluster) handle.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    checkpoint_bytes: AtomicU64,
    stages_recovered: AtomicU64,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory and sweeps debris a
    /// prior crashed run may have left: torn manifest temp files and segment
    /// files with no committed manifest.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = CheckpointStore {
            dir,
            checkpoint_bytes: AtomicU64::new(0),
            stages_recovered: AtomicU64::new(0),
        };
        store.sweep_orphans()?;
        Ok(store)
    }

    /// The directory checkpoints live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes written into checkpoint segments by this store.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes.load(Ordering::Relaxed)
    }

    /// Stages served from a checkpoint instead of recomputation.
    pub fn stages_recovered(&self) -> u64 {
        self.stages_recovered.load(Ordering::Relaxed)
    }

    fn seg_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.seg"))
    }

    fn manifest_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.manifest"))
    }

    /// Deletes `*.manifest.tmp` debris and `*.seg` files whose manifest never
    /// committed — both are artifacts of a crash between steps 1 and 2 of
    /// the durability protocol and can never be loaded.
    fn sweep_orphans(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".manifest.tmp") {
                let _ = std::fs::remove_file(&path);
            } else if let Some(key) = name.strip_suffix(".seg") {
                if !self.manifest_path(key).exists() {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(())
    }

    /// Persists one completed stage's partition outputs under `key`.
    /// Returns the segment bytes written. Every partition gets a chunk
    /// (empty partitions included) so `load` can rebuild the exact
    /// partition vector.
    pub fn save<K: Wire, V: Wire>(
        &self,
        key: &str,
        parts: &[Vec<(K, V)>],
        shuffle: &ShuffleStats,
    ) -> std::io::Result<u64> {
        let mut writer = SpillWriter::create_at(self.seg_path(key))?;
        let mut checksums: Vec<u64> = Vec::with_capacity(parts.len());
        for (target, part) in parts.iter().enumerate() {
            let bytes = encode_records(part);
            checksums.push(fnv1a(&bytes));
            writer.write_chunk(target, &bytes, part.len() as u64)?;
        }
        let written = writer.bytes_written();
        // Empty stages still checkpoint: finish() returns None only when no
        // chunk was written, which save never does for a non-empty partition
        // vector; a zero-partition stage commits manifest-only.
        if let Some(mut segment) = writer.finish()? {
            segment.persist()?;
            self.write_manifest(key, segment.chunks(), &checksums, shuffle)?;
        } else {
            self.write_manifest(key, &[], &checksums, shuffle)?;
        }
        self.checkpoint_bytes.fetch_add(written, Ordering::Relaxed);
        Ok(written)
    }

    fn write_manifest(
        &self,
        key: &str,
        chunks: &[SpillChunk],
        checksums: &[u64],
        shuffle: &ShuffleStats,
    ) -> std::io::Result<()> {
        let mut text = String::from("asj-checkpoint v1\n");
        text.push_str(&format!("stage={key}\n"));
        text.push_str(&format!("remote_bytes={}\n", shuffle.remote_bytes));
        text.push_str(&format!("local_bytes={}\n", shuffle.local_bytes));
        text.push_str(&format!("records={}\n", shuffle.records));
        let pb: Vec<String> = shuffle
            .partition_bytes
            .iter()
            .map(|b| b.to_string())
            .collect();
        text.push_str(&format!("partition_bytes={}\n", pb.join(",")));
        for chunk in chunks {
            text.push_str(&format!(
                "chunk={}:{}:{}:{}:{:016x}\n",
                chunk.target,
                chunk.records,
                chunk.len,
                chunk.offset(),
                checksums[chunk.target],
            ));
        }
        text.push_str("end\n");

        let tmp = self.dir.join(format!("{key}.manifest.tmp"));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.manifest_path(key))?;
        // POSIX durability: `rename(2)` updates a directory entry, and that
        // entry is only on disk once the *directory* has been fsynced —
        // fsyncing the manifest file persisted its bytes, not its name. A
        // crash here without the dir fsync could roll the rename back and
        // lose a checkpoint the caller was just told is committed.
        crate::journal::fsync_dir(&self.dir)
    }

    /// Loads a checkpoint, or `Ok(None)` when `key` was never committed or
    /// failed verification (corrupt pairs are deleted so a fresh save can
    /// replace them). I/O errors other than "not there" still surface.
    pub fn load<K: Wire, V: Wire>(
        &self,
        key: &str,
    ) -> std::io::Result<Option<CheckpointPayload<K, V>>> {
        let manifest_path = self.manifest_path(key);
        let text = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        match self.decode_checkpoint::<K, V>(key, &text) {
            Some(out) => Ok(Some(out)),
            None => {
                // Torn or corrupt: remove both halves and report a miss so
                // the stage recomputes and re-checkpoints cleanly.
                let _ = std::fs::remove_file(&manifest_path);
                let _ = std::fs::remove_file(self.seg_path(key));
                Ok(None)
            }
        }
    }

    /// Strict manifest + segment decode; any irregularity is `None`.
    fn decode_checkpoint<K: Wire, V: Wire>(
        &self,
        key: &str,
        text: &str,
    ) -> Option<CheckpointPayload<K, V>> {
        let (chunks, shuffle) = self.verified_chunks(key, text)?;
        let mut parts: Vec<Vec<(K, V)>> = Vec::with_capacity(chunks.len());
        for (bytes, records) in &chunks {
            parts.push(decode_records::<K, V>(bytes, *records).ok()?);
        }
        Some((parts, shuffle))
    }

    /// Parses a manifest and reads back every chunk's raw bytes, verifying
    /// lengths and FNV-1a checksums. Returns the positional
    /// `(bytes, records)` per partition plus the recorded stats; any
    /// irregularity is `None`.
    fn verified_chunks(&self, key: &str, text: &str) -> Option<VerifiedChunks> {
        let mut lines = text.lines();
        if lines.next()? != "asj-checkpoint v1" {
            return None;
        }
        let mut shuffle = ShuffleStats::default();
        let mut chunks: Vec<(SpillChunk, u64)> = Vec::new();
        let mut committed = false;
        for line in lines {
            if line == "end" {
                committed = true;
                break;
            }
            let (field, value) = line.split_once('=')?;
            match field {
                "stage" => {
                    if value != key {
                        return None;
                    }
                }
                "remote_bytes" => shuffle.remote_bytes = value.parse().ok()?,
                "local_bytes" => shuffle.local_bytes = value.parse().ok()?,
                "records" => shuffle.records = value.parse().ok()?,
                "partition_bytes" => {
                    if !value.is_empty() {
                        shuffle.partition_bytes = value
                            .split(',')
                            .map(|v| v.parse().ok())
                            .collect::<Option<Vec<u64>>>()?;
                    }
                }
                "chunk" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    let [target, records, len, offset, sum] = parts.as_slice() else {
                        return None;
                    };
                    chunks.push((
                        SpillChunk::new(
                            target.parse().ok()?,
                            records.parse().ok()?,
                            len.parse().ok()?,
                            offset.parse().ok()?,
                        ),
                        u64::from_str_radix(sum, 16).ok()?,
                    ));
                }
                _ => return None,
            }
        }
        if !committed {
            return None;
        }
        if chunks.is_empty() {
            return Some((Vec::new(), shuffle));
        }
        let segment =
            SpillSegment::open(self.seg_path(key), chunks.iter().map(|(c, _)| *c).collect())
                .ok()?;
        let mut parts: Vec<(Vec<u8>, u64)> = Vec::with_capacity(chunks.len());
        for (chunk, expected_sum) in &chunks {
            // Chunks are written in target order (0..parts.len()), so the
            // rebuilt vector is positional.
            if chunk.target != parts.len() {
                return None;
            }
            let bytes = segment.read_chunk(chunk).ok()?;
            if bytes.len() as u64 != chunk.len || fnv1a(&bytes) != *expected_sum {
                return None;
            }
            parts.push((bytes, chunk.records));
        }
        Some((parts, shuffle))
    }

    /// Persists one completed *join* stage's outputs under `key`: per
    /// partition, the emitted results plus the fold accumulator, framed
    /// through the same `Wire` codec and FNV-verified manifest the shuffle
    /// checkpoints use. The partition-local join phase is exactly where the
    /// ε-grid memory pressure lives, so skipping it on recovery saves the
    /// most expensive re-execution of all.
    pub fn save_join<R: Wire, A: Wire>(
        &self,
        key: &str,
        parts: &[(Vec<R>, A)],
    ) -> std::io::Result<u64> {
        let mut writer = SpillWriter::create_at(self.seg_path(key))?;
        let mut checksums: Vec<u64> = Vec::with_capacity(parts.len());
        let mut stats = ShuffleStats::default();
        for (target, (out, acc)) in parts.iter().enumerate() {
            let bytes = encode_join_part(out, acc);
            stats.records += out.len() as u64;
            stats.partition_bytes.push(bytes.len() as u64);
            checksums.push(fnv1a(&bytes));
            writer.write_chunk(target, &bytes, out.len() as u64)?;
        }
        let written = writer.bytes_written();
        if let Some(mut segment) = writer.finish()? {
            segment.persist()?;
            self.write_manifest(key, segment.chunks(), &checksums, &stats)?;
        } else {
            self.write_manifest(key, &[], &checksums, &stats)?;
        }
        self.checkpoint_bytes.fetch_add(written, Ordering::Relaxed);
        Ok(written)
    }

    /// Loads a join-stage checkpoint saved by [`CheckpointStore::save_join`];
    /// same miss/self-heal contract as [`CheckpointStore::load`].
    #[allow(clippy::type_complexity)]
    pub fn load_join<R: Wire, A: Wire>(
        &self,
        key: &str,
    ) -> std::io::Result<Option<Vec<(Vec<R>, A)>>> {
        let manifest_path = self.manifest_path(key);
        let text = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let decoded = self.verified_chunks(key, &text).and_then(|(chunks, _)| {
            chunks
                .iter()
                .map(|(bytes, records)| decode_join_part::<R, A>(bytes, *records))
                .collect::<Option<Vec<_>>>()
        });
        match decoded {
            Some(parts) => Ok(Some(parts)),
            None => {
                // Torn or corrupt: remove both halves and report a miss so
                // the stage recomputes and re-checkpoints cleanly.
                let _ = std::fs::remove_file(&manifest_path);
                let _ = std::fs::remove_file(self.seg_path(key));
                Ok(None)
            }
        }
    }

    /// Retention GC: unlinks every checkpoint whose key belongs to `scope`
    /// (the per-job prefix `CheckpointCtx` keys under). Call only once the
    /// job's `done` record is fsynced in the journal — the crash-safe delete
    /// order is
    ///
    /// 1. journal `done` fsynced (the caller's precondition),
    /// 2. segment unlinked,
    /// 3. manifest unlinked,
    ///
    /// so a crash anywhere mid-GC leaves at worst a manifest without its
    /// segment, which [`CheckpointStore::load`] self-heals into a miss:
    /// recovery degrades to recomputation (and the job's journaled result
    /// makes even that unnecessary), never to data loss. Returns the bytes
    /// reclaimed.
    pub fn gc_scope(&self, scope: &str) -> std::io::Result<u64> {
        let prefix = format!("{}-", sanitize(scope));
        let mut keys: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(key) = name.strip_suffix(".manifest") {
                if key.starts_with(&prefix) {
                    keys.push(key.to_string());
                }
            }
        }
        let mut reclaimed = 0u64;
        for key in &keys {
            // Segment before manifest — see the ordering contract above.
            for path in [self.seg_path(key), self.manifest_path(key)] {
                let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if std::fs::remove_file(&path).is_ok() {
                    reclaimed = reclaimed.saturating_add(len);
                }
            }
        }
        Ok(reclaimed)
    }

    /// Bytes currently on disk under the checkpoint directory (segments,
    /// manifests and any in-flight temp files) — the observable the
    /// retention policy bounds.
    pub fn disk_usage_bytes(&self) -> std::io::Result<u64> {
        let mut total = 0u64;
        for entry in std::fs::read_dir(&self.dir)? {
            total = total.saturating_add(entry?.metadata().map(|m| m.len()).unwrap_or(0));
        }
        Ok(total)
    }

    /// Counts one stage served from checkpoint (called by the cluster when a
    /// load hits).
    pub(crate) fn note_recovered(&self) {
        self.stages_recovered.fetch_add(1, Ordering::Relaxed);
    }
}

/// Frames one join partition for checkpointing: the fold accumulator first,
/// then the emitted records back to back (the chunk's record count delimits
/// them on decode).
fn encode_join_part<R: Wire, A: Wire>(out: &[R], acc: &A) -> Vec<u8> {
    let mut buf =
        Vec::with_capacity(acc.encoded_size() + out.iter().map(Wire::encoded_size).sum::<usize>());
    acc.encode(&mut buf);
    for r in out {
        r.encode(&mut buf);
    }
    buf
}

/// Inverse of [`encode_join_part`]; trailing bytes are corruption, `None`.
fn decode_join_part<R: Wire, A: Wire>(bytes: &[u8], records: u64) -> Option<(Vec<R>, A)> {
    let mut cursor = bytes;
    let acc = A::try_decode(&mut cursor).ok()?;
    let mut out = Vec::with_capacity(records as usize);
    for _ in 0..records {
        out.push(R::try_decode(&mut cursor).ok()?);
    }
    if !cursor.is_empty() {
        return None;
    }
    Some((out, acc))
}

/// Per-job view of a [`CheckpointStore`]: a scope (unique per job) plus a
/// per-stage occurrence counter, so the Nth execution of a stage name inside
/// a deterministic job body always maps to the same checkpoint key — on the
/// first run *and* on the recovery run.
#[derive(Debug)]
pub struct CheckpointCtx {
    store: Arc<CheckpointStore>,
    scope: String,
    seq: Mutex<HashMap<String, u64>>,
    /// Journal sink for stage-complete records: `(journal, job id)`.
    journal: Option<(Arc<crate::journal::Journal>, u64)>,
}

impl CheckpointCtx {
    pub(crate) fn new(
        store: Arc<CheckpointStore>,
        scope: impl Into<String>,
        journal: Option<(Arc<crate::journal::Journal>, u64)>,
    ) -> Self {
        CheckpointCtx {
            store,
            scope: scope.into(),
            seq: Mutex::new(HashMap::new()),
            journal,
        }
    }

    pub(crate) fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// The checkpoint key for the next occurrence of `stage` in this scope.
    /// Advances the occurrence counter on hit and miss alike, so replayed
    /// bodies stay aligned with their first run.
    pub(crate) fn next_key(&self, stage: &str) -> String {
        let mut seq = self.seq.lock().expect("checkpoint seq poisoned");
        let n = seq.entry(stage.to_string()).or_insert(0);
        let key = format!("{}-{}-{}", sanitize(&self.scope), sanitize(stage), n);
        *n += 1;
        key
    }

    /// Appends the stage-complete record (manifest pointer included) to the
    /// job journal, if one is attached. Journal failures are soft: the
    /// checkpoint itself is already durable.
    pub(crate) fn journal_stage_complete(&self, stage: &str, key: &str, bytes: u64) {
        if let Some((journal, job)) = &self.journal {
            let _ = journal.append(&crate::journal::JournalRecord::Stage {
                job: *job,
                stage: stage.to_string(),
                key: key.to_string(),
                bytes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asj-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn sample_parts() -> Vec<Vec<(u64, Vec<u8>)>> {
        vec![
            vec![(1, vec![1, 2, 3]), (2, Vec::new())],
            Vec::new(),
            vec![(9, vec![42; 16])],
        ]
    }

    fn sample_stats() -> ShuffleStats {
        ShuffleStats {
            remote_bytes: 1234,
            local_bytes: 567,
            records: 3,
            partition_bytes: vec![31, 0, 36],
        }
    }

    #[test]
    fn checkpoint_round_trips_partitions_and_stats() {
        let dir = test_dir("roundtrip");
        let store = CheckpointStore::open(&dir).expect("open");
        let parts = sample_parts();
        let stats = sample_stats();
        let bytes = store.save("job0-shuffle-0", &parts, &stats).expect("save");
        assert!(bytes > 0);
        assert_eq!(store.checkpoint_bytes(), bytes);
        let (got_parts, got_stats) = store
            .load::<u64, Vec<u8>>("job0-shuffle-0")
            .expect("load")
            .expect("hit");
        assert_eq!(got_parts, parts, "partitions round-trip byte-identically");
        assert_eq!(got_stats, stats, "shuffle stats round-trip");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_checkpoint_is_a_miss_not_an_error() {
        let dir = test_dir("miss");
        let store = CheckpointStore::open(&dir).expect("open");
        assert!(store
            .load::<u64, u64>("never-saved")
            .expect("load")
            .is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_segment_degrades_to_a_miss_and_cleans_up() {
        let dir = test_dir("corrupt");
        let store = CheckpointStore::open(&dir).expect("open");
        store
            .save("k", &sample_parts(), &sample_stats())
            .expect("save");
        // Flip a byte in the segment: the FNV checksum must catch it.
        let seg = dir.join("k.seg");
        let mut bytes = std::fs::read(&seg).expect("read seg");
        bytes[0] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("rewrite seg");
        assert!(
            store.load::<u64, Vec<u8>>("k").expect("load").is_none(),
            "corruption is a miss, never wrong data"
        );
        assert!(!dir.join("k.manifest").exists(), "corrupt pair is deleted");
        assert!(!seg.exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_manifest_is_ignored() {
        let dir = test_dir("torn");
        let store = CheckpointStore::open(&dir).expect("open");
        store
            .save("k", &sample_parts(), &sample_stats())
            .expect("save");
        // Truncate the manifest before its `end` commit marker.
        let manifest = dir.join("k.manifest");
        let text = std::fs::read_to_string(&manifest).expect("read");
        let torn = text.strip_suffix("end\n").expect("ends with marker");
        std::fs::write(&manifest, torn).expect("tear");
        assert!(store.load::<u64, Vec<u8>>("k").expect("load").is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn open_sweeps_uncommitted_debris() {
        let dir = test_dir("sweep");
        std::fs::write(dir.join("stale.seg"), b"no manifest").expect("seg");
        std::fs::write(dir.join("half.manifest.tmp"), b"torn").expect("tmp");
        {
            let store = CheckpointStore::open(&dir).expect("open once");
            store
                .save("good", &sample_parts(), &sample_stats())
                .expect("save");
        }
        let _ = CheckpointStore::open(&dir).expect("reopen sweeps");
        assert!(!dir.join("stale.seg").exists(), "orphan segment removed");
        assert!(!dir.join("half.manifest.tmp").exists(), "tmp removed");
        assert!(dir.join("good.seg").exists(), "committed pair survives");
        assert!(dir.join("good.manifest").exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn ctx_keys_count_stage_occurrences_per_scope() {
        let dir = test_dir("keys");
        let store = Arc::new(CheckpointStore::open(&dir).expect("open"));
        let ctx = CheckpointCtx::new(Arc::clone(&store), "job:3", None);
        assert_eq!(ctx.next_key("shuffle"), "job_3-shuffle-0");
        assert_eq!(ctx.next_key("shuffle"), "job_3-shuffle-1");
        assert_eq!(ctx.next_key("re-key"), "job_3-re_key-0");
        let again = CheckpointCtx::new(store, "job:3", None);
        assert_eq!(
            again.next_key("shuffle"),
            "job_3-shuffle-0",
            "a fresh ctx (the recovery run) replays the same key sequence"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn join_checkpoint_round_trips_outputs_and_accumulators() {
        let dir = test_dir("join-roundtrip");
        let store = CheckpointStore::open(&dir).expect("open");
        type JoinPart = (Vec<(u64, u64)>, (u64, u64));
        let parts: Vec<JoinPart> = vec![
            (vec![(1, 2), (3, 4)], (10, 20)),
            (Vec::new(), (0, 7)),
            (vec![(9, 9)], (1, 1)),
        ];
        let bytes = store.save_join("job0-join-0", &parts).expect("save");
        assert!(bytes > 0);
        let got = store
            .load_join::<(u64, u64), (u64, u64)>("job0-join-0")
            .expect("load")
            .expect("hit");
        assert_eq!(got, parts, "join outputs and accumulators round-trip");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_join_checkpoint_is_a_miss() {
        let dir = test_dir("join-corrupt");
        let store = CheckpointStore::open(&dir).expect("open");
        let parts: Vec<(Vec<(u64, u64)>, u64)> = vec![(vec![(1, 2)], 5)];
        store.save_join("k", &parts).expect("save");
        let seg = dir.join("k.seg");
        let mut bytes = std::fs::read(&seg).expect("read seg");
        bytes[0] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("rewrite seg");
        assert!(store
            .load_join::<(u64, u64), u64>("k")
            .expect("load")
            .is_none());
        assert!(!dir.join("k.manifest").exists(), "corrupt pair deleted");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn zero_partition_checkpoint_commits_manifest_only() {
        let dir = test_dir("manifest-only");
        let store = CheckpointStore::open(&dir).expect("open");
        let stats = sample_stats();
        store.save::<u64, u64>("k", &[], &stats).expect("save");
        assert!(!dir.join("k.seg").exists(), "no chunk, no segment");
        let (parts, got) = store.load::<u64, u64>("k").expect("load").expect("hit");
        assert!(parts.is_empty());
        assert_eq!(got, stats);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn gc_scope_removes_only_the_given_jobs_checkpoints() {
        let dir = test_dir("gc");
        let store = CheckpointStore::open(&dir).expect("open");
        let parts = sample_parts();
        let stats = sample_stats();
        // job1 must not be collateral damage of job1x's GC (or vice versa):
        // the prefix includes the trailing dash.
        for key in ["job1-shuffle-0", "job1-join-0", "job1x-shuffle-0"] {
            store.save(key, &parts, &stats).expect("save");
        }
        let before = store.disk_usage_bytes().expect("usage");
        let reclaimed = store.gc_scope("job1").expect("gc");
        assert!(reclaimed > 0, "bytes reclaimed are reported");
        let after = store.disk_usage_bytes().expect("usage");
        assert_eq!(after, before - reclaimed);
        assert!(!dir.join("job1-shuffle-0.manifest").exists());
        assert!(!dir.join("job1-shuffle-0.seg").exists());
        assert!(!dir.join("job1-join-0.manifest").exists());
        assert!(dir.join("job1x-shuffle-0.manifest").exists());
        assert!(dir.join("job1x-shuffle-0.seg").exists());
        // GC of a scope with no checkpoints is a no-op, not an error.
        assert_eq!(store.gc_scope("job99").expect("gc"), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn crash_mid_gc_self_heals_into_a_miss() {
        let dir = test_dir("gc-crash");
        let store = CheckpointStore::open(&dir).expect("open");
        store
            .save("job2-shuffle-0", &sample_parts(), &sample_stats())
            .expect("save");
        // Simulate a crash between the seg unlink and the manifest unlink —
        // the worst interleaving the delete order permits.
        std::fs::remove_file(dir.join("job2-shuffle-0.seg")).expect("unlink seg");
        assert!(
            store
                .load::<u64, Vec<u8>>("job2-shuffle-0")
                .expect("load")
                .is_none(),
            "manifest without segment degrades to a miss"
        );
        assert!(
            !dir.join("job2-shuffle-0.manifest").exists(),
            "the dangling manifest was self-healed away"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
