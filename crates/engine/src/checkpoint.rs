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

use crate::memory::{SpillChunk, SpillSegment, SpillWriter};
use crate::metrics::ShuffleStats;
use crate::wire::Wire;
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Streaming FNV-1a 64 — the repo's standing checksum: chunk and journal
/// integrity, the fault-injection stage hash, the serve and bench result
/// digests. Integers are fed little-endian so digests are platform-stable.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

// `#[inline]`: the serve and bench digests hash millions of words from other
// crates; without it every word is a call into this one.
impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a`] over one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Replaces any character that could upset a filename with `_`. Checkpoint
/// keys embed stage names (which carry `:` prefixes like `job:3:shuffle`).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// One partition as a checkpoint stores it: its encoded bytes and the number
/// of records in them. The shuffle and the join phase differ only in how a
/// partition becomes a chunk and back (`encode_records` / `decode_records`
/// for keyed records; accumulator-then-records for a join partition).
pub type Chunk = (Vec<u8>, u64);

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

    /// Persists one completed stage's partition outputs under `key`: one
    /// chunk per partition (empty partitions included, so `load` rebuilds the
    /// exact partition vector), `encode` turning a partition into its
    /// [`Chunk`]. `shuffle` is what the manifest records beside the chunks —
    /// the stage's byte meters. Returns the segment bytes written.
    pub fn save<P>(
        &self,
        key: &str,
        parts: &[P],
        shuffle: &ShuffleStats,
        encode: impl Fn(&P) -> Chunk,
    ) -> std::io::Result<u64> {
        let mut writer = SpillWriter::create_at(self.seg_path(key))?;
        let mut checksums: Vec<u64> = Vec::with_capacity(parts.len());
        for (target, part) in parts.iter().enumerate() {
            let (bytes, records) = encode(part);
            checksums.push(fnv1a(&bytes));
            writer.write_chunk(target, &bytes, records)?;
        }
        let written = writer.bytes_written();
        // `finish` returns None only when no chunk was written: a
        // zero-partition stage commits manifest-only.
        let mut segment = writer.finish()?;
        let chunks = match &mut segment {
            Some(segment) => {
                segment.persist()?;
                segment.chunks()
            }
            None => &[],
        };

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
        // Segment fsynced above, manifest published atomically after it: a
        // manifest never references bytes that are not durable.
        crate::journal::publish_atomically(
            &self.manifest_path(key),
            &self.dir.join(format!("{key}.manifest.tmp")),
            text.as_bytes(),
        )?;
        self.checkpoint_bytes.fetch_add(written, Ordering::Relaxed);
        Ok(written)
    }

    /// Loads the checkpoint `key` of a stage with `expected` partitions,
    /// `decode` turning each verified [`Chunk`] back into a partition.
    /// `Ok(None)` when `key` was never committed or failed verification —
    /// torn manifest, checksum or length mismatch, undecodable chunk, a
    /// partition count other than `expected` (a stale checkpoint from a
    /// different plan shape must never misalign partitions). A failed pair is
    /// deleted so the stage recomputes and re-checkpoints cleanly. I/O
    /// errors other than "not there" still surface.
    pub fn load<P>(
        &self,
        key: &str,
        expected: usize,
        decode: impl Fn(&[u8], u64) -> Option<P>,
    ) -> std::io::Result<Option<(Vec<P>, ShuffleStats)>> {
        let manifest_path = self.manifest_path(key);
        let text = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let decoded = self
            .verified_chunks(key, &text)
            .filter(|(chunks, _)| chunks.len() == expected)
            .and_then(|(chunks, shuffle)| {
                let parts = chunks
                    .iter()
                    .map(|(bytes, records)| decode(bytes, *records))
                    .collect::<Option<Vec<P>>>()?;
                Some((parts, shuffle))
            });
        if decoded.is_none() {
            let _ = std::fs::remove_file(&manifest_path);
            let _ = std::fs::remove_file(self.seg_path(key));
        }
        Ok(decoded)
    }

    /// Parses a manifest and reads back every chunk's raw bytes, verifying
    /// lengths and FNV-1a checksums. Returns the positional chunks plus the
    /// recorded stats; any irregularity is `None`.
    fn verified_chunks(&self, key: &str, text: &str) -> Option<(Vec<Chunk>, ShuffleStats)> {
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
        let mut parts: Vec<Chunk> = Vec::with_capacity(chunks.len());
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

/// Exact encoded size of one join partition (see [`encode_join_part`]).
pub(crate) fn join_part_size<R: Wire, A: Wire>((out, acc): &(Vec<R>, A)) -> usize {
    acc.encoded_size() + out.iter().map(Wire::encoded_size).sum::<usize>()
}

/// Frames one join partition for checkpointing: the fold accumulator first,
/// then the emitted records back to back (the chunk's record count delimits
/// them on decode).
pub(crate) fn encode_join_part<R: Wire, A: Wire>(part: &(Vec<R>, A)) -> Chunk {
    let (out, acc) = part;
    let mut buf = Vec::with_capacity(join_part_size(part));
    acc.encode(&mut buf);
    for r in out {
        r.encode(&mut buf);
    }
    (buf, out.len() as u64)
}

/// Inverse of [`encode_join_part`]; trailing bytes are corruption, `None`.
pub(crate) fn decode_join_part<R: Wire, A: Wire>(
    bytes: &[u8],
    records: u64,
) -> Option<(Vec<R>, A)> {
    let mut cursor = bytes;
    let acc = A::try_decode(&mut cursor).ok()?;
    let mut out = Vec::with_capacity(records as usize);
    for _ in 0..records {
        out.push(R::try_decode(&mut cursor).ok()?);
    }
    cursor.is_empty().then_some((out, acc))
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
    use crate::memory::{decode_records, encode_records};

    type Records = Vec<(u64, Vec<u8>)>;
    type JoinPart = (Vec<(u64, u64)>, (u64, u64));

    /// The keyed-records shape, as `KeyedDataset::shuffle_stage` saves it.
    fn save_records(
        store: &CheckpointStore,
        key: &str,
        parts: &[Records],
        stats: &ShuffleStats,
    ) -> std::io::Result<u64> {
        store.save(key, parts, stats, |p| (encode_records(p), p.len() as u64))
    }

    fn load_records(
        store: &CheckpointStore,
        key: &str,
        expected: usize,
    ) -> Option<(Vec<Records>, ShuffleStats)> {
        store
            .load(key, expected, |b, n| decode_records(b, n).ok())
            .expect("load")
    }

    fn join_parts(store: &CheckpointStore, key: &str, expected: usize) -> Option<Vec<JoinPart>> {
        let hit = store.load(key, expected, decode_join_part).expect("load");
        hit.map(|(parts, _)| parts)
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asj-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn sample_parts() -> Vec<Records> {
        vec![
            vec![(1, vec![1, 2, 3]), (2, Vec::new())],
            Vec::new(),
            vec![(9, vec![42; 16])],
        ]
    }

    fn sample_join_parts() -> Vec<JoinPart> {
        vec![
            (vec![(1, 2), (3, 4)], (10, 20)),
            (Vec::new(), (0, 7)),
            (vec![(9, 9)], (1, 1)),
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
        let bytes = save_records(&store, "job0-shuffle-0", &parts, &stats).expect("save");
        assert!(bytes > 0);
        assert_eq!(store.checkpoint_bytes(), bytes);
        let (got_parts, got_stats) = load_records(&store, "job0-shuffle-0", 3).expect("hit");
        assert_eq!(got_parts, parts, "partitions round-trip byte-identically");
        assert_eq!(got_stats, stats, "shuffle stats round-trip");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_checkpoint_is_a_miss_not_an_error() {
        let dir = test_dir("miss");
        let store = CheckpointStore::open(&dir).expect("open");
        assert!(load_records(&store, "never-saved", 3).is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Whatever is wrong with a checkpoint, the one load path answers with a
    /// miss and removes the pair, for either payload shape.
    #[test]
    fn every_kind_of_damage_is_a_self_healing_miss() {
        fn edit_manifest(dir: &Path, edit: impl Fn(&str) -> String) {
            let path = dir.join("k.manifest");
            let text = std::fs::read_to_string(&path).expect("read manifest");
            std::fs::write(&path, edit(&text)).expect("rewrite manifest");
        }
        /// What is wrong, how to cause it, and how many partitions the
        /// loader expects beyond the three saved.
        type Damage = (&'static str, fn(&Path), usize);
        const DAMAGE: [Damage; 5] = [
            (
                "flipped segment byte",
                |dir| {
                    let seg = dir.join("k.seg");
                    let mut bytes = std::fs::read(&seg).expect("read seg");
                    bytes[0] ^= 0xFF;
                    std::fs::write(&seg, &bytes).expect("rewrite seg");
                },
                0,
            ),
            (
                "manifest without `end`",
                |dir| edit_manifest(dir, |t| t.strip_suffix("end\n").expect("marker").into()),
                0,
            ),
            (
                "wrong `stage=`",
                |dir| edit_manifest(dir, |t| t.replace("stage=k\n", "stage=other\n")),
                0,
            ),
            (
                "missing .seg",
                |dir| std::fs::remove_file(dir.join("k.seg")).expect("unlink"),
                0,
            ),
            ("chunk count != expected partitions", |_| {}, 1),
        ];
        fn check(
            shape: &str,
            save: impl Fn(&CheckpointStore),
            hits: impl Fn(&CheckpointStore, usize) -> bool,
        ) {
            for (what, damage, extra) in DAMAGE {
                let dir = test_dir(&format!("damage-{shape}"));
                let store = CheckpointStore::open(&dir).expect("open");
                save(&store);
                damage(&dir);
                assert!(!hits(&store, 3 + extra), "{shape}, {what}: must be a miss");
                for file in ["k.manifest", "k.seg"] {
                    assert!(!dir.join(file).exists(), "{shape}, {what}: {file} kept");
                }
                // The slot is clean: a fresh save is a hit again.
                save(&store);
                assert!(hits(&store, 3), "{shape}, {what}: re-saved checkpoint");
                std::fs::remove_dir_all(&dir).expect("cleanup");
            }
        }
        check(
            "records",
            |store| {
                save_records(store, "k", &sample_parts(), &sample_stats()).expect("save");
            },
            |store, expected| load_records(store, "k", expected).is_some(),
        );
        check(
            "join",
            |store| {
                store
                    .save("k", &sample_join_parts(), &sample_stats(), encode_join_part)
                    .expect("save");
            },
            |store, expected| join_parts(store, "k", expected).is_some(),
        );
    }

    #[test]
    fn torn_manifest_is_ignored() {
        let dir = test_dir("torn");
        let store = CheckpointStore::open(&dir).expect("open");
        save_records(&store, "k", &sample_parts(), &sample_stats()).expect("save");
        // Truncate the manifest before its `end` commit marker.
        let manifest = dir.join("k.manifest");
        let text = std::fs::read_to_string(&manifest).expect("read");
        let torn = text.strip_suffix("end\n").expect("ends with marker");
        std::fs::write(&manifest, torn).expect("tear");
        assert!(load_records(&store, "k", 3).is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn open_sweeps_uncommitted_debris() {
        let dir = test_dir("sweep");
        std::fs::write(dir.join("stale.seg"), b"no manifest").expect("seg");
        std::fs::write(dir.join("half.manifest.tmp"), b"torn").expect("tmp");
        {
            let store = CheckpointStore::open(&dir).expect("open once");
            save_records(&store, "good", &sample_parts(), &sample_stats()).expect("save");
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
        let parts = sample_join_parts();
        let bytes = store
            .save("job0-join-0", &parts, &sample_stats(), encode_join_part)
            .expect("save");
        assert!(bytes > 0);
        let got = join_parts(&store, "job0-join-0", 3).expect("hit");
        assert_eq!(got, parts, "join outputs and accumulators round-trip");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn zero_partition_checkpoint_commits_manifest_only() {
        let dir = test_dir("manifest-only");
        let store = CheckpointStore::open(&dir).expect("open");
        let stats = sample_stats();
        save_records(&store, "k", &[], &stats).expect("save");
        assert!(!dir.join("k.seg").exists(), "no chunk, no segment");
        let (parts, got) = load_records(&store, "k", 0).expect("hit");
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
            save_records(&store, key, &parts, &stats).expect("save");
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
        save_records(&store, "job2-shuffle-0", &sample_parts(), &sample_stats()).expect("save");
        // Simulate a crash between the seg unlink and the manifest unlink —
        // the worst interleaving the delete order permits.
        std::fs::remove_file(dir.join("job2-shuffle-0.seg")).expect("unlink seg");
        assert!(
            load_records(&store, "job2-shuffle-0", 3).is_none(),
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
