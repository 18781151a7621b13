//! Stage checkpoints: durable stage outputs for bounded-loss recovery.
//!
//! Every recovery path before this module re-executed from the start of the
//! job: shuffle output lived in self-deleting temp segments, so a lost node
//! or an injected OOM that killed a downstream stage forced the whole
//! upstream lineage to rerun. A [`CheckpointStore`] writes each completed
//! resumable stage's partitions to a *named* segment file tracked by a
//! manifest (same [`Wire`](crate::wire::Wire) framing the spill path and the
//! byte meters use, so checkpoint volume and `partition_bytes` speak the same
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
//! reruns) or a complete one. Loads verify per-chunk lengths and XXH64
//! checksums; any mismatch deletes the pair and reports a miss, so a corrupt
//! checkpoint degrades to recomputation, never to wrong results.
//!
//! The segment is written in one partition-parallel pass: partition `t`'s
//! chunk lives at the prefix sum of `partition_bytes[..t]` — the exact
//! encoded sizes the stage already metered — so every offset is known before
//! a byte is encoded and workers `pwrite` their chunks independently; the
//! file is the same as a serial append's. Loads read, verify and decode
//! chunks on the same kind of workers.
//!
//! The manifest is a line-oriented text file:
//!
//! ```text
//! asj-checkpoint v2
//! stage=<escaped stage name>
//! remote_bytes=<u64>
//! local_bytes=<u64>
//! records=<u64>
//! partition_bytes=<csv of u64>
//! chunk=<target>:<records>:<len>:<offset>:<xxh64 hex>
//! ...
//! end
//! ```
//!
//! The trailing `end` line is the commit marker a torn manifest lacks. Any
//! other header — `v1`, whose checksum column was FNV-1a, included — is a
//! stale checkpoint: a miss that deletes the pair.

use crate::cluster::on_host_threads;
use crate::digest::xxh64;
use crate::metrics::ShuffleStats;
use crate::wire::Wire;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Replaces any character that could upset a filename with `_`. Checkpoint
/// keys embed stage names (which carry `:` prefixes like `job:3:shuffle`).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Wall time a [`CheckpointStore`] has spent so far, by step: the parallel
/// encode + checksum + write pass, the segments' `sync_all`, formatting and
/// publishing manifests, retention GC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointTimes {
    pub write: Duration,
    pub fsync: Duration,
    pub manifest: Duration,
    pub gc: Duration,
}

/// A directory of stage checkpoints plus the obs counters the recovery
/// benchmark reports. Shared (via `Arc`) by every clone of a
/// [`Cluster`](crate::Cluster) handle.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    checkpoint_bytes: AtomicU64,
    stages_recovered: AtomicU64,
    times: Mutex<CheckpointTimes>,
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// One `chunk=` line of a manifest; its target is its position.
struct ManifestChunk {
    records: u64,
    len: u64,
    offset: u64,
    checksum: u64,
}

/// Parses the manifest of `key`: the positional chunk index plus the recorded
/// stats. Any irregularity — another version's header included — is `None`.
fn parse_manifest(key: &str, text: &str) -> Option<(Vec<ManifestChunk>, ShuffleStats)> {
    let mut lines = text.lines();
    if lines.next()? != "asj-checkpoint v2" {
        return None;
    }
    let mut shuffle = ShuffleStats::default();
    let mut chunks: Vec<ManifestChunk> = Vec::new();
    for line in lines {
        if line == "end" {
            return Some((chunks, shuffle));
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
                // Chunks are listed in target order (0..partitions), so the
                // rebuilt vector is positional.
                if target.parse() != Ok(chunks.len()) {
                    return None;
                }
                chunks.push(ManifestChunk {
                    records: records.parse().ok()?,
                    len: len.parse().ok()?,
                    offset: offset.parse().ok()?,
                    checksum: u64::from_str_radix(sum, 16).ok()?,
                });
            }
            _ => return None,
        }
    }
    // No `end`: a torn manifest.
    None
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
            times: Mutex::default(),
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

    fn manifest_tmp_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.manifest.tmp"))
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

    /// Wall time spent in `save` and `gc_scope` so far, by step.
    pub fn times(&self) -> CheckpointTimes {
        *self.times.lock().expect("checkpoint times poisoned")
    }

    /// Persists one completed stage's partition outputs under `key`: one
    /// chunk per partition (empty partitions included, so `load` rebuilds the
    /// exact partition vector). `encode` appends a partition's encoding to
    /// the buffer it is handed and returns the partition's record count;
    /// `shuffle` is what the manifest records beside the chunks — the
    /// stage's byte meters, whose `partition_bytes` must be the exact encoded
    /// size of every partition: chunk offsets are their prefix sums, which is
    /// what lets up to `threads` workers encode, checksum and write chunks
    /// independently. Returns the segment bytes written. A failed save
    /// leaves nothing of `key` on disk.
    pub fn save<P: Sync>(
        &self,
        key: &str,
        parts: &[P],
        shuffle: &ShuffleStats,
        threads: usize,
        encode: impl Fn(&P, &mut Vec<u8>) -> u64 + Sync,
    ) -> io::Result<u64> {
        self.write_pair(key, parts, shuffle, threads, encode)
            // Whatever was written is unreferenced or half-published.
            .inspect_err(|_| self.remove(key))
    }

    /// Unlinks everything `key` can have on disk — segment before manifest,
    /// the crash-safe order of [`CheckpointStore::gc_scope`].
    fn remove(&self, key: &str) {
        let _ = std::fs::remove_file(self.seg_path(key));
        let _ = std::fs::remove_file(self.manifest_tmp_path(key));
        let _ = std::fs::remove_file(self.manifest_path(key));
    }

    /// Steps 1 and 2 of the durability protocol (module docs), and the books.
    fn write_pair<P: Sync>(
        &self,
        key: &str,
        parts: &[P],
        shuffle: &ShuffleStats,
        threads: usize,
        encode: impl Fn(&P, &mut Vec<u8>) -> u64 + Sync,
    ) -> io::Result<u64> {
        let lens = &shuffle.partition_bytes;
        if lens.len() != parts.len() {
            let (parts, lens) = (parts.len(), lens.len());
            return Err(invalid(format!(
                "{parts} partitions, {lens} partition_bytes"
            )));
        }
        let mut offsets = Vec::with_capacity(lens.len());
        let mut written = 0u64;
        for len in lens {
            offsets.push(written);
            written += len;
        }
        let start = Instant::now();
        let (mut write, mut fsync) = (Duration::ZERO, Duration::ZERO);
        // (records, checksum) per chunk. A zero-partition stage commits
        // manifest-only.
        let mut chunks: Vec<(u64, u64)> = Vec::new();
        if !parts.is_empty() {
            let file = File::create(self.seg_path(key))?;
            chunks = on_host_threads(threads, parts.len(), |t, buf| {
                buf.clear();
                buf.reserve(lens[t] as usize);
                let records = encode(&parts[t], buf);
                if buf.len() as u64 != lens[t] {
                    let (got, metered) = (buf.len(), lens[t]);
                    return Err(invalid(format!(
                        "partition {t}: {got} bytes, metered {metered}"
                    )));
                }
                file.write_all_at(buf, offsets[t])?;
                Ok((records, xxh64(buf)))
            })?;
            write = start.elapsed();
            file.sync_all()?;
            fsync = start.elapsed() - write;
        }

        let pb: Vec<String> = lens.iter().map(|b| b.to_string()).collect();
        let mut text = format!(
            "asj-checkpoint v2\nstage={key}\nremote_bytes={}\nlocal_bytes={}\nrecords={}\n\
             partition_bytes={}\n",
            shuffle.remote_bytes,
            shuffle.local_bytes,
            shuffle.records,
            pb.join(",")
        );
        for (target, (records, checksum)) in chunks.iter().enumerate() {
            let (len, offset) = (lens[target], offsets[target]);
            text.push_str(&format!(
                "chunk={target}:{records}:{len}:{offset}:{checksum:016x}\n"
            ));
        }
        text.push_str("end\n");
        // Segment fsynced above, manifest published atomically after it: a
        // manifest never references bytes that are not durable.
        crate::journal::publish_atomically(
            &self.manifest_path(key),
            &self.manifest_tmp_path(key),
            text.as_bytes(),
        )?;
        let mut times = self.times.lock().expect("checkpoint times poisoned");
        times.write += write;
        times.fsync += fsync;
        times.manifest += start.elapsed() - write - fsync;
        self.checkpoint_bytes.fetch_add(written, Ordering::Relaxed);
        Ok(written)
    }

    /// Loads the checkpoint `key` of a stage with `expected` partitions:
    /// up to `threads` workers read every chunk back, verify its length and
    /// XXH64 checksum and hand it (bytes and record count) to `decode`.
    /// `Ok(None)` when `key` was never committed or failed verification —
    /// torn or foreign-version manifest, checksum or length mismatch,
    /// undecodable chunk, a partition count other than `expected` (a stale
    /// checkpoint from a different plan shape must never misalign
    /// partitions). A failed pair is deleted so the stage recomputes and
    /// re-checkpoints cleanly. I/O errors other than "not there" still
    /// surface.
    pub fn load<P: Send>(
        &self,
        key: &str,
        expected: usize,
        threads: usize,
        decode: impl Fn(&[u8], u64) -> Option<P> + Sync,
    ) -> io::Result<Option<(Vec<P>, ShuffleStats)>> {
        let text = match std::fs::read_to_string(self.manifest_path(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let decoded = parse_manifest(key, &text)
            .filter(|(chunks, _)| chunks.len() == expected)
            .and_then(|(chunks, shuffle)| {
                if chunks.is_empty() {
                    return Some((Vec::new(), shuffle));
                }
                let file = File::open(self.seg_path(key)).ok()?;
                // A corrupt `len` must not size an allocation: no chunk is
                // longer than its file.
                let file_len = file.metadata().ok()?.len();
                let damaged = || io::Error::from(io::ErrorKind::InvalidData);
                let parts = on_host_threads(threads, chunks.len(), |t, buf| {
                    let chunk = &chunks[t];
                    if chunk.len > file_len {
                        return Err(damaged());
                    }
                    buf.resize(chunk.len as usize, 0);
                    file.read_exact_at(buf, chunk.offset)?;
                    if xxh64(buf) != chunk.checksum {
                        return Err(damaged());
                    }
                    decode(buf, chunk.records).ok_or_else(damaged)
                });
                Some((parts.ok()?, shuffle))
            });
        if decoded.is_none() {
            self.remove(key);
        }
        Ok(decoded)
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
        let start = Instant::now();
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
        self.times.lock().expect("checkpoint times poisoned").gc += start.elapsed();
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
/// then the emitted records back to back (the returned record count
/// delimits them on decode).
pub(crate) fn encode_join_part<R: Wire, A: Wire>(
    (out, acc): &(Vec<R>, A),
    buf: &mut Vec<u8>,
) -> u64 {
    acc.encode(buf);
    for r in out {
        r.encode(buf);
    }
    out.len() as u64
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
    use crate::digest::fnv1a;
    use crate::memory::{decode_records, encode_records, encode_records_into};
    use proptest::prelude::*;

    type Records = Vec<(u64, Vec<u8>)>;
    type JoinPart = (Vec<(u64, u64)>, (u64, u64));

    /// The keyed-records codec, as `KeyedDataset::shuffle_stage` passes it.
    fn encode_part(part: &Records, buf: &mut Vec<u8>) -> u64 {
        encode_records_into(part, buf)
    }

    fn save_records(
        store: &CheckpointStore,
        key: &str,
        parts: &[Records],
        stats: &ShuffleStats,
    ) -> io::Result<u64> {
        store.save(key, parts, stats, 2, encode_part)
    }

    fn put_join(store: &CheckpointStore, key: &str, parts: &[JoinPart]) -> io::Result<u64> {
        store.save(key, parts, &join_stats(parts), 2, encode_join_part)
    }

    fn load_records(
        store: &CheckpointStore,
        key: &str,
        expected: usize,
    ) -> Option<(Vec<Records>, ShuffleStats)> {
        store
            .load(key, expected, 2, |b, n| decode_records(b, n).ok())
            .expect("load")
    }

    fn join_parts(store: &CheckpointStore, key: &str, expected: usize) -> Option<Vec<JoinPart>> {
        let hit = store
            .load(key, expected, 2, decode_join_part)
            .expect("load");
        hit.map(|(parts, _)| parts)
    }

    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
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

    /// Byte meters around `partition_bytes`, which `save` takes as the exact
    /// encoded size of every partition.
    fn stats_of(partition_bytes: Vec<u64>) -> ShuffleStats {
        ShuffleStats {
            remote_bytes: 1234,
            local_bytes: 567,
            records: 3,
            partition_bytes,
        }
    }

    fn records_stats(parts: &[Records]) -> ShuffleStats {
        stats_of(
            parts
                .iter()
                .map(|p| encode_records(p).len() as u64)
                .collect(),
        )
    }

    fn join_stats(parts: &[JoinPart]) -> ShuffleStats {
        stats_of(parts.iter().map(|p| join_part_size(p) as u64).collect())
    }

    fn sample_stats() -> ShuffleStats {
        records_stats(&sample_parts())
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
        const DAMAGE: [Damage; 7] = [
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
            (
                "the previous format's header",
                |dir| {
                    edit_manifest(dir, |t| {
                        t.replace("asj-checkpoint v2\n", "asj-checkpoint v1\n")
                    })
                },
                0,
            ),
            (
                "FNV-1a in the checksum column",
                |dir| {
                    let seg = std::fs::read(dir.join("k.seg")).expect("read seg");
                    edit_manifest(dir, |t| {
                        let lines = t.lines().map(|line| {
                            let Some(chunk) = line.strip_prefix("chunk=") else {
                                return format!("{line}\n");
                            };
                            let f: Vec<&str> = chunk.split(':').collect();
                            let (len, offset): (usize, usize) =
                                (f[2].parse().expect("len"), f[3].parse().expect("offset"));
                            let sum = fnv1a(&seg[offset..offset + len]);
                            format!("chunk={}:{}:{len}:{offset}:{sum:016x}\n", f[0], f[1])
                        });
                        lines.collect()
                    });
                },
                0,
            ),
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
                put_join(store, "k", &sample_join_parts()).expect("save");
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
        let bytes = put_join(&store, "job0-join-0", &parts).expect("save");
        assert!(bytes > 0);
        let got = join_parts(&store, "job0-join-0", 3).expect("hit");
        assert_eq!(got, parts, "join outputs and accumulators round-trip");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn zero_partition_checkpoint_commits_manifest_only() {
        let dir = test_dir("manifest-only");
        let store = CheckpointStore::open(&dir).expect("open");
        let stats = stats_of(Vec::new());
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

    /// What a serial append of `encode_records` chunks would have written:
    /// the segment bytes and the manifest text.
    fn serial_reference(key: &str, parts: &[Records], stats: &ShuffleStats) -> (Vec<u8>, String) {
        let mut segment = Vec::new();
        let mut chunk_lines = String::new();
        for (target, part) in parts.iter().enumerate() {
            let bytes = encode_records(part);
            chunk_lines.push_str(&format!(
                "chunk={target}:{}:{}:{}:{:016x}\n",
                part.len(),
                bytes.len(),
                segment.len(),
                xxh64(&bytes)
            ));
            segment.extend_from_slice(&bytes);
        }
        let pb: Vec<String> = stats.partition_bytes.iter().map(u64::to_string).collect();
        let manifest = format!(
            "asj-checkpoint v2\nstage={key}\nremote_bytes={}\nlocal_bytes={}\nrecords={}\n\
             partition_bytes={}\n{chunk_lines}end\n",
            stats.remote_bytes,
            stats.local_bytes,
            stats.records,
            pb.join(",")
        );
        (segment, manifest)
    }

    #[test]
    fn the_files_do_not_depend_on_the_worker_count() {
        let dir = test_dir("workers");
        let store = CheckpointStore::open(&dir).expect("open");
        let parts: Vec<Records> = (0..23u64)
            .map(|t| {
                (0..(t * 7) % 11)
                    .map(|i| (t * 100 + i, vec![(t + i) as u8; ((t * i) % 40) as usize]))
                    .collect()
            })
            .collect();
        let stats = records_stats(&parts);
        let (segment, manifest) = serial_reference("k", &parts, &stats);
        for threads in [1, 2, 7] {
            let bytes = store
                .save("k", &parts, &stats, threads, encode_part)
                .expect("save");
            assert_eq!(bytes, segment.len() as u64);
            assert_eq!(std::fs::read(dir.join("k.seg")).expect("seg"), segment);
            assert_eq!(
                std::fs::read_to_string(dir.join("k.manifest")).expect("manifest"),
                manifest
            );
            let hit = store.load("k", parts.len(), threads, |b, n| decode_records(b, n).ok());
            assert_eq!(hit.expect("load"), Some((parts.clone(), stats.clone())));
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    proptest! {
        /// Any partition shape — empty partitions, a single one, none at all
        /// (the manifest-only commit), fewer than the workers — round-trips,
        /// in both payload shapes.
        #[test]
        fn any_partition_shape_round_trips(
            shape in prop::collection::vec(prop::collection::vec((any::<u64>(), 0usize..40), 0..6), 0..9),
            threads in 1usize..12,
        ) {
            let dir = test_dir("shapes");
            let store = CheckpointStore::open(&dir).expect("open");
            let records: Vec<Records> = shape
                .iter()
                .map(|part| part.iter().map(|&(k, n)| (k, vec![k as u8; n])).collect())
                .collect();
            let stats = records_stats(&records);
            store.save("r", &records, &stats, threads, encode_part).expect("save records");
            let hit = store.load("r", records.len(), threads, |b, n| decode_records(b, n).ok());
            prop_assert_eq!(hit.expect("load records"), Some((records, stats)));

            let joins: Vec<JoinPart> = shape
                .iter()
                .map(|part| {
                    let out: Vec<(u64, u64)> = part.iter().map(|&(k, n)| (k, n as u64)).collect();
                    (out, (part.len() as u64, 7))
                })
                .collect();
            let stats = join_stats(&joins);
            store.save("j", &joins, &stats, threads, encode_join_part).expect("save join");
            let hit = store.load("j", joins.len(), threads, decode_join_part);
            prop_assert_eq!(hit.expect("load join"), Some((joins, stats)));
            prop_assert_eq!(dir.join("r.seg").exists(), !shape.is_empty());
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    /// A chunk that does not encode to its metered size would land on its
    /// neighbour's bytes: the save fails instead and leaves nothing behind.
    #[test]
    fn a_chunk_longer_than_metered_fails_the_save_cleanly() {
        let dir = test_dir("overlong");
        let store = CheckpointStore::open(&dir).expect("open");
        let one_byte_more = |part: &Records, buf: &mut Vec<u8>| {
            buf.push(0);
            encode_part(part, buf)
        };
        let saved = store.save("k", &sample_parts(), &sample_stats(), 2, one_byte_more);
        assert_eq!(
            saved.expect_err("must fail").kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(files_in(&dir), Vec::<String>::new());
        assert_eq!(store.checkpoint_bytes(), 0);
        assert!(load_records(&store, "k", 3).is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
