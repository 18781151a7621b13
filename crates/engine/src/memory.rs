//! Per-node memory accounting and disk spill segments.
//!
//! The paper's headline failure mode is memory, not time: universal ε-grid
//! replication runs out of memory at scale, and adaptive replication exists
//! to keep the post-shuffle footprint bounded. The engine has always
//! *measured* that footprint (`ShuffleStats::partition_bytes`); this module
//! is the layer that *enforces* it. Before a shuffle's map stage runs, the
//! [`MemoryAccountant`] splits every node's budget into fixed shares, one
//! [`Ledger`] per map task ([`MemoryAccountant::ledgers`]), as Afrati et al.
//! fix the reducer size before the computation runs. A task asks its own
//! ledger before materialising a buffer ([`Ledger::admit`]); when its share
//! is used up, the task degrades instead of aborting — the radix shuffle
//! writes the denied bucket to a [`SpillSegment`] on disk (encoded with the
//! existing [`Wire`](crate::wire::Wire) codec), and only the reduce task that
//! needs the chunk reads it back, so results stay byte-identical while no
//! node's stage total can cross the budget. Which buckets spill depends on
//! the plan alone, never on which thread ran first; the stage's commit folds
//! the winning attempts' ledgers into the per-node peak
//! ([`MemoryAccountant::fold`]).
//!
//! A [`Chunk`] is the one index entry of both a spill segment and a
//! checkpoint segment: where one target's encoded records sit in the file,
//! and the XXH64 of those bytes. A spill segment keeps its chunks in memory,
//! a checkpoint manifest holds them in their text form; either is read back
//! through [`Chunk::read_into`], so a byte changed on disk is an error, never
//! a different record.
//!
//! Without a budget every share is unbounded, so the ledgers still meter (and
//! `peak_memory_bytes` is populated on every run) but never deny; enforcement
//! is strictly opt-in via
//! [`ClusterConfig::with_memory_budget`](crate::ClusterConfig::with_memory_budget).

use crate::digest::xxh64;
use crate::wire::{Wire, WireError};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::num::ParseIntError;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-wide spill directory override (set by [`set_spill_dir`]).
static SPILL_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Overrides the directory spill segments are written to (the `--spill-dir`
/// flag). Takes precedence over `ASJ_SPILL_DIR`.
pub fn set_spill_dir(dir: impl Into<PathBuf>) {
    *SPILL_DIR.lock().expect("spill dir lock poisoned") = Some(dir.into());
}

/// The directory spill segments land in: the [`set_spill_dir`] override,
/// else `ASJ_SPILL_DIR`, else the OS temp directory.
pub fn spill_dir() -> PathBuf {
    if let Some(dir) = SPILL_DIR.lock().expect("spill dir lock poisoned").clone() {
        return dir;
    }
    match std::env::var_os("ASJ_SPILL_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir(),
    }
}

/// Deletes spill files left behind by *dead* processes in `dir`. Matches
/// only the `asj-spill-<pid>-<seq>.bin` naming scheme and spares both the
/// live process's own files and any file whose embedded pid still names a
/// running process — two servers sharing a `--spill-dir` must not delete
/// each other's in-flight spills at startup. Files whose pid can't be
/// parsed or whose liveness can't be determined are spared too: an orphan
/// costs disk until the next sweep, a false positive corrupts a live
/// sibling's shuffle. Returns the bytes reclaimed.
pub fn clean_orphaned_spills(dir: &Path) -> std::io::Result<u64> {
    let own_pid = std::process::id();
    let mut reclaimed = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("asj-spill-") else {
            continue;
        };
        if !name.ends_with(".bin") {
            continue;
        }
        let Some(pid) = rest.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid == own_pid || pid_is_alive(pid) {
            continue;
        }
        let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(entry.path()).is_ok() {
            reclaimed = reclaimed.saturating_add(len);
        }
    }
    Ok(reclaimed)
}

/// Whether `pid` names a running process. On linux this checks
/// `/proc/<pid>`; elsewhere there is no portable non-signalling probe, so
/// every pid is reported alive and the sweep only ever reclaims via an
/// explicit owner (conservative: unknown means spare).
fn pid_is_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

/// Point-in-time view of one accountant (for reports and assertions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemorySnapshot {
    /// The per-node budget, if one is enforced.
    pub budget: Option<u64>,
    /// Most bytes any node held in one stage.
    pub peak_bytes: u64,
    /// Most bytes each node held in one stage.
    pub per_node_peak: Vec<u64>,
    /// Bytes written to disk spill segments.
    pub spilled_bytes: u64,
    /// Charges refused because they would have crossed a task's share.
    pub budget_denials: u64,
    /// Injected out-of-memory faults observed.
    pub oom_events: u64,
}

/// Splits an optional per-node budget over each stage's map tasks and keeps
/// the committed tasks' totals. Shared (via `Arc`) by every clone of a
/// [`Cluster`](crate::Cluster) handle.
#[derive(Debug)]
pub struct MemoryAccountant {
    budget: Option<u64>,
    peak: Vec<AtomicU64>,
    spilled: AtomicU64,
    denials: AtomicU64,
    oom_events: AtomicU64,
}

impl MemoryAccountant {
    /// An accountant for `nodes` simulated nodes. `budget == None` means
    /// meter-only: charges are tracked but never denied.
    pub fn new(nodes: usize, budget: Option<u64>) -> Self {
        MemoryAccountant {
            budget,
            peak: (0..nodes.max(1)).map(|_| AtomicU64::new(0)).collect(),
            spilled: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            oom_events: AtomicU64::new(0),
        }
    }

    /// The enforced per-node budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The empty ledger of each of a stage's map tasks, task `t` running on
    /// node `task_nodes[t]`. With M tasks, M_s of them on node s, a task on
    /// s may hold ⌊B/2M⌋ on every node and ⌊B/2M_s⌋ more on s: half of
    /// each node's budget is split over all tasks for post-shuffle
    /// partitions, the other half over the node's own tasks for their
    /// map-side buckets. The shares on a node sum to at most B, so no
    /// schedule can drive a node past its budget.
    pub(crate) fn ledgers(&self, task_nodes: &[usize]) -> Vec<Ledger> {
        let nodes = self.peak.len();
        let mut on_node = vec![0u64; nodes];
        for &node in task_nodes {
            on_node[node] += 1;
        }
        let share = |tasks: u64| self.budget.map_or(u64::MAX, |b| b / (2 * tasks).max(1));
        let every = share(task_nodes.len() as u64);
        let ledger = |own: usize| Ledger {
            cap: (0..nodes)
                .map(|node| {
                    if node == own {
                        every.saturating_add(share(on_node[own]))
                    } else {
                        every
                    }
                })
                .collect(),
            held: vec![0; nodes],
            denials: 0,
        };
        task_nodes.iter().map(|&own| ledger(own)).collect()
    }

    /// Folds a stage's committed ledgers: each node's peak becomes at least
    /// what the stage's tasks held there together, and their denials are
    /// added. Returns the stage's denials and its own peak: the most its
    /// tasks held together on any node.
    pub(crate) fn fold(&self, ledgers: &[Ledger]) -> (u64, u64) {
        let mut stage_peak = 0;
        for (node, peak) in self.peak.iter().enumerate() {
            let held = ledgers.iter().map(|l| l.held[node]).sum();
            peak.fetch_max(held, Ordering::Relaxed);
            stage_peak = stage_peak.max(held);
        }
        let denials = ledgers.iter().map(|l| l.denials).sum();
        self.denials.fetch_add(denials, Ordering::Relaxed);
        (denials, stage_peak)
    }

    /// Records `bytes` written to a disk spill segment.
    pub fn note_spill(&self, bytes: u64) {
        self.spilled.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one injected out-of-memory fault.
    pub fn note_oom(&self) {
        self.oom_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Most bytes any node held in one stage.
    pub fn peak_bytes(&self) -> u64 {
        self.per_node_peak().into_iter().max().unwrap_or(0)
    }

    fn per_node_peak(&self) -> Vec<u64> {
        self.peak
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect()
    }

    /// Total bytes spilled to disk so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }

    /// Charges denied so far.
    pub fn budget_denials(&self) -> u64 {
        self.denials.load(Ordering::Relaxed)
    }

    /// Injected OOM faults observed so far.
    pub fn oom_events(&self) -> u64 {
        self.oom_events.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter.
    pub fn snapshot(&self) -> MemorySnapshot {
        MemorySnapshot {
            budget: self.budget,
            peak_bytes: self.peak_bytes(),
            per_node_peak: self.per_node_peak(),
            spilled_bytes: self.spilled_bytes(),
            budget_denials: self.budget_denials(),
            oom_events: self.oom_events(),
        }
    }
}

/// One map task attempt's admission ledger: what it may hold on each node
/// (its share, fixed by [`MemoryAccountant::ledgers`]) and what it holds.
/// A plain value inside the attempt's result: the stage's commit folds the
/// winners' ledgers, and a failed or losing attempt's is dropped with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Ledger {
    cap: Vec<u64>,
    held: Vec<u64>,
    denials: u64,
}

impl Ledger {
    /// Charges `bytes` to each of `nodes` (a node named twice is charged
    /// twice) if every charge fits the task's share there. Otherwise charges
    /// nothing, counts one denial and returns `false`: the caller spills
    /// instead of materialising.
    pub(crate) fn admit(&mut self, bytes: u64, nodes: &[usize]) -> bool {
        let fits = nodes.iter().all(|&node| {
            let times = nodes.iter().filter(|&&n| n == node).count() as u64;
            let room = self.cap[node] - self.held[node];
            bytes.checked_mul(times).is_some_and(|need| need <= room)
        });
        if !fits {
            self.denials += 1;
            return false;
        }
        for &node in nodes {
            self.held[node] += bytes;
        }
        true
    }
}

/// Encodes keyed records back-to-back with the [`Wire`] codec (the same
/// framing the byte meters already measure, so spill volume and
/// `partition_bytes` speak the same unit).
pub fn encode_records<K: Wire, V: Wire>(recs: &[(K, V)]) -> Vec<u8> {
    let total: usize = recs
        .iter()
        .map(|(k, v)| k.encoded_size() + v.encoded_size())
        .sum();
    let mut buf = Vec::with_capacity(total);
    encode_records_into(recs, &mut buf);
    buf
}

/// [`encode_records`] appending to a buffer the caller reuses — how a
/// checkpoint worker encodes partition after partition without allocating.
/// Returns the record count, which [`decode_records`] needs back.
pub fn encode_records_into<K: Wire, V: Wire>(recs: &[(K, V)], buf: &mut Vec<u8>) -> u64 {
    for (k, v) in recs {
        k.encode(buf);
        v.encode(buf);
    }
    recs.len() as u64
}

/// Decodes exactly `records` keyed records from `bytes` (the inverse of
/// [`encode_records`]). Trailing bytes are an error — a spill chunk must
/// round-trip exactly.
pub fn decode_records<K: Wire, V: Wire>(
    bytes: &[u8],
    records: u64,
) -> Result<Vec<(K, V)>, WireError> {
    let mut cursor: &[u8] = bytes;
    // `records` can come from a manifest, which no checksum covers: reserve
    // no more records than there are bytes, and let a larger count fail.
    let mut out = Vec::with_capacity(records.min(bytes.len() as u64) as usize);
    for _ in 0..records {
        let k = K::try_decode(&mut cursor)?;
        let v = V::try_decode(&mut cursor)?;
        out.push((k, v));
    }
    if !cursor.is_empty() {
        return Err(WireError::Malformed(format!(
            "spill chunk has {} trailing byte(s)",
            cursor.len()
        )));
    }
    Ok(out)
}

/// Where one target partition's encoded records sit in a segment file — a
/// spill segment's or a checkpoint's — and the XXH64 of those bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Target partition the chunk's records belong to.
    pub target: usize,
    /// Records encoded in the chunk.
    pub records: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// Position of the chunk's first byte in its file.
    pub offset: u64,
    xxh64: u64,
}

impl Chunk {
    /// The index entry of `bytes`, which are being written at `offset`.
    pub(crate) fn new(target: usize, records: u64, offset: u64, bytes: &[u8]) -> Chunk {
        Chunk {
            target,
            records,
            len: bytes.len() as u64,
            offset,
            xxh64: xxh64(bytes),
        }
    }

    /// Appends the chunk's bytes, read from `file`, to `buf`. A chunk that
    /// ends past the end of the file is refused before anything is allocated
    /// for it (`UnexpectedEof`); bytes whose XXH64 differs from the index's
    /// are `InvalidData`. On any error `buf` is left as it was.
    pub(crate) fn read_into(&self, file: &File, buf: &mut Vec<u8>) -> io::Result<()> {
        let (end, file_len) = (self.offset.checked_add(self.len), file.metadata()?.len());
        if end.is_none_or(|end| end > file_len) {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let start = buf.len();
        buf.resize(start + self.len as usize, 0);
        let mismatch = || io::Error::new(io::ErrorKind::InvalidData, "chunk checksum mismatch");
        let verified = match file.read_exact_at(&mut buf[start..], self.offset) {
            Ok(()) if xxh64(&buf[start..]) != self.xxh64 => Err(mismatch()),
            read => read,
        };
        verified.inspect_err(|_| buf.truncate(start))
    }
}

/// A manifest's `chunk=` value: `target:records:len:offset:xxh64`, the
/// checksum in 16 hex digits.
impl fmt::Display for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}:{:016x}",
            self.target, self.records, self.len, self.offset, self.xxh64
        )
    }
}

impl std::str::FromStr for Chunk {
    type Err = ParseIntError;
    fn from_str(s: &str) -> Result<Chunk, ParseIntError> {
        // A missing field parses as "" and a sixth stays in the fifth, so
        // both are errors.
        let mut fields = s.splitn(5, ':');
        let mut next = || fields.next().unwrap_or("");
        Ok(Chunk {
            target: next().parse()?,
            records: next().parse()?,
            len: next().parse()?,
            offset: next().parse()?,
            xxh64: u64::from_str_radix(next(), 16)?,
        })
    }
}

/// Append-only writer for one map task's spilled buckets: a segment that is
/// not readable yet. `finish` seals it; dropping it deletes the file.
#[derive(Debug)]
pub struct SpillWriter(SpillSegment);

/// Monotonic discriminator so concurrent tasks never collide on a path.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillWriter {
    /// Creates a fresh spill file in the configured spill directory (see
    /// [`spill_dir`]).
    pub fn create() -> std::io::Result<SpillWriter> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = spill_dir().join(format!("asj-spill-{}-{}.bin", std::process::id(), seq));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let chunks = Vec::new();
        Ok(SpillWriter(SpillSegment { file, path, chunks }))
    }

    /// Appends one target's encoded records as a chunk.
    pub fn write_chunk(
        &mut self,
        target: usize,
        bytes: &[u8],
        records: u64,
    ) -> std::io::Result<()> {
        let segment = &mut self.0;
        segment.file.write_all(bytes)?;
        let offset = segment.total_bytes();
        segment
            .chunks
            .push(Chunk::new(target, records, offset, bytes));
        Ok(())
    }

    /// Seals the writer. Returns `None` when nothing was spilled (the empty
    /// file is deleted immediately).
    pub fn finish(self) -> std::io::Result<Option<SpillSegment>> {
        Ok(Some(self.0).filter(|segment| !segment.chunks.is_empty()))
    }
}

/// One sealed on-disk spill file plus its chunk index. Dropping the segment
/// deletes the file, so a failed or speculative task attempt cleans up after
/// itself automatically. Chunks are read with positional reads, so the
/// reduce tasks that share a segment read their chunks concurrently.
#[derive(Debug)]
pub struct SpillSegment {
    file: File,
    path: PathBuf,
    chunks: Vec<Chunk>,
}

impl SpillSegment {
    /// The on-disk path of the segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The chunk index, in write order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Total encoded bytes across all chunks.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len).sum()
    }

    /// Appends the encoded bytes of chunk `index` (of [`chunks`](Self::chunks))
    /// to `buf`, verified against its [`Chunk`]: a short read or a checksum
    /// mismatch is an error and leaves `buf` as it was.
    pub fn read_chunk_into(&self, index: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
        self.chunks[index].read_into(&self.file, buf)
    }

    /// Reads and decodes the records of chunk `index`.
    pub fn read_chunk<K: Wire, V: Wire>(&self, index: usize) -> std::io::Result<Vec<(K, V)>> {
        let mut buf = Vec::new();
        self.read_chunk_into(index, &mut buf)?;
        decode_records::<K, V>(&buf, self.chunks[index].records)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl Drop for SpillSegment {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::os::unix::fs::FileExt;

    #[test]
    fn meter_only_accountant_never_denies() {
        let m = MemoryAccountant::new(3, None);
        let mut ledgers = m.ledgers(&[0, 1]);
        assert!(ledgers[0].admit(u64::MAX / 2, &[0]));
        assert!(ledgers[0].admit(u64::MAX / 2, &[0]));
        assert_eq!(m.fold(&ledgers).0, 0);
        assert_eq!(m.budget_denials(), 0);
        assert!(m.peak_bytes() > 0);
    }

    #[test]
    fn budget_denies_and_counts() {
        // Two tasks, both on node 0 of two nodes: each may hold
        // 1000/4 = 250 on every node and 1000/4 = 250 more on node 0.
        let m = MemoryAccountant::new(2, Some(1000));
        let mut ledgers = m.ledgers(&[0, 0]);
        let task = &mut ledgers[0];
        assert!(task.admit(200, &[0, 1]), "200 + 200 fits 500 and 250");
        assert!(!task.admit(100, &[0, 1]), "node 1 has 50 left");
        assert!(
            task.admit(150, &[0, 0]),
            "two charges of 150 fit node 0's 300"
        );
        assert!(!task.admit(1, &[0]), "node 0's share is used up");
        assert!(task.admit(0, &[0]), "an empty charge always fits");
        assert!(
            ledgers[1].admit(500, &[0]),
            "the other task has its own share"
        );
        assert_eq!(m.fold(&ledgers), (2, 1000));
        let s = m.snapshot();
        assert_eq!(s.per_node_peak, vec![1000, 200]);
        assert_eq!(s.peak_bytes, 1000);
        assert_eq!(s.budget_denials, 2);
        // A later stage's smaller total leaves the peak where it was, and
        // its own peak is what it held.
        let mut next = m.ledgers(&[1]);
        assert!(next.iter_mut().all(|l| l.admit(10, &[1])));
        assert_eq!(m.fold(&next), (0, 10));
        assert_eq!(m.snapshot().per_node_peak, vec![1000, 200]);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = MemoryAccountant::new(2, Some(64));
        let mut ledgers = m.ledgers(&[1]);
        assert!(ledgers[0].admit(64, &[1]));
        assert!(!ledgers[0].admit(1, &[1]));
        m.fold(&ledgers);
        m.note_spill(4096);
        m.note_oom();
        let s = m.snapshot();
        assert_eq!(s.budget, Some(64));
        assert_eq!(s.peak_bytes, 64);
        assert_eq!(s.per_node_peak, vec![0, 64]);
        assert_eq!(s.spilled_bytes, 4096);
        assert_eq!(s.budget_denials, 1);
        assert_eq!(s.oom_events, 1);
    }

    proptest! {
        /// Whatever the task count, the node count, the placement and the
        /// budget, the shares the tasks may hold on a node sum to at most
        /// the budget, and a one-byte budget admits nothing.
        #[test]
        fn shares_on_every_node_sum_to_at_most_the_budget(
            placement in prop::collection::vec(any::<usize>(), 1..64),
            nodes in 1usize..9,
            budget in 1u64..1 << 40,
        ) {
            let task_nodes: Vec<usize> = placement.iter().map(|p| p % nodes).collect();
            let ledgers = MemoryAccountant::new(nodes, Some(budget)).ledgers(&task_nodes);
            for node in 0..nodes {
                let shares: u64 = ledgers.iter().map(|l| l.cap[node]).sum();
                prop_assert!(shares <= budget, "node {}: {} > {}", node, shares, budget);
            }
            let one = MemoryAccountant::new(nodes, Some(1)).ledgers(&task_nodes);
            for (t, mut ledger) in one.into_iter().enumerate() {
                let own = task_nodes[t];
                prop_assert!(!ledger.admit(1, &[own]));
                prop_assert!(!ledger.admit(1, &[(own + 1) % nodes]));
            }
        }
    }

    #[test]
    fn records_roundtrip_through_codec() {
        let recs: Vec<(u64, (u64, Vec<u8>))> = (0..17)
            .map(|i| (i, (i * 3, vec![i as u8; (i % 5) as usize])))
            .collect();
        let bytes = encode_records(&recs);
        let expect: usize = recs
            .iter()
            .map(|(k, v)| k.encoded_size() + v.encoded_size())
            .sum();
        assert_eq!(bytes.len(), expect);
        let back = decode_records::<u64, (u64, Vec<u8>)>(&bytes, recs.len() as u64)
            .expect("decode must succeed");
        assert_eq!(back, recs);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let recs: Vec<(u64, u64)> = vec![(1, 2), (3, 4)];
        let mut bytes = encode_records(&recs);
        bytes.push(0xFF);
        assert!(decode_records::<u64, u64>(&bytes, 2).is_err());
    }

    #[test]
    fn spill_segment_roundtrips_and_cleans_up() {
        let a: Vec<(u64, Vec<u8>)> = vec![(7, vec![1, 2, 3]), (9, Vec::new())];
        let b: Vec<(u64, Vec<u8>)> = vec![(11, vec![42; 8])];
        let mut w = SpillWriter::create().expect("temp dir must be writable");
        let enc_a = encode_records(&a);
        let enc_b = encode_records(&b);
        w.write_chunk(3, &enc_a, a.len() as u64)
            .expect("write chunk");
        w.write_chunk(8, &enc_b, b.len() as u64)
            .expect("write chunk");
        let seg = w.finish().expect("finish").expect("non-empty segment");
        let path = seg.path.clone();
        assert!(path.exists());
        assert_eq!(seg.chunks().len(), 2);
        assert_eq!(seg.total_bytes(), (enc_a.len() + enc_b.len()) as u64);
        assert_eq!(seg.chunks()[1].target, 8);
        // Read out of write order — the index locates each chunk.
        let got_b: Vec<(u64, Vec<u8>)> = seg.read_chunk(1).expect("read chunk of target 8");
        assert_eq!(got_b, b);
        let got_a: Vec<(u64, Vec<u8>)> = seg.read_chunk(0).expect("read chunk of target 3");
        assert_eq!(got_a, a);
        // A segment cut short fails the read instead of returning less.
        let file = File::options().write(true).open(&path).expect("reopen");
        file.set_len(enc_a.len() as u64 + 1).expect("truncate");
        let mut buf = vec![7u8];
        let err = seg.read_chunk_into(1, &mut buf).expect_err("short read");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(buf, [7], "a failed read appends nothing");
        drop(seg);
        assert!(!path.exists(), "dropping the segment deletes the file");
    }

    proptest! {
        /// Any single-byte XOR of a spill file makes reading the chunk it
        /// lands in an error, and so does cutting the file short; the other
        /// chunks read back unchanged. No mutation panics or returns other
        /// records.
        #[test]
        fn a_mutated_spill_segment_is_an_error_not_an_answer(
            shape in prop::collection::vec(prop::collection::vec((any::<u64>(), 0usize..12), 1..20), 1..5),
            at in any::<u64>(),
            mask in 1u8..=255,
            cut in any::<u64>(),
        ) {
            type Part = Vec<(u64, Vec<u8>)>;
            let parts: Vec<Part> = shape
                .iter()
                .map(|part| part.iter().map(|&(k, n)| (k, vec![k as u8; n])).collect())
                .collect();
            let mut w = SpillWriter::create().expect("temp dir must be writable");
            for (t, part) in parts.iter().enumerate() {
                w.write_chunk(t, &encode_records(part), part.len() as u64).expect("write chunk");
            }
            let seg = w.finish().expect("finish").expect("non-empty segment");
            // Every chunk either fails or reads back exactly what was written.
            let check = |damaged: &dyn Fn(&Chunk) -> bool| -> Result<(), TestCaseError> {
                for (i, chunk) in seg.chunks().iter().enumerate() {
                    match seg.read_chunk::<u64, Vec<u8>>(i) {
                        Ok(rows) => {
                            prop_assert!(!damaged(chunk), "chunk {} read despite damage", i);
                            prop_assert_eq!(&rows, &parts[i]);
                        }
                        Err(_) => prop_assert!(damaged(chunk), "chunk {} failed intact", i),
                    }
                }
                Ok(())
            };
            let total = seg.total_bytes();
            let file = File::options().read(true).write(true).open(seg.path()).expect("reopen");
            let at = at % total;
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, at).expect("read byte");
            file.write_all_at(&[byte[0] ^ mask], at).expect("flip byte");
            check(&|c| (c.offset..c.offset + c.len).contains(&at))?;
            file.write_all_at(&byte, at).expect("restore byte");
            let cut = cut % total;
            file.set_len(cut).expect("truncate");
            check(&|c| c.offset + c.len > cut)?;
        }
    }

    #[test]
    fn empty_writer_finishes_to_none() {
        let w = SpillWriter::create().expect("temp dir must be writable");
        let path = w.0.path.clone();
        assert!(w.finish().expect("finish").is_none());
        assert!(!path.exists());
    }

    /// A pid guaranteed dead on any platform the sweep reclaims on: above
    /// linux's compile-time `PID_MAX_LIMIT` (4 << 22), so no process can
    /// ever hold it.
    const DEAD_PID: u32 = (4 << 22) + 17;

    #[test]
    fn orphan_sweep_spares_the_live_process() {
        let dir = std::env::temp_dir().join(format!("asj-orphan-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let own = dir.join(format!("asj-spill-{}-9999.bin", std::process::id()));
        let orphan = dir.join(format!("asj-spill-{DEAD_PID}-0.bin"));
        let unparseable = dir.join("asj-spill-nopid-0.bin");
        let unrelated = dir.join("keep.txt");
        std::fs::write(&own, b"live").expect("write own");
        std::fs::write(&orphan, b"stale-bytes").expect("write orphan");
        std::fs::write(&unparseable, b"???").expect("write unparseable");
        std::fs::write(&unrelated, b"other").expect("write unrelated");
        let reclaimed = clean_orphaned_spills(&dir).expect("sweep");
        if cfg!(target_os = "linux") {
            assert_eq!(reclaimed, 11, "only the dead pid's bytes are reclaimed");
            assert!(!orphan.exists(), "orphans from dead pids are removed");
        } else {
            // Without a liveness probe the sweep must spare everything.
            assert_eq!(reclaimed, 0);
            assert!(orphan.exists());
        }
        assert!(own.exists(), "own spills are spared");
        assert!(
            unparseable.exists(),
            "unparseable pids are spared, not swept"
        );
        assert!(unrelated.exists(), "non-spill files are untouched");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn orphan_sweep_spares_a_live_sibling_process() {
        // pid 1 is always alive on linux; a sibling server that spilled
        // under it must survive this process's startup sweep.
        let dir = std::env::temp_dir().join(format!("asj-sibling-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let sibling = dir.join("asj-spill-1-0.bin");
        let dead = dir.join(format!("asj-spill-{DEAD_PID}-0.bin"));
        std::fs::write(&sibling, b"sibling-live").expect("write sibling");
        std::fs::write(&dead, b"stale").expect("write dead");
        let reclaimed = clean_orphaned_spills(&dir).expect("sweep");
        assert_eq!(reclaimed, 5, "only the dead process's spill is reclaimed");
        assert!(
            sibling.exists(),
            "a live sibling's spills are never deleted"
        );
        assert!(!dead.exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
