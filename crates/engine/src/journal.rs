//! Crash-consistent job-server journal: an append-only JSONL write-ahead
//! log of admissions, grants, stage completions and job completions.
//!
//! The journal is the second durability layer on top of stage checkpoints
//! (`checkpoint.rs`): the checkpoint store makes *stage outputs* durable,
//! the journal makes the *server's decisions* durable, and together they let
//! [`JobServer::recover`](crate::JobServer::recover) restore a crashed
//! queue — completed jobs replay from their journaled results, in-flight
//! jobs resume from their last checkpointed stage, and the deterministic
//! scheduler regrants the identical prefix.
//!
//! Records are one flat JSON object per line; `append` fsyncs at every
//! record boundary, so the write-ahead property holds across power loss,
//! not just process death. The reader tolerates a torn *final* line (a
//! crash mid-append) and nothing else: a malformed line followed by valid
//! records means the file was corrupted, not torn, and [`Journal::read`]
//! reports it as a typed [`JournalError::Corrupt`] instead of silently
//! dropping the valid suffix.
//!
//! The journal grows with server age; [`Journal::compact`] bounds it by
//! rewriting the file down to its *live* records (tmp → fsync → rename, so
//! a crash mid-compaction leaves either the old or the new journal, never a
//! mix): the winning `done` record per finished job, plus the current era's
//! admissions, grants and in-flight stage pointers. A `compact` marker
//! records the rewrite for audit.
//!
//! Lines are written and read through the workspace's one JSON codec,
//! [`asj_obs::json`]: the only values are `u64`s and strings, and result
//! payloads are hex-encoded so the JSON stays ASCII regardless of the job's
//! `Wire` encoding. A line the codec refuses carries its column and reason
//! into [`JournalError::Corrupt`].

use crate::digest::fnv1a;
use asj_obs::json;
use asj_obs::json::Value::{Hex, Str, U64};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fsyncs a directory so a just-created or just-renamed entry inside it is
/// durable. POSIX only guarantees that `rename(2)` and `open(O_CREAT)` are
/// durable once the *containing directory* has been fsynced — fsyncing the
/// file alone persists its bytes but not the name that points at them, so a
/// crash could lose a "committed" file whose data is safely on disk.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Publishes `bytes` at `path` atomically: written to `tmp`, fsynced, renamed
/// over `path`, then the directory entry fsynced. A crash at any point leaves
/// either the old file (plus an inert `tmp` the next publish overwrites) or
/// the complete new one — the one way a checkpoint manifest and a compacted
/// journal become visible.
pub(crate) fn publish_atomically(path: &Path, tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)?;
    match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(parent) => fsync_dir(parent),
        None => Ok(()),
    }
}

/// Why a journal could not be read: I/O trouble, or corruption that is not
/// the torn tail a crash mid-append legitimately leaves.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A malformed line *followed by valid records* — the file was
    /// corrupted (or hand-edited), not torn by a crash. `line` and the byte
    /// `column` are 1-based.
    Corrupt {
        line: usize,
        column: usize,
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt {
                line,
                column,
                reason,
            } => write!(
                f,
                "journal corrupt at line {line}, column {column} (not a torn tail): {reason}"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<JournalError> for std::io::Error {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(e) => e,
            corrupt => std::io::Error::new(std::io::ErrorKind::InvalidData, corrupt.to_string()),
        }
    }
}

/// One journal line. The record grammar (see ARCHITECTURE.md):
///
/// ```text
/// {"type":"admit","job":J,"name":"..."}       job J entered the queue
/// {"type":"grant","job":J}                    quantum granted (write-ahead)
/// {"type":"stage","job":J,"stage":"...",
///  "key":"...","bytes":B}                     stage checkpoint committed
/// {"type":"done","job":J,"result":"hex...",
///  "checksum":C}                              job finished, result bytes
/// {"type":"recover"}                          a recovery run started here
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// Job `job` was admitted under `name`.
    Admit { job: u64, name: String },
    /// The scheduler granted job `job` its next quantum. Written *before*
    /// the grant is applied, so the journal's grant log is always a prefix
    /// of (never behind) the in-memory one.
    Grant { job: u64 },
    /// Job `job` committed the checkpoint `key` for `stage` (`bytes` of
    /// segment data) — the manifest pointer recovery resumes from.
    Stage {
        job: u64,
        stage: String,
        key: String,
        bytes: u64,
    },
    /// Job `job` completed with `result` (its `Wire`-encoded value) whose
    /// FNV-1a checksum is `checksum`.
    Done {
        job: u64,
        result: Vec<u8>,
        checksum: u64,
    },
    /// Marks the boundary where a recovery run reopened the journal.
    Recover,
    /// Marks an era compaction: the file was rewritten down to `kept` live
    /// records, dropping `dropped` dead ones. Informational — era semantics
    /// stay anchored on [`JournalRecord::Recover`] so the surviving grant
    /// log still reads as the current era's prefix.
    Compact { kept: u64, dropped: u64 },
}

impl JournalRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let fields = match self {
            JournalRecord::Admit { job, name } => {
                vec![
                    ("type", Str("admit")),
                    ("job", U64(*job)),
                    ("name", Str(name)),
                ]
            }
            JournalRecord::Grant { job } => vec![("type", Str("grant")), ("job", U64(*job))],
            JournalRecord::Stage {
                job,
                stage,
                key,
                bytes,
            } => vec![
                ("type", Str("stage")),
                ("job", U64(*job)),
                ("stage", Str(stage)),
                ("key", Str(key)),
                ("bytes", U64(*bytes)),
            ],
            JournalRecord::Done {
                job,
                result,
                checksum,
            } => vec![
                ("type", Str("done")),
                ("job", U64(*job)),
                ("result", Hex(result)),
                ("checksum", U64(*checksum)),
            ],
            JournalRecord::Recover => vec![("type", Str("recover"))],
            JournalRecord::Compact { kept, dropped } => vec![
                ("type", Str("compact")),
                ("kept", U64(*kept)),
                ("dropped", U64(*dropped)),
            ],
        };
        json::Value::Object(fields).to_string()
    }

    /// Parses one JSON line. Anything but exactly one record's fields — an
    /// unknown `type`, a missing or unknown field, a value of the wrong
    /// kind, `result` bytes that are not hex — is an error naming its
    /// column.
    pub fn parse_line(line: &str) -> Result<JournalRecord, json::Error> {
        let mut o = json::Object::parse(line)?;
        let record = match o.str("type")?.as_str() {
            "admit" => JournalRecord::Admit {
                job: o.u64("job")?,
                name: o.str("name")?,
            },
            "grant" => JournalRecord::Grant { job: o.u64("job")? },
            "stage" => JournalRecord::Stage {
                job: o.u64("job")?,
                stage: o.str("stage")?,
                key: o.str("key")?,
                bytes: o.u64("bytes")?,
            },
            "done" => JournalRecord::Done {
                job: o.u64("job")?,
                result: o.hex("result")?,
                checksum: o.u64("checksum")?,
            },
            "recover" => JournalRecord::Recover,
            "compact" => JournalRecord::Compact {
                kept: o.u64("kept")?,
                dropped: o.u64("dropped")?,
            },
            other => return Err(o.error("type", format!("unknown record type {other:?}"))),
        };
        o.finish()?;
        Ok(record)
    }
}

/// An append-only journal file with fsync-per-record durability.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
    records: AtomicU64,
}

impl Journal {
    /// Creates (truncating) a fresh journal at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = File::options()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        // Make the journal's *name* durable, not just its (empty) contents:
        // per POSIX, a file created inside a directory survives a crash only
        // once the directory itself has been fsynced.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fsync_dir(parent)?;
        }
        Ok(Journal {
            file: Mutex::new(file),
            path,
            records: AtomicU64::new(0),
        })
    }

    /// Reopens an existing journal for appending (the recovery path) and
    /// returns its committed records. A torn tail — the half line a crash
    /// mid-append leaves — is cut off and the cut fsynced first, so the next
    /// record starts on a line of its own instead of fusing onto the debris
    /// (which the *next* read would report as mid-file corruption).
    pub fn open_append(
        path: impl AsRef<Path>,
    ) -> Result<(Journal, Vec<JournalRecord>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let (records, valid_len) = read_committed(&path)?;
        let file = File::options().append(true).open(&path)?;
        if file.metadata()?.len() != valid_len {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        let journal = Journal {
            file: Mutex::new(file),
            path,
            records: AtomicU64::new(0),
        };
        Ok((journal, records))
    }

    /// Appends one record and fsyncs — the record boundary is the
    /// durability boundary.
    pub fn append(&self, record: &JournalRecord) -> std::io::Result<()> {
        let line = record.to_line();
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Records appended through this handle (the `journal_records` counter).
    pub fn records_appended(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Reads all committed records from `path`. A torn *final* line (crash
    /// mid-append) silently ends the log; everything before it is trusted
    /// because every complete line was fsynced before the next began. A
    /// malformed line anywhere *before* the tail cannot be a torn append —
    /// valid fsynced records follow it — so it is surfaced as
    /// [`JournalError::Corrupt`] instead of silently truncating the log and
    /// dropping committed results.
    pub fn read(path: impl AsRef<Path>) -> Result<Vec<JournalRecord>, JournalError> {
        read_committed(path.as_ref()).map(|(records, _)| records)
    }

    /// Compacts the journal at `path` in place (the offline
    /// `asj journal compact` entry point): reads the log, computes the live
    /// set via [`compact_records`], and publishes the rewrite atomically
    /// (tmp → fsync → rename → dir fsync), so a crash at any point leaves
    /// either the old journal or the complete new one. Refuses (via
    /// [`JournalError::Corrupt`]) to compact a mid-file-corrupt journal:
    /// rewriting would launder the corruption into silence.
    pub fn compact_file(path: impl AsRef<Path>) -> Result<CompactStats, JournalError> {
        let path = path.as_ref();
        let bytes_before = std::fs::metadata(path).map_err(JournalError::Io)?.len();
        let records = Self::read(path)?;
        let (live, dropped) = compact_records(&records);
        let mut text = String::new();
        for rec in &live {
            text.push_str(&rec.to_line());
            text.push('\n');
        }
        publish_atomically(path, &path.with_extension("compact.tmp"), text.as_bytes())?;
        Ok(CompactStats {
            kept: live.len() as u64,
            dropped,
            bytes_before,
            bytes_after: text.len() as u64,
        })
    }

    /// In-place compaction for a *live* journal handle (`--compact-every`):
    /// holds the append lock across the rewrite so no record can land
    /// between read and rename, then reopens the handle — the rename
    /// unlinked the inode the old descriptor pointed at, so appending
    /// through it would write into the void.
    pub fn compact(&self) -> Result<CompactStats, JournalError> {
        let mut file = self.file.lock().expect("journal lock poisoned");
        let stats = Self::compact_file(&self.path)?;
        *file = File::options().append(true).open(&self.path)?;
        Ok(stats)
    }
}

/// How much a compaction shrank the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Live records written to the compacted file (marker included).
    pub kept: u64,
    /// Dead records dropped.
    pub dropped: u64,
    /// File size before, in bytes.
    pub bytes_before: u64,
    /// File size after, in bytes.
    pub bytes_after: u64,
}

/// The committed records of the journal at `path` and the byte length they
/// occupy. A record is committed once its line is complete — valid UTF-8,
/// parseable and newline-terminated, which is what `append` fsyncs; whatever
/// follows the last such line is the torn tail of a crash mid-append and
/// ends the log. A malformed line with anything after it is
/// [`JournalError::Corrupt`].
fn read_committed(path: &Path) -> Result<(Vec<JournalRecord>, u64), JournalError> {
    let bytes = std::fs::read(path)?;
    let mut records = Vec::new();
    let (mut offset, mut valid_len) = (0usize, 0usize);
    let mut torn: Option<JournalError> = None;
    for (line_no, raw) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        offset += raw.len();
        let line = raw.trim_ascii_end();
        if line.is_empty() {
            continue;
        }
        if let Some(corrupt) = torn {
            return Err(corrupt);
        }
        let parsed = std::str::from_utf8(line)
            .map_err(|e| json::Error {
                column: e.valid_up_to() + 1,
                reason: "invalid UTF-8".to_string(),
            })
            .and_then(JournalRecord::parse_line);
        match parsed {
            Ok(rec) if raw.ends_with(b"\n") => {
                records.push(rec);
                valid_len = offset;
            }
            // The last line, its newline never written: a torn tail.
            Ok(_) => {}
            Err(e) => {
                torn = Some(JournalError::Corrupt {
                    line: line_no + 1,
                    column: e.column,
                    reason: e.reason,
                })
            }
        }
    }
    Ok((records, valid_len as u64))
}

/// What a journal replays to — everything recovery acts on, and therefore
/// what compaction must preserve.
#[derive(Debug)]
pub(crate) struct Replay<'a> {
    /// The current era: the records after the last `recover` marker.
    /// Earlier eras' grants, admissions and stage pointers are superseded.
    era: &'a [JournalRecord],
    /// The current era's grant log.
    pub(crate) grants: Vec<u64>,
    /// Per finished job, the result bytes of its *last* `done` record whose
    /// FNV checksum verifies. Era-independent: the same job always finishes
    /// with the same bytes, and an invalid record means "not done".
    pub(crate) done: BTreeMap<u64, &'a [u8]>,
}

pub(crate) fn replay(records: &[JournalRecord]) -> Replay<'_> {
    let era_start = records
        .iter()
        .rposition(|r| matches!(r, JournalRecord::Recover))
        .map_or(0, |i| i + 1);
    let mut replay = Replay {
        era: &records[era_start..],
        grants: Vec::new(),
        done: BTreeMap::new(),
    };
    for rec in replay.era {
        if let JournalRecord::Grant { job } = rec {
            replay.grants.push(*job);
        }
    }
    for rec in records {
        if let JournalRecord::Done {
            job,
            result,
            checksum,
        } = rec
        {
            if fnv1a(result) == *checksum {
                replay.done.insert(*job, result);
            }
        }
    }
    replay
}

/// Journal compaction: keeps exactly what recovery reads (the private
/// `replay`), in a form that replays to the same state —
///
/// * the winning `done` record per job, hoisted to the front in ascending
///   job order;
/// * every record of the current era except `done` records (hoisted, or
///   invalid and dead) and `stage` pointers of finished jobs, whose
///   checkpoints the retention GC has already unlinked.
///
/// Earlier eras' grants/admits/stages are superseded, and old
/// `recover`/`compact` markers are dropped: the compacted file *is* one era,
/// so its grant log reads as the current era's prefix without any marker.
/// Returns the live records (led by a fresh `compact` marker) and the
/// dropped-record count.
pub fn compact_records(records: &[JournalRecord]) -> (Vec<JournalRecord>, u64) {
    let Replay { era, done, .. } = replay(records);
    let mut live: Vec<JournalRecord> = Vec::with_capacity(done.len() + era.len());
    live.extend(done.iter().map(|(&job, &result)| JournalRecord::Done {
        job,
        result: result.to_vec(),
        checksum: fnv1a(result),
    }));
    for rec in era {
        match rec {
            JournalRecord::Done { .. } | JournalRecord::Compact { .. } => {}
            JournalRecord::Stage { job, .. } if done.contains_key(job) => {}
            rec => live.push(rec.clone()),
        }
    }
    let dropped = (records.len() - live.len()) as u64;
    live.insert(
        0,
        JournalRecord::Compact {
            kept: live.len() as u64,
            dropped,
        },
    );
    (live, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn test_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("asj-journal-{tag}-{}.jsonl", std::process::id()))
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Admit {
                job: 0,
                name: "alpha \"quoted\" \\slash\u{1}".to_string(),
            },
            JournalRecord::Grant { job: 0 },
            JournalRecord::Stage {
                job: 0,
                stage: "job:0:shuffle".to_string(),
                key: "job0-shuffle-0".to_string(),
                bytes: 4096,
            },
            JournalRecord::Done {
                job: 0,
                result: vec![0x00, 0xFF, 0x10, 0xAB],
                checksum: 0xDEAD_BEEF,
            },
            JournalRecord::Recover,
            JournalRecord::Compact {
                kept: 12,
                dropped: 340,
            },
        ]
    }

    /// Checksummed `done` record for `job` carrying `byte` as its result.
    fn done(job: u64, byte: u8) -> JournalRecord {
        JournalRecord::Done {
            job,
            result: vec![byte],
            checksum: fnv1a(&[byte]),
        }
    }

    #[test]
    fn records_round_trip_through_the_line_codec() {
        for rec in sample_records() {
            let line = rec.to_line();
            let back = JournalRecord::parse_line(&line)
                .unwrap_or_else(|e| panic!("line must parse: {line}: {e}"));
            assert_eq!(back, rec, "{line}");
        }
    }

    #[test]
    fn journal_appends_and_reads_back() {
        let path = test_path("roundtrip");
        let journal = Journal::create(&path).expect("create");
        for rec in sample_records() {
            journal.append(&rec).expect("append");
        }
        assert_eq!(journal.records_appended(), 6);
        let back = Journal::read(&path).expect("read");
        assert_eq!(back, sample_records());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_tail_ends_the_log_silently() {
        let path = test_path("torn");
        let journal = Journal::create(&path).expect("create");
        journal.append(&JournalRecord::Grant { job: 1 }).expect("a");
        journal.append(&JournalRecord::Grant { job: 2 }).expect("b");
        drop(journal);
        // Simulate a crash mid-append: half a record at the tail.
        let mut bytes = std::fs::read(&path).expect("read bytes");
        bytes.extend_from_slice(b"{\"type\":\"done\",\"job\":3,\"res");
        std::fs::write(&path, &bytes).expect("tear");
        let back = Journal::read(&path).expect("read");
        assert_eq!(
            back,
            vec![
                JournalRecord::Grant { job: 1 },
                JournalRecord::Grant { job: 2 }
            ],
            "complete prefix survives, torn tail is dropped"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn open_append_extends_an_existing_journal() {
        // Cleanly closed, or with the torn tail of a crash mid-append: the
        // next record lands on a line of its own either way.
        for torn_tail in ["", "{\"type\":\"done\",\"job\":3,\"res"] {
            let path = test_path("append");
            Journal::create(&path)
                .expect("create")
                .append(&JournalRecord::Grant { job: 7 })
                .expect("first");
            let mut bytes = std::fs::read(&path).expect("read bytes");
            bytes.extend_from_slice(torn_tail.as_bytes());
            std::fs::write(&path, &bytes).expect("tear");
            let (reopened, committed) = Journal::open_append(&path).expect("reopen");
            assert_eq!(committed, vec![JournalRecord::Grant { job: 7 }]);
            reopened.append(&JournalRecord::Recover).expect("second");
            let back = Journal::read(&path).expect("read");
            assert_eq!(
                back,
                vec![JournalRecord::Grant { job: 7 }, JournalRecord::Recover]
            );
            std::fs::remove_file(&path).expect("cleanup");
        }
    }

    #[test]
    fn mid_file_corruption_is_a_typed_error_not_silent_truncation() {
        let path = test_path("midfile");
        let journal = Journal::create(&path).expect("create");
        journal.append(&JournalRecord::Grant { job: 1 }).expect("a");
        journal.append(&done(1, 0xAB)).expect("b");
        drop(journal);
        // Corrupt the FIRST line; the valid done record after it proves
        // this is not a torn tail.
        let text = std::fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines[0] = "{\"type\":\"gra";
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("corrupt");
        match Journal::read(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn compaction_keeps_only_live_records_and_is_atomic() {
        let path = test_path("compact");
        let journal = Journal::create(&path).expect("create");
        // Era 0: job 0 finishes (admit/grant/stage now dead), job 1 starts.
        for rec in [
            JournalRecord::Admit {
                job: 0,
                name: "a".into(),
            },
            JournalRecord::Grant { job: 0 },
            JournalRecord::Stage {
                job: 0,
                stage: "shuffle".into(),
                key: "job0-shuffle-0".into(),
                bytes: 64,
            },
            done(0, 0x11),
            JournalRecord::Admit {
                job: 1,
                name: "b".into(),
            },
            JournalRecord::Grant { job: 1 },
            // Era 1 (recovery): one grant and an in-flight stage pointer.
            JournalRecord::Recover,
            JournalRecord::Grant { job: 1 },
            JournalRecord::Stage {
                job: 1,
                stage: "shuffle".into(),
                key: "job1-shuffle-0".into(),
                bytes: 32,
            },
        ] {
            journal.append(&rec).expect("append");
        }
        let stats = journal.compact().expect("compact");
        assert!(stats.bytes_after < stats.bytes_before);
        let back = Journal::read(&path).expect("read compacted");
        assert_eq!(
            back,
            vec![
                JournalRecord::Compact {
                    kept: 3,
                    dropped: 6
                },
                done(0, 0x11),
                JournalRecord::Grant { job: 1 },
                JournalRecord::Stage {
                    job: 1,
                    stage: "shuffle".into(),
                    key: "job1-shuffle-0".into(),
                    bytes: 32,
                },
            ],
            "done hoisted, current era kept, earlier era and done-job stage dropped"
        );
        // The compacted file has no recover marker, so the surviving grant
        // log *is* the current era's — exactly what recovery expects.
        // The reopened handle must still append to the new inode.
        journal
            .append(&JournalRecord::Grant { job: 1 })
            .expect("post-compact append");
        let back = Journal::read(&path).expect("re-read");
        assert_eq!(back.last(), Some(&JournalRecord::Grant { job: 1 }));
        assert!(
            !path.with_extension("compact.tmp").exists(),
            "no tmp debris after a clean compaction"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn compaction_refuses_a_mid_file_corrupt_journal() {
        let path = test_path("compact-corrupt");
        let journal = Journal::create(&path).expect("create");
        journal.append(&JournalRecord::Grant { job: 0 }).expect("a");
        journal.append(&done(0, 0x22)).expect("b");
        drop(journal);
        let text = std::fs::read_to_string(&path).expect("read");
        let corrupted = text.replacen("grant", "gr@nt", 1);
        std::fs::write(&path, corrupted).expect("corrupt");
        assert!(
            matches!(
                Journal::compact_file(&path),
                Err(JournalError::Corrupt { .. })
            ),
            "compaction must not launder corruption"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn invalid_done_records_are_dropped_by_compaction() {
        let records = vec![
            JournalRecord::Done {
                job: 0,
                result: vec![0x01],
                checksum: 0, // wrong: recovery would ignore it
            },
            JournalRecord::Grant { job: 0 },
        ];
        let (live, dropped) = compact_records(&records);
        assert_eq!(dropped, 1);
        assert_eq!(
            live,
            vec![
                JournalRecord::Compact {
                    kept: 1,
                    dropped: 1
                },
                JournalRecord::Grant { job: 0 },
            ]
        );
    }

    proptest::proptest! {
        /// What compaction must preserve, stated once: a compacted journal
        /// replays to the same grant log and the same results. Generated
        /// logs mix eras, invalid checksums and old `compact` markers.
        #[test]
        fn compaction_preserves_the_replay(
            log in proptest::collection::vec((0u8..7, 0u64..4, proptest::prelude::any::<u8>()), 0..40),
        ) {
            let records: Vec<JournalRecord> = log
                .into_iter()
                .map(|(kind, job, byte)| match kind {
                    0 => JournalRecord::Admit { job, name: format!("t{job}") },
                    1 => JournalRecord::Grant { job },
                    2 => JournalRecord::Stage {
                        job,
                        stage: "shuffle".into(),
                        key: format!("job{job}-shuffle-0"),
                        bytes: u64::from(byte),
                    },
                    3 => done(job, byte),
                    4 => JournalRecord::Done { job, result: vec![byte], checksum: 0 },
                    5 => JournalRecord::Recover,
                    _ => JournalRecord::Compact { kept: job, dropped: u64::from(byte) },
                })
                .collect();
            let (live, dropped) = compact_records(&records);
            let (before, after) = (replay(&records), replay(&live));
            proptest::prop_assert_eq!(after.grants, before.grants);
            proptest::prop_assert_eq!(after.done, before.done);
            proptest::prop_assert_eq!(live.len() as u64 + dropped, records.len() as u64 + 1);
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"type\":\"launch\"}",
            "{\"type\":\"grant\"}",
            "{\"type\":\"grant\",\"job\":-1}",
            "{\"type\":\"done\",\"job\":1,\"result\":\"xyz\",\"checksum\":0}",
            "{\"type\":\"grant\",\"job\":1} trailing",
            "{\"type\":\"done\",\"job\":0,\"result\":\"a\u{e9}a\",\"checksum\":1}",
            "{\"type\":\"grant\",\"job\":0,\"job\":7,\"extra\":\"x\"}",
            "{\"type\":\"done\",\"job\":0,\"result\":\"+f\",\"checksum\":1}",
        ] {
            assert!(JournalRecord::parse_line(bad).is_err(), "{bad:?}");
        }
    }

    /// `records` as journal bytes, one line each.
    fn render(records: &[JournalRecord]) -> Vec<u8> {
        records
            .iter()
            .flat_map(|rec| format!("{}\n", rec.to_line()).into_bytes())
            .collect()
    }

    #[test]
    fn non_ascii_result_bytes_are_corrupt_not_a_panic() {
        let path = test_path("non-ascii-result");
        let mut bytes = render(&[JournalRecord::Grant { job: 0 }]);
        bytes.extend_from_slice(
            "{\"type\":\"done\",\"job\":0,\"result\":\"a\u{e9}a\",\"checksum\":1}\n".as_bytes(),
        );
        bytes.extend_from_slice(&render(&[JournalRecord::Grant { job: 1 }]));
        std::fs::write(&path, &bytes).expect("write");
        match Journal::read(&path) {
            Err(JournalError::Corrupt { line, column, .. }) => {
                assert_eq!((line, column), (2, 33));
            }
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_torn_multi_byte_name_is_a_torn_tail() {
        let path = test_path("torn-utf8");
        let committed = vec![JournalRecord::Grant { job: 0 }, JournalRecord::Recover];
        let last = JournalRecord::Admit {
            job: 1,
            name: "\u{e9}lan-\u{2028}-\u{1F600}".to_string(),
        };
        let prefix = render(&committed);
        let line = last.to_line().into_bytes();
        for cut in 0..=line.len() {
            let mut bytes = prefix.clone();
            bytes.extend_from_slice(&line[..cut]);
            std::fs::write(&path, &bytes).expect("tear");
            assert_eq!(Journal::read(&path).expect("read"), committed, "cut {cut}");
            let (reopened, back) = Journal::open_append(&path).expect("reopen");
            assert_eq!(back, committed, "cut {cut}");
            reopened.append(&last).expect("append");
            let mut expected = committed.clone();
            expected.push(last.clone());
            assert_eq!(
                Journal::read(&path).expect("re-read"),
                expected,
                "cut {cut}"
            );
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// Names that exercise every escape the writer makes and chars it keeps
    /// raw, and a long hex result.
    fn awkward_records() -> Vec<JournalRecord> {
        let result: Vec<u8> = (0..=255).collect();
        let long_result = JournalRecord::Done {
            job: 9,
            checksum: fnv1a(&result),
            result,
        };
        let controls: String = ('\u{0}'..'\u{20}').collect();
        [
            "\"",
            "\\",
            &controls,
            "\u{2028}\u{2029}",
            "\u{1F600}\u{10FFFF}",
            "\u{e9}lan",
        ]
        .iter()
        .enumerate()
        .map(|(job, name)| JournalRecord::Admit {
            job: job as u64,
            name: format!("x{name}y"),
        })
        .chain([long_result])
        .collect()
    }

    /// Any char, biased towards the ones the codec treats specially.
    fn any_char(pick: u8, code: u32) -> char {
        let code = match pick % 4 {
            0 => code % 0x20,
            1 => [0x22, 0x5C, 0x2028, 0x1F600][code as usize % 4],
            2 => code % 0x80,
            _ => code % 0x11_0000,
        };
        char::from_u32(code).unwrap_or('\u{FFFD}')
    }

    proptest::proptest! {
        #[test]
        fn any_name_round_trips(
            chars in proptest::collection::vec((proptest::prelude::any::<u8>(), proptest::prelude::any::<u32>()), 0..24),
            job in proptest::prelude::any::<u64>(),
        ) {
            let name: String = chars.iter().map(|&(pick, code)| any_char(pick, code)).collect();
            for rec in [
                JournalRecord::Admit { job, name: name.clone() },
                JournalRecord::Stage { job, stage: name.clone(), key: name.clone(), bytes: job },
            ] {
                let line = rec.to_line();
                proptest::prop_assert_eq!(JournalRecord::parse_line(&line), Ok(rec), "{}", line);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        /// Whatever bytes the file holds, reading it is a result, never a
        /// panic, and what it accepts writes back to lines that read the
        /// same.
        #[test]
        fn mutated_journal_bytes_read_to_a_result(
            edits in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>(), proptest::prelude::any::<u32>()),
                1..4,
            ),
        ) {
            let mut records = sample_records();
            records.extend(awkward_records());
            let mut bytes = render(&records);
            for (kind, at, byte, code) in edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] ^= byte.max(1),
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {
                        let mut buf = [0; 4];
                        let c = any_char(byte, code).encode_utf8(&mut buf);
                        bytes.splice(at..at, c.bytes());
                    }
                }
            }
            let path = test_path("mutated");
            std::fs::write(&path, &bytes).expect("write");
            let read = Journal::read(&path);
            std::fs::remove_file(&path).expect("cleanup");
            match read {
                Ok(back) => {
                    for rec in back {
                        let line = rec.to_line();
                        proptest::prop_assert_eq!(JournalRecord::parse_line(&line), Ok(rec), "{}", line);
                    }
                }
                Err(JournalError::Corrupt { .. }) => {}
                Err(JournalError::Io(e)) => proptest::prop_assert!(false, "I/O error: {e}"),
            }
        }
    }
}
