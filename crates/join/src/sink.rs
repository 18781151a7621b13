//! Where a join's result pairs go: counted, digested, written to a file or
//! collected — decided by the caller, and done inside the task that finds
//! them, so no pair waits on the driver unless the caller asked for them.

use crate::{JoinOutput, Pairs};
use asj_engine::digest::PairDigest;
use asj_engine::{Wire, WireError};
use bytes::{Buf, BufMut};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Where a join's result pairs `(r.id, s.id)` go. Each partition's task
/// hands its pairs to the sink as the kernel finds them; the driver sees
/// only what the pool commits, so a failed, killed or losing speculative
/// attempt never reaches the answer.
#[derive(Debug, Clone, Default)]
pub enum PairSink {
    /// Count them: [`JoinOutput::result_count`] and nothing else.
    Count,
    /// Fold them into [`JoinOutput::digest`], one [`PairDigest`] per
    /// partition, added up on the driver. No pair is kept.
    Digest,
    /// Write them to a [`PairFile`] as `r,s` lines, in partition order:
    /// each task formats its own pairs, and an ordered window writes the
    /// committed partitions' lines as soon as every partition before them
    /// is written.
    File(PairFile),
    /// Keep them in [`JoinOutput::pairs`], one chunk per partition.
    #[default]
    Collect,
}

/// A partition's pairs on their way to the sink. The kernels call
/// [`Emitter::emit`] for each hit; a `Count` emitter keeps nothing, and the
/// bodies pass the kernels a no-op callback for it, so counting does no
/// per-pair work.
pub(crate) enum Emitter {
    Count,
    Digest(PairDigest),
    Lines(Vec<u8>),
    Pairs(Vec<(u64, u64)>),
}

impl Emitter {
    pub(crate) fn new(sink: &PairSink) -> Emitter {
        match sink {
            PairSink::Count => Emitter::Count,
            PairSink::Digest => Emitter::Digest(PairDigest::default()),
            PairSink::File(_) => Emitter::Lines(Vec::new()),
            PairSink::Collect => Emitter::Pairs(Vec::new()),
        }
    }

    /// Whether [`Emitter::emit`] does anything.
    pub(crate) fn keeps(&self) -> bool {
        !matches!(self, Emitter::Count)
    }

    #[inline]
    pub(crate) fn emit(&mut self, r: u64, s: u64) {
        match self {
            Emitter::Count => {}
            Emitter::Digest(digest) => digest.add(r, s),
            Emitter::Lines(lines) => push_pair_line(lines, r, s),
            Emitter::Pairs(pairs) => pairs.push((r, s)),
        }
    }

    /// The partition's collected pairs (`Collect` only) and what the other
    /// sinks take from it.
    pub(crate) fn finish(self) -> (Vec<(u64, u64)>, SinkPart) {
        let mut part = SinkPart::default();
        let pairs = match self {
            Emitter::Count => Vec::new(),
            Emitter::Digest(digest) => {
                part.digest = digest;
                Vec::new()
            }
            Emitter::Lines(lines) => {
                part.lines = lines;
                Vec::new()
            }
            Emitter::Pairs(mut pairs) => {
                pairs.shrink_to_fit();
                pairs
            }
        };
        (pairs, part)
    }
}

/// What one partition hands a `Digest` or `File` sink. A checkpointed join
/// stage persists it with the partition's tally: the digest, not the pairs.
#[derive(Debug, Default)]
pub(crate) struct SinkPart {
    pub digest: PairDigest,
    /// The partition's `r,s` lines, until the ordered window writes them.
    pub lines: Vec<u8>,
}

impl Wire for SinkPart {
    fn encoded_size(&self) -> usize {
        self.digest.encoded_size() + self.lines.encoded_size()
    }

    fn encode(&self, buf: &mut impl BufMut) {
        self.digest.encode(buf);
        self.lines.encode(buf);
    }

    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(SinkPart {
            digest: PairDigest::try_decode(buf)?,
            lines: Vec::try_decode(buf)?,
        })
    }
}

/// One partition's output of a stage that feeds a sink: the collected
/// pairs, and the partition's own accumulator beside its [`SinkPart`].
pub(crate) type SinkOutput<A> = (Vec<(u64, u64)>, (A, SinkPart));

impl PairSink {
    /// The commit side of a stage feeding this sink: for `File`, the ordered
    /// window; for every other sink, nothing (the parts stay in the stage's
    /// output for [`PairSink::gather`]).
    pub(crate) fn window(&self) -> Window<'_> {
        Window {
            file: match self {
                PairSink::File(file) => Some(file),
                _ => None,
            },
            pending: Mutex::new((0, BTreeMap::new())),
        }
    }

    /// Folds a sink-fed stage's committed partitions into `out`, in
    /// partition order: the collected chunks into `out.pairs`, the digests
    /// into `out.digest`. Returns the partitions' accumulators.
    pub(crate) fn gather<A>(&self, parts: Vec<SinkOutput<A>>, out: &mut JoinOutput) -> Vec<A> {
        let mut chunks = Vec::with_capacity(parts.len());
        let mut accs = Vec::with_capacity(parts.len());
        for (pairs, (acc, part)) in parts {
            out.digest.merge(&part.digest);
            debug_assert!(part.lines.is_empty(), "the window took every line");
            chunks.push(pairs);
            accs.push(acc);
        }
        if matches!(self, PairSink::Collect) {
            out.pairs = Pairs::from_chunks(chunks);
        }
        accs
    }

    /// Hands pairs the driver already holds to this sink, in order — for a
    /// variant whose final result is an intermediate join's collected pairs.
    pub(crate) fn take(&self, pairs: Pairs, out: &mut JoinOutput) {
        match self {
            PairSink::Count => {}
            PairSink::Digest => pairs.iter().for_each(|&(r, s)| out.digest.add(r, s)),
            PairSink::File(file) => {
                let mut lines = Vec::new();
                for chunk in pairs.chunks() {
                    chunk
                        .iter()
                        .for_each(|&(r, s)| push_pair_line(&mut lines, r, s));
                    file.write(&lines);
                    lines.clear();
                }
            }
            PairSink::Collect => out.pairs = pairs,
        }
    }
}

/// The `File` sink's ordered-commit window over one stage: partition `i`'s
/// lines are written once partitions `0..i` are. It holds the lines of the
/// partitions that committed after the lowest one not yet committed —
/// under a retry of an early partition, that can be the rest of the output.
pub(crate) struct Window<'a> {
    file: Option<&'a PairFile>,
    /// The next partition to write, and the committed ones waiting for it.
    pending: Mutex<(usize, BTreeMap<usize, Vec<u8>>)>,
}

impl Window<'_> {
    /// The stage's commit hook: takes a committed partition's lines.
    pub(crate) fn commit<A>(&self, idx: usize, part: &mut SinkOutput<A>) {
        let Some(file) = self.file else { return };
        let lines = std::mem::take(&mut (part.1).1.lines);
        let mut pending = self.pending.lock().expect("pair window poisoned");
        let (next, held) = &mut *pending;
        if idx != *next {
            held.insert(idx, lines);
            return;
        }
        file.write(&lines);
        drop(lines);
        *next += 1;
        while let Some(lines) = held.remove(next) {
            file.write(&lines);
            *next += 1;
        }
    }
}

/// The file a `File` sink writes: created as a hidden sibling of its path,
/// and renamed onto the path by [`PairFile::publish`] once the join is
/// done. A join that fails, or a `PairFile` dropped unpublished, leaves the
/// path as it was and removes the sibling.
#[derive(Clone)]
pub struct PairFile(Arc<FileState>);

struct FileState {
    path: PathBuf,
    temp: PathBuf,
    file: File,
    /// The first failed write, as its kind and text; later writes are
    /// skipped, and [`PairFile::publish`] refuses for good.
    error: Mutex<Option<(io::ErrorKind, String)>>,
    published: AtomicBool,
}

impl PairFile {
    /// Creates the sibling file `path`'s pairs go to. Fails as creating
    /// `path` itself would where that is a directory or its directory is
    /// missing.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<PairFile> {
        let path = path.into();
        if path.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::IsADirectory,
                "Is a directory",
            ));
        }
        let Some(name) = path.file_name() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not a file name",
            ));
        };
        let mut temp_name = std::ffi::OsString::from(".");
        temp_name.push(name);
        temp_name.push(format!(".{}.tmp", std::process::id()));
        let temp = path.with_file_name(temp_name);
        let file = File::create(&temp)?;
        Ok(PairFile(Arc::new(FileState {
            path,
            temp,
            file,
            error: Mutex::new(None),
            published: AtomicBool::new(false),
        })))
    }

    /// The path the pairs end up at.
    pub fn path(&self) -> &Path {
        &self.0.path
    }

    fn write(&self, bytes: &[u8]) {
        let mut error = self.0.error.lock().expect("pair file poisoned");
        if error.is_none() {
            if let Err(e) = (&self.0.file).write_all(bytes) {
                *error = Some((e.kind(), e.to_string()));
            }
        }
    }

    /// Publishes the written pairs at [`PairFile::path`], replacing what was
    /// there; reports the first failed write instead, if any.
    pub fn publish(&self) -> io::Result<()> {
        if let Some((kind, text)) = &*self.0.error.lock().expect("pair file poisoned") {
            return Err(io::Error::new(*kind, text.clone()));
        }
        std::fs::rename(&self.0.temp, &self.0.path)?;
        self.0.published.store(true, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for FileState {
    fn drop(&mut self) {
        if !self.published.load(Ordering::Relaxed) {
            let _ = std::fs::remove_file(&self.temp);
        }
    }
}

impl fmt::Debug for PairFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PairFile").field(&self.0.path).finish()
    }
}

/// `"00"` to `"99"`: the decimal writer below emits two digits per division.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Room for one `a,b\n` line: a `u64` has at most 20 digits.
const PAIR_LINE: usize = 20 + 1 + 20 + 1;

/// Writes `n` in decimal, as `{n}` formats it, so that it ends right before
/// `line[end]`; returns the index of its first digit.
fn decimal_before(line: &mut [u8; PAIR_LINE], mut end: usize, mut n: u64) -> usize {
    while n >= 100 {
        end -= 2;
        line[end..end + 2].copy_from_slice(&DIGIT_PAIRS[(n % 100) as usize]);
        n /= 100;
    }
    if n >= 10 {
        end -= 2;
        line[end..end + 2].copy_from_slice(&DIGIT_PAIRS[n as usize]);
    } else {
        end -= 1;
        line[end] = b'0' + n as u8;
    }
    end
}

/// Appends the line `a,b\n`, formatted by hand: a million lines through
/// `fmt` cost more than the join that found them.
#[inline]
pub(crate) fn push_pair_line(out: &mut Vec<u8>, a: u64, b: u64) {
    let mut line = [b'\n'; PAIR_LINE];
    let comma = decimal_before(&mut line, PAIR_LINE - 1, b) - 1;
    line[comma] = b',';
    let start = decimal_before(&mut line, comma, a);
    out.extend_from_slice(&line[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_lines_are_what_fmt_writes() {
        let mut pairs = vec![(0u64, 0u64), (u64::MAX, 9), (10, 99), (100, 1)];
        pairs.extend((0..20_000u64).map(|i| (i * 7_919, u64::MAX / (i + 1))));
        let mut got = Vec::new();
        pairs
            .iter()
            .for_each(|&(a, b)| push_pair_line(&mut got, a, b));
        let want: String = pairs.iter().map(|(a, b)| format!("{a},{b}\n")).collect();
        assert_eq!(String::from_utf8(got).expect("ascii"), want);
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asj-sink-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Partitions committed in any order are written in partition order.
    #[test]
    fn the_window_writes_in_partition_order() {
        let dir = scratch("window");
        let path = dir.join("pairs.csv");
        let file = PairFile::create(&path).expect("create");
        let sink = PairSink::File(file.clone());
        let window = sink.window();
        for idx in [2usize, 0, 3, 1] {
            let mut lines = Vec::new();
            push_pair_line(&mut lines, idx as u64, 7);
            let part = SinkPart {
                lines,
                ..SinkPart::default()
            };
            let mut out: SinkOutput<()> = (Vec::new(), ((), part));
            window.commit(idx, &mut out);
            assert!((out.1).1.lines.is_empty(), "the window took the lines");
        }
        assert!(!path.exists(), "nothing at the path before publish");
        file.publish().expect("publish");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, "0,7\n1,7\n2,7\n3,7\n");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// An unpublished file leaves the path as it was and no sibling behind.
    #[test]
    fn a_dropped_file_leaves_no_trace() {
        let dir = scratch("drop");
        let path = dir.join("pairs.csv");
        std::fs::write(&path, "1,2\n").expect("write");
        let file = PairFile::create(&path).expect("create");
        file.write(b"3,4\n");
        drop(file);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "1,2\n");
        let names: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
        assert_eq!(names.len(), 1, "only the old file is left");
        let err = PairFile::create(&dir).expect_err("a directory");
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
