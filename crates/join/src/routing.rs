//! Routing checkpoints: what a shuffle of a generated input saves.
//!
//! A generated input ([`JoinInput::generated`](crate::JoinInput::generated))
//! can always be made again, and a generated record's id says where: record
//! `id` is row `id - split(n, parts, p).start` of input partition `p`. So
//! the checkpoint of a shuffle that reads one keeps, per target partition,
//! each row's key and record id in block order — 16 bytes a row, whatever
//! the payload — and its manifest names the recipe (n, payload bytes,
//! partition count). A load makes each source partition it needs once, one
//! payload arena per partition as the map task makes it, and gathers the
//! rows by id: the restored partition holds the rows the map tasks wrote, in
//! their order, every replica of a record sharing the record's arena.

use asj_engine::{split, Codec, ShuffledPartition};
use std::sync::{Arc, OnceLock};

/// Bytes of one row of a routing chunk: its key and its record's id.
const ROW: u64 = 16;

/// A generated input's recipe, as a routing checkpoint decodes against it:
/// input partition `p` of `parts` is the records with ids
/// [`split`]`(n, parts, p)` that `make(p)` returns, `id` reads a record's
/// id, and each record carries `payload_bytes`.
pub(crate) struct Remake<T> {
    pub n: usize,
    pub payload_bytes: u64,
    pub parts: usize,
    pub make: Arc<dyn Fn(usize) -> (Vec<T>, u64) + Send + Sync>,
    pub id: fn(&T) -> u64,
}

impl<T: Clone + Send + Sync> Remake<T> {
    /// The checkpoint codec of a shuffle of this input keyed by `u64`s.
    pub(crate) fn codec<'a>(&self) -> Codec<'a, ShuffledPartition<u64, T>>
    where
        T: asj_engine::Wire + 'a,
    {
        let (n, parts, id) = (self.n, self.parts, self.id);
        let len = |part: &ShuffledPartition<u64, T>| ROW * part.len() as u64;
        let encode = move |part: &ShuffledPartition<u64, T>, buf: &mut Vec<u8>| {
            // A block that cannot be read leaves the chunk short, which
            // fails the save.
            if let Ok(blocks) = part.fetch() {
                for (key, row) in blocks.iter().flat_map(|block| block.iter()) {
                    buf.extend_from_slice(&key.to_le_bytes());
                    buf.extend_from_slice(&id(row).to_le_bytes());
                }
            }
            part.len() as u64
        };
        let make = Arc::clone(&self.make);
        let made: Vec<OnceLock<Vec<T>>> = (0..parts).map(|_| OnceLock::new()).collect();
        let decode = move |bytes: &[u8], records: u64| {
            // `records` is not covered by the checksum.
            if Some(bytes.len() as u64) != records.checked_mul(ROW) {
                return None;
            }
            let mut rows = Vec::with_capacity(records as usize);
            for row in bytes.chunks_exact(ROW as usize) {
                let (key, rid) = row.split_at(8);
                let key = u64::from_le_bytes(key.try_into().ok()?);
                let rid = usize::try_from(u64::from_le_bytes(rid.try_into().ok()?)).ok()?;
                if rid >= n {
                    return None;
                }
                let (p, i) = locate(n, parts, rid);
                let part = made[p].get_or_init(|| make(p).0);
                rows.push((key, part.get(i)?.clone()));
            }
            Some(ShuffledPartition::of_rows(rows))
        };
        let recipe = format!("{n}:{}:{parts}", self.payload_bytes);
        Codec::new(len, encode, decode).with_recipe(recipe)
    }
}

/// The input partition of `n` records cut into `parts` that holds record
/// `id < n`, and the record's index there: the inverse of [`split`].
pub(crate) fn locate(n: usize, parts: usize, id: usize) -> (usize, usize) {
    let (base, extra) = (n / parts, n % parts);
    // The first `extra` partitions are one record longer.
    let long = extra * (base + 1);
    let p = if id < long {
        id / (base + 1)
    } else {
        extra + (id - long) / base
    };
    (p, id - split(n, parts, p).start)
}
