use asj_engine::{ensure_remaining, on_host_threads, split, Dataset, Wire, WireError};
use asj_geom::Point;
use bytes::{Buf, BufMut};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

/// A record's non-spatial attribute bytes: a window into an arena that may
/// be shared with other records, and that it keeps alive as a whole. A clone
/// bumps the arena's refcount — the bytes live once however often the tuple
/// is replicated — and an empty payload has no arena, so bare records touch
/// no atomic. Reads as the `[u8]` it covers; equality, `Debug` and the wire
/// layout (u32 length + bytes, exactly `Vec<u8>`'s) are by content.
#[derive(Clone, Default)]
pub struct Payload {
    /// `Arc<Vec<u8>>`, not `Arc<[u8]>`: a thin pointer keeps the window at
    /// 16 bytes, and `From<Vec<u8>>` adopts the buffer without copying it.
    arena: Option<Arc<Vec<u8>>>,
    start: u32,
    len: u32,
}

impl Payload {
    /// `arena[start..start + len]`, checked here so every later read is in
    /// bounds.
    fn window(arena: Arc<Vec<u8>>, start: usize, len: usize) -> Self {
        assert!(start + len <= arena.len(), "payload window past its arena");
        let fit = |n: usize| u32::try_from(n).expect("payload arenas are addressed with u32s");
        Payload {
            arena: Some(arena),
            start: fit(start),
            len: fit(len),
        }
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.arena {
            Some(arena) => &arena[self.start as usize..][..self.len as usize],
            None => &[],
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl From<Vec<u8>> for Payload {
    /// Adopts `bytes` as an arena of its own (none when empty).
    #[inline]
    fn from(bytes: Vec<u8>) -> Self {
        match bytes.len() {
            0 => Payload::default(),
            len => Payload::window(Arc::new(bytes), 0, len),
        }
    }
}

impl Wire for Payload {
    #[inline]
    fn encoded_size(&self) -> usize {
        4 + self.len as usize
    }

    #[inline]
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.len);
        buf.put_slice(self);
    }

    /// One buffer per non-empty payload, as `Vec<u8>` decodes, plus its `Arc`
    /// header: the chunk a record is read back from is not kept, so there is
    /// no arena to share. Bare records — all a spilling CSV join decodes —
    /// return before any vector exists.
    #[inline]
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let len = u32::try_decode(buf)? as usize;
        if len == 0 {
            return Ok(Payload::default());
        }
        // A corrupt length prefix must not trigger a huge allocation.
        ensure_remaining(buf, len)?;
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        Ok(bytes.into())
    }
}

/// The empty attribute set of a record that carries none — every CSV row
/// the CLI reads. Zero-sized, so such a record is 24 bytes in memory and 32
/// as a shuffled `(u64, Record<NoPayload>)` row, where a [`Payload`] slot
/// costs 16 more. On the wire it is exactly an empty [`Payload`] (a `u32`
/// length of 0), so which of the two a job carries changes no byte it
/// meters, spills or checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPayload;

impl Wire for NoPayload {
    #[inline]
    fn encoded_size(&self) -> usize {
        4
    }

    #[inline]
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(0);
    }

    /// An empty payload's bytes; a non-empty one is malformed for a record
    /// type that has nowhere to keep it.
    #[inline]
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        match u32::try_decode(buf)? {
            0 => Ok(NoPayload),
            len => Err(WireError::Malformed(format!(
                "a {len}-byte payload where a payload-free record was expected"
            ))),
        }
    }
}

/// What a [`Record`] can carry besides its id and point: a [`Payload`] or
/// [`NoPayload`]. Every join is generic over it, one code path for both.
pub trait RecordPayload: Wire + Clone + Send + Sync + 'static {}

impl RecordPayload for Payload {}
impl RecordPayload for NoPayload {}

/// One spatial tuple: identifier, coordinates and the non-spatial attributes
/// that travel with it (the *tuple size factor* payload of Figs. 16–18), or
/// none at all ([`NoPayload`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Record<P = Payload> {
    pub id: u64,
    pub point: Point,
    pub payload: P,
}

impl Record {
    pub fn new(id: u64, point: Point) -> Self {
        Record::with_payload(id, point, Vec::new())
    }

    pub fn with_payload(id: u64, point: Point, bytes: Vec<u8>) -> Self {
        let payload = bytes.into();
        Record { id, point, payload }
    }
}

impl Record<NoPayload> {
    /// A record without attributes, as the CLI reads a CSV row.
    pub fn bare(id: u64, point: Point) -> Self {
        Record {
            id,
            point,
            payload: NoPayload,
        }
    }
}

impl<P> Record<P> {
    /// This record without its non-spatial attributes — what the
    /// post-processing variant of Table 5 ships through the spatial join.
    pub fn stripped(&self) -> Record<NoPayload> {
        Record::bare(self.id, self.point)
    }
}

impl<P: Wire> Wire for Record<P> {
    #[inline]
    fn encoded_size(&self) -> usize {
        8 + 8 + 8 + self.payload.encoded_size()
    }

    #[inline]
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.id);
        buf.put_f64_le(self.point.x);
        buf.put_f64_le(self.point.y);
        self.payload.encode(buf);
    }

    #[inline]
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let id = u64::try_decode(buf)?;
        let x = f64::try_decode(buf)?;
        let y = f64::try_decode(buf)?;
        let payload = P::try_decode(buf)?;
        Ok(Record {
            id,
            point: Point::new(x, y),
            payload,
        })
    }
}

/// Records whose generated payloads share one arena. A block is a contiguous
/// id range, so a map task — which owns a contiguous input range — mostly
/// bumps refcounts no other thread touches.
const ARENA_BLOCK_RECORDS: usize = 1024;

/// Largest `payload_bytes` [`to_record_partitions`] accepts: a window
/// addresses its arena with `u32`s and a block's arena holds 1024 payloads.
pub const MAX_PAYLOAD_BYTES: usize = u32::MAX as usize / ARENA_BLOCK_RECORDS;

/// One step of the payload filler's LCG.
const LCG_MUL: u64 = 6364136223846793005;

/// `JUMPS[k] = (aᵏ, Σ_{j<k} aʲ)`: the filler's state after `k` steps from
/// `s` is `aᵏ·s + Σ_{j<k} aʲ` (wrapping), so eight lanes can each advance
/// eight steps at once instead of one multiply waiting on the last.
const JUMPS: [(u64, u64); 9] = {
    let mut jumps: [(u64, u64); 9] = [(1, 0); 9];
    let mut k = 1;
    while k < 9 {
        let (a, c) = jumps[k - 1];
        jumps[k] = (
            a.wrapping_mul(LCG_MUL),
            c.wrapping_mul(LCG_MUL).wrapping_add(1),
        );
        k += 1;
    }
    jumps
};

/// Fills `out` with record `id`'s payload: pseudo-text over `a`–`p`, byte
/// `k` being the top four bits of an LCG seeded by the id after `k + 1`
/// steps. Lane `i` of eight carries the state of bytes `i, i + 8, …`.
fn fill_payload(id: u64, out: &mut [u8]) {
    let letter = |state: u64| b'a' + (state >> 60) as u8;
    let seed = id.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xA5A5;
    let mut lanes: [u64; 8] = std::array::from_fn(|i| {
        let (a, c) = JUMPS[i + 1];
        a.wrapping_mul(seed).wrapping_add(c)
    });
    let (a8, c8) = JUMPS[8];
    let mut words = out.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&lanes.map(letter));
        lanes = lanes.map(|state| state.wrapping_mul(a8).wrapping_add(c8));
    }
    for (byte, state) in words.into_remainder().iter_mut().zip(lanes) {
        *byte = letter(state);
    }
}

/// Points `0..n` as [`Record`]s with sequential ids and a deterministic
/// payload (`payload_bytes` per tuple, at most [`MAX_PAYLOAD_BYTES`]; 0 for
/// bare points), cut into `parts` input partitions by [`split`], as
/// [`Dataset::from_vec`] cuts a vector. Each partition is made from its own
/// range, `points(ids)` (`DatasetSpec::block_stream`), on one of `threads`
/// host threads.
pub fn to_record_partitions<I: ExactSizeIterator<Item = Point>>(
    n: usize,
    points: impl Fn(Range<usize>) -> I + Sync,
    payload_bytes: usize,
    parts: usize,
    threads: usize,
) -> Dataset<Record> {
    assert!(parts > 0, "need at least one partition");
    let built = on_host_threads(threads, parts, |p, _| {
        let ids = split(n, parts, p);
        Ok::<_, Infallible>(records(ids.clone(), points(ids), payload_bytes).collect())
    });
    Dataset::from_partitions(built.unwrap_or_else(|never| match never {}))
}

/// `points` as records with sequential ids and generated payloads, in one
/// vector.
pub fn to_records(points: &[Point], payload_bytes: usize) -> Vec<Record> {
    records(0..points.len(), points.iter().copied(), payload_bytes).collect()
}

/// The records with ids `ids` and points `points`, each built when it is
/// read; a payload arena covers a 1024-id block, cut where `ids` is.
fn records(
    ids: Range<usize>,
    points: impl ExactSizeIterator<Item = Point>,
    payload_bytes: usize,
) -> impl ExactSizeIterator<Item = Record> {
    assert!(
        payload_bytes <= MAX_PAYLOAD_BYTES,
        "payload too large to window"
    );
    let (first, end) = (ids.start, ids.end);
    let mut arena = None;
    ids.zip(points).map(move |(id, point)| {
        if payload_bytes > 0 && (id % ARENA_BLOCK_RECORDS == 0 || id == first) {
            let block = (id / ARENA_BLOCK_RECORDS + 1) * ARENA_BLOCK_RECORDS;
            let mut bytes = vec![0u8; (block.min(end) - id) * payload_bytes];
            for (j, out) in bytes.chunks_exact_mut(payload_bytes).enumerate() {
                fill_payload((id + j) as u64, out);
            }
            arena = Some((id, Arc::new(bytes)));
        }
        let payload = match &arena {
            Some((from, arena)) => {
                Payload::window(arena.clone(), (id - from) * payload_bytes, payload_bytes)
            }
            None => Payload::default(),
        };
        Record {
            id: id as u64,
            point,
            payload,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    /// A record whose payload is `arena[start..start + len]`, the arena
    /// shared the way [`to_records`] shares a block's.
    fn windowed(id: u64, point: Point, arena: &Arc<Vec<u8>>, start: usize, len: usize) -> Record {
        Record {
            id,
            point,
            payload: Payload::window(arena.clone(), start, len),
        }
    }

    fn encoded(r: &impl Wire) -> Vec<u8> {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        buf
    }

    #[test]
    fn wire_roundtrip() {
        let r = Record::with_payload(7, Point::new(1.5, -2.5), vec![1, 2, 3]);
        let mut buf = BytesMut::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_size());
        let back = <Record>::decode(&mut buf.freeze());
        assert_eq!(back, r);
    }

    #[test]
    fn a_window_encodes_to_the_vec_layout() {
        let arena = Arc::new(b"..abc.....".to_vec());
        let r = windowed(7, Point::new(1.5, -2.5), &arena, 2, 3);
        assert_eq!(
            encoded(&r),
            b"\x07\0\0\0\0\0\0\0\
              \0\0\0\0\0\0\xf8\x3f\
              \0\0\0\0\0\0\x04\xc0\
              \x03\0\0\0abc"
        );
        assert_eq!(
            r,
            Record::with_payload(7, Point::new(1.5, -2.5), b"abc".to_vec())
        );
        assert_eq!(format!("{:?}", r.payload), format!("{:?}", b"abc"));
    }

    #[test]
    fn encoded_size_grows_with_payload() {
        let bare = Record::new(1, Point::new(0.0, 0.0));
        let fat = Record::with_payload(1, Point::new(0.0, 0.0), vec![0; 256]);
        assert_eq!(bare.encoded_size(), 28);
        assert_eq!(fat.encoded_size(), 28 + 256);
    }

    #[test]
    fn empty_payloads_have_no_arena() {
        assert!(Record::new(1, Point::new(0.0, 0.0)).payload.arena.is_none());
        assert!(Payload::from(Vec::new()).arena.is_none());
        let arena = Arc::new(vec![1, 2, 3]);
        // An empty window still equals an arena-less payload.
        assert_eq!(Payload::window(arena, 3, 0), Payload::default());
        assert!(to_records(&[Point::new(0.0, 0.0)], 0)[0]
            .payload
            .arena
            .is_none());
        assert_eq!(std::mem::size_of::<Payload>(), 16);
    }

    #[test]
    #[should_panic(expected = "payload window past its arena")]
    fn a_window_past_its_arena_is_refused() {
        Payload::window(Arc::new(vec![1, 2, 3]), 2, 2);
    }

    #[test]
    fn truncated_record_decodes_to_error() {
        let arena = Arc::new(vec![9, 9, 1, 2, 3, 9]);
        let r = windowed(7, Point::new(1.5, -2.5), &arena, 2, 3);
        let bytes = encoded(&r);
        // Every proper prefix must error, never panic.
        for cut in 0..r.encoded_size() {
            assert!(
                <Record>::try_decode(&mut &bytes[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        assert_eq!(<Record>::try_decode(&mut &bytes[..]), Ok(r));
    }

    /// Coordinate bits worth pinning beside arbitrary patterns: a signed
    /// zero, an infinity, and NaNs carrying payload bits.
    fn coordinate_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just((-0.0f64).to_bits()),
            Just(f64::NEG_INFINITY.to_bits()),
            Just(0x7ff8_0000_dead_beef),
            Just(0xfff0_0000_0000_0001),
        ]
    }

    proptest! {
        /// A payload-free record is an empty-payload one on the wire, byte
        /// for byte and in `encoded_size`, for any id and coordinate bits;
        /// each type decodes the other's bytes (compared as bytes, since a
        /// NaN is not equal to itself).
        #[test]
        fn no_payload_is_an_empty_payload_on_the_wire(
            id in any::<u64>(),
            x in coordinate_bits(),
            y in coordinate_bits(),
        ) {
            let point = Point::new(f64::from_bits(x), f64::from_bits(y));
            let (bare, empty) = (Record::bare(id, point), Record::new(id, point));
            let bytes = encoded(&empty);
            prop_assert_eq!(encoded(&bare), bytes.clone());
            prop_assert_eq!(bare.encoded_size(), empty.encoded_size());
            prop_assert_eq!(bare.encoded_size(), bytes.len());
            let as_bare = Record::<NoPayload>::try_decode(&mut &bytes[..]);
            prop_assert_eq!(encoded(&as_bare.expect("empty payloads decode")), bytes.clone());
            let as_empty = Record::<Payload>::try_decode(&mut &encoded(&bare)[..]);
            prop_assert_eq!(encoded(&as_empty.expect("bare records decode")), bytes);
        }
    }

    /// A non-empty payload read where a payload-free record is expected is a
    /// typed decode error: on its own, inside a chunk, and in a spilled
    /// block, where it fails the reading task with a retriable spill error.
    #[test]
    fn a_non_empty_payload_does_not_decode_as_no_payload() {
        use asj_engine::{decode_records, encode_records, Block, SpillWriter, TaskError};
        let fat = Record::with_payload(7, Point::new(1.0, 2.0), vec![1, 2, 3]);
        assert!(matches!(
            Record::<NoPayload>::try_decode(&mut &encoded(&fat)[..]),
            Err(WireError::Malformed(_))
        ));
        let rows = vec![(0u64, Record::new(1, Point::new(0.0, 0.0))), (1, fat)];
        let chunk = encode_records(&rows);
        assert!(decode_records::<u64, Record<NoPayload>>(&chunk, 2).is_err());
        assert!(decode_records::<u64, Record>(&chunk, 2).is_ok());

        let mut writer = SpillWriter::create().expect("spill file");
        writer.write_chunk(0, &chunk, 2).expect("spill write");
        let segment = writer.finish().expect("seal").expect("one chunk");
        let spilled: Block<(u64, Record<NoPayload>)> = Block::Spilled {
            segment: Arc::new(segment),
            chunk: 0,
        };
        assert!(matches!(spilled.read(), Err(TaskError::Spill(_))));
    }

    proptest! {
        /// A window at any offset of a larger arena is, on the wire and to
        /// `==`, the `Vec<u8>` payload with the same content.
        #[test]
        fn windows_encode_like_owned_payloads(
            id in any::<u64>(),
            x in -1e6f64..1e6,
            y in -1e6f64..1e6,
            arena in prop::collection::vec(any::<u8>(), 2..300),
            cut in (any::<usize>(), any::<usize>()),
        ) {
            let start = 1 + cut.0 % (arena.len() - 1);
            let len = cut.1 % (arena.len() - start + 1);
            let content = arena[start..start + len].to_vec();
            let r = windowed(id, Point::new(x, y), &Arc::new(arena), start, len);

            let mut expected = Vec::new();
            expected.extend_from_slice(&id.to_le_bytes());
            expected.extend_from_slice(&x.to_le_bytes());
            expected.extend_from_slice(&y.to_le_bytes());
            expected.extend_from_slice(&(len as u32).to_le_bytes());
            expected.extend_from_slice(&content);
            let bytes = encoded(&r);
            prop_assert_eq!(&bytes, &expected);
            prop_assert_eq!(r.encoded_size(), bytes.len());

            // Equality across arenas, and decode ∘ encode = identity.
            let owned = Record::with_payload(id, Point::new(x, y), content);
            prop_assert_eq!(&r, &owned);
            prop_assert_eq!(encoded(&owned), bytes.clone());
            prop_assert_eq!(<Record>::try_decode(&mut &bytes[..]), Ok(r));
            for cut in 0..bytes.len() {
                prop_assert!(<Record>::try_decode(&mut &bytes[..cut]).is_err());
            }
        }
    }

    /// Record `id`'s payload as the filler first defined it: one LCG step
    /// per byte, each waiting on the last.
    fn per_byte_payload(id: u64, len: usize) -> Vec<u8> {
        let mut payload = Vec::with_capacity(len);
        let mut state = id.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xA5A5;
        while payload.len() < len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            payload.push(b'a' + ((state >> 60) % 26) as u8);
        }
        payload
    }

    /// `to_records` as it was before arenas: one owned buffer per record.
    fn per_record_reference(points: &[Point], payload_bytes: usize) -> Vec<Record> {
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Record::with_payload(i as u64, p, per_byte_payload(i as u64, payload_bytes))
            })
            .collect()
    }

    proptest! {
        /// Eight jump-ahead lanes write the bytes the per-byte chain does,
        /// for any id (generated ids stay below 2³², others need not) and
        /// any length, including the tail shorter than a lane word.
        #[test]
        fn jump_ahead_payload_matches_the_per_byte_lcg(
            id in prop_oneof![0u64..4096, any::<u64>()],
            len in 0usize..301,
        ) {
            let mut got = vec![0u8; len];
            fill_payload(id, &mut got);
            prop_assert_eq!(got, per_byte_payload(id, len));
        }
    }

    mod partitioned {
        use super::*;
        use asj_data::{DatasetSpec, GenKind, PAPER_BBOX};

        const KINDS: [GenKind; 4] = [
            GenKind::GaussianClusters,
            GenKind::Hydrography,
            GenKind::Parks,
            GenKind::Uniform,
        ];

        fn arena(r: &Record) -> Option<*const Vec<u8>> {
            r.payload.arena.as_ref().map(Arc::as_ptr)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// Generating straight into partitions, on any number of host
            /// threads, lays out what generating into one vector and cutting
            /// it does — ids, points, payload bytes — with one arena per
            /// 1024-id block of a partition.
            #[test]
            fn partitioned_records_match_cut_records(
                kind in 0usize..4,
                payload_bytes in prop_oneof![Just(0usize), Just(1), Just(64), Just(257)],
                n in prop_oneof![0usize..2, 1023usize..1026, 2000usize..5000],
                parts in prop_oneof![Just(1usize), Just(16), Just(97)],
                seed in any::<u64>(),
            ) {
                let spec = DatasetSpec {
                    name: "t",
                    kind: KINDS[kind],
                    cardinality: n,
                    seed,
                    bbox: PAPER_BBOX,
                    sigma_scale: 1.0,
                };
                let want = Dataset::from_vec(to_records(&spec.points(), payload_bytes), parts);
                for threads in [1, 2, 4] {
                    let got = to_record_partitions(n, |ids| spec.block_stream(ids), payload_bytes, parts, threads);
                    prop_assert_eq!(got.partitions(), want.partitions());

                    let mut id = 0;
                    for part in got.partitions() {
                        for (i, r) in part.iter().enumerate() {
                            prop_assert_eq!(r.id, id);
                            // The record opening this block in this partition.
                            let opens = i.saturating_sub(r.id as usize % ARENA_BLOCK_RECORDS);
                            prop_assert_eq!(arena(r), arena(&part[opens]));
                            prop_assert_eq!(arena(r).is_some(), payload_bytes > 0);
                            if payload_bytes > 0 && i > 0 && r.id as usize % ARENA_BLOCK_RECORDS == 0 {
                                prop_assert_ne!(arena(r), arena(&part[i - 1]));
                            }
                            id += 1;
                        }
                    }
                    prop_assert_eq!(id as usize, n);
                }
            }
        }
    }

    #[test]
    fn to_records_matches_the_per_record_generator_across_blocks() {
        let block = ARENA_BLOCK_RECORDS;
        for n in [0, 1, block - 1, block, block + 1, 2 * block + 1] {
            let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64, -(i as f64))).collect();
            for payload_bytes in [0, 1, 32, 257] {
                let got = to_records(&pts, payload_bytes);
                let want = per_record_reference(&pts, payload_bytes);
                assert_eq!(got, want, "n={n} payload={payload_bytes}");
                let bytes = |recs: &[Record]| recs.iter().flat_map(encoded).collect::<Vec<u8>>();
                assert_eq!(bytes(&got), bytes(&want), "n={n} payload={payload_bytes}");
            }
        }
    }

    #[test]
    fn to_records_shares_one_arena_per_block() {
        let pts = vec![Point::new(0.0, 0.0); ARENA_BLOCK_RECORDS + 1];
        let recs = to_records(&pts, 8);
        let arena = |r: &Record| Arc::as_ptr(r.payload.arena.as_ref().expect("payload has bytes"));
        assert_eq!(arena(&recs[0]), arena(&recs[ARENA_BLOCK_RECORDS - 1]));
        assert_ne!(arena(&recs[0]), arena(&recs[ARENA_BLOCK_RECORDS]));
        assert_eq!(recs[1].payload.start, 8);
        // The largest payload still places a block's last window below 2³².
        assert!(MAX_PAYLOAD_BYTES * ARENA_BLOCK_RECORDS <= u32::MAX as usize);
        assert!((MAX_PAYLOAD_BYTES + 1) * ARENA_BLOCK_RECORDS > u32::MAX as usize);
    }

    #[test]
    fn to_records_assigns_sequential_ids_and_payload() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let recs = to_records(&pts, 16);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, 0);
        assert_eq!(recs[1].id, 1);
        assert_eq!(recs[0].payload.len(), 16);
        assert_ne!(recs[0].payload, recs[1].payload);
        // Deterministic.
        assert_eq!(to_records(&pts, 16), recs);
    }

    #[test]
    fn stripped_drops_payload_only() {
        let r = Record::with_payload(9, Point::new(2.0, 3.0), vec![1; 64]);
        let s = r.stripped();
        assert_eq!(s, Record::bare(9, r.point));
        assert_eq!(encoded(&s), encoded(&Record::new(9, r.point)));
    }
}
