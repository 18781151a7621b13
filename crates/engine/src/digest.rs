//! The workspace's hashes, in one place: FNV-1a for small things, XXH64 for
//! checkpoint chunks, splitmix64 as the one 64-bit mixer, and the
//! order-independent digest of a join's result pairs built on it.

use crate::wire::{ensure_remaining, Wire, WireError};
use bytes::{Buf, BufMut};
use std::hash::Hasher;

/// Streaming FNV-1a 64 — the checksum of small things: journal lines and
/// `done` records, the fault-injection stage hash, the bench's partition
/// digests. Integers are fed little-endian so digests are
/// platform-stable. Checkpoint chunks, the one bulk payload, use XXH64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

// `#[inline]`: the bench digests hash millions of words from other crates;
// without it every word is a call into this one.
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

const XXH_PRIME: [u64; 5] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
    0x27D4_EB2F_1656_67C5,
];

#[inline]
fn xxh_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(XXH_PRIME[1]))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME[0])
}

#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// XXH64 with seed 0 — the per-chunk checksum of checkpoint segments. Four
/// independent 8-byte lanes keep it at memory speed where byte-wise FNV-1a
/// is bound by one multiply per byte. (Word-wise FNV would not do: its
/// multiply only carries upward, so two flips of bit 63 cancel; here every
/// word is rotated and multiplied twice before it meets the next.)
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let [p1, p2, p3, p4, p5] = XXH_PRIME;
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [p1.wrapping_add(p2), p2, 0, 0u64.wrapping_sub(p1)];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let mixed = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        lanes.iter().fold(mixed, |h, &lane| {
            (h ^ xxh_round(0, lane)).wrapping_mul(p1).wrapping_add(p4)
        })
    } else {
        p5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(p1)
            .wrapping_add(p4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let (half, rest) = tail.split_at(4);
        let half = u32::from_le_bytes(half.try_into().expect("a 4-byte word"));
        h = (h ^ u64::from(half).wrapping_mul(p1))
            .rotate_left(23)
            .wrapping_mul(p2)
            .wrapping_add(p3);
        tail = rest;
    }
    for &byte in tail {
        h = (h ^ u64::from(byte).wrapping_mul(p5))
            .rotate_left(11)
            .wrapping_mul(p1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(p2);
    h = (h ^ (h >> 29)).wrapping_mul(p3);
    h ^ (h >> 32)
}

/// splitmix64's finalizer: a tiny, high-quality 64-bit mixer (fault
/// injection's hash, and every result pair's share of a [`PairDigest`]).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One result pair `(r, s)` mixed into 64 bits: both ids in full, so ids of
/// any width digest alike, and `(r, s)` and `(s, r)` mix apart.
#[inline]
pub fn pair_digest(r: u64, s: u64) -> u64 {
    splitmix64(splitmix64(r) ^ s)
}

/// An order-independent digest of a multiset of result pairs: how many,
/// and the wrapping sum of their [`pair_digest`]s. A partition folds its
/// own pairs as it finds them; the driver adds the partitions' digests. No
/// pair is kept and nothing is sorted, so every chunking and every
/// partition order gives the same digest, while a dropped, duplicated or
/// changed pair moves it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairDigest {
    pub count: u64,
    pub sum: u64,
}

impl PairDigest {
    /// Folds in one pair.
    #[inline]
    pub fn add(&mut self, r: u64, s: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(pair_digest(r, s));
    }

    /// Folds in another part's pairs.
    pub fn merge(&mut self, other: &PairDigest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The digest as one word: the count and the sum, mixed.
    pub fn value(&self) -> u64 {
        splitmix64(self.sum ^ splitmix64(self.count))
    }
}

/// Two little-endian `u64`s, count then sum: a checkpointed join partition
/// persists this instead of its pairs.
impl Wire for PairDigest {
    fn encoded_size(&self) -> usize {
        16
    }

    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.count);
        buf.put_u64_le(self.sum);
    }

    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        ensure_remaining(buf, 16)?;
        Ok(PairDigest {
            count: buf.get_u64_le(),
            sum: buf.get_u64_le(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// XXH64 (seed 0) transcribed from the specification with an explicit
    /// cursor: no iterators, no shared helpers.
    fn xxh64_by_the_book(data: &[u8]) -> u64 {
        const P1: u64 = 11400714785074694791;
        const P2: u64 = 14029467366897019727;
        const P3: u64 = 1609587929392839161;
        const P4: u64 = 9650029242287828579;
        const P5: u64 = 2870177450012600261;
        let word = |at: usize| {
            let mut w = 0u64;
            for i in 0..8 {
                w |= u64::from(data[at + i]) << (8 * i);
            }
            w
        };
        let round = |acc: u64, w: u64| {
            acc.wrapping_add(w.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let (n, mut at) = (data.len(), 0);
        let mut h = P5;
        if n >= 32 {
            let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
            while at + 32 <= n {
                for (i, lane) in v.iter_mut().enumerate() {
                    *lane = round(*lane, word(at + 8 * i));
                }
                at += 32;
            }
            h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
        }
        h = h.wrapping_add(n as u64);
        while at + 8 <= n {
            h = (h ^ round(0, word(at)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            at += 8;
        }
        if at + 4 <= n {
            let half = (0..4).fold(0u64, |w, i| w | u64::from(data[at + i]) << (8 * i));
            h = (h ^ half.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            at += 4;
        }
        while at < n {
            h = (h ^ u64::from(data[at]).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
            at += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// Every lane and tail boundary (4, 8, 32, 64 and their neighbours).
    #[test]
    fn xxh64_agrees_with_the_specification_at_every_length() {
        let data: Vec<u8> = (0..70u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                xxh64(&data[..len]),
                xxh64_by_the_book(&data[..len]),
                "length {len}"
            );
        }
    }

    proptest! {
        /// The damage a checksum is there to catch, including the two that
        /// defeat word-wise FNV (paired top-bit flips) and any plain sum
        /// (reordered words).
        #[test]
        fn xxh64_notices_flips_swaps_and_truncation(
            data in prop::collection::vec(any::<u8>(), 16..200),
            at in any::<usize>(),
            other in any::<usize>(),
        ) {
            let digest = xxh64(&data);
            prop_assert_eq!(digest, xxh64_by_the_book(&data));

            let mut flipped = data.clone();
            flipped[at % data.len()] ^= 1 << (other % 8);
            prop_assert!(xxh64(&flipped) != digest, "one flipped bit");

            let words = data.len() / 8;
            let (a, b) = (at % words, other % words);
            if a != b {
                let mut top = data.clone();
                top[8 * a + 7] ^= 0x80;
                top[8 * b + 7] ^= 0x80;
                prop_assert!(xxh64(&top) != digest, "bit 63 of two words");

                let mut swapped = data.clone();
                for i in 0..8 {
                    swapped.swap(8 * a + i, 8 * b + i);
                }
                if swapped != data {
                    prop_assert!(xxh64(&swapped) != digest, "two words swapped");
                }
            }

            prop_assert!(xxh64(&data[..at % data.len()]) != digest, "truncation");
        }
    }

    proptest! {
        /// Any order and any cut into parts digest alike; a dropped pair,
        /// a duplicated pair and a changed id each move the digest.
        #[test]
        fn pair_digest_is_a_multiset_hash(
            pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..100),
            cut in any::<usize>(),
            at in any::<usize>(),
            bit in 0u32..64,
        ) {
            let fold = |pairs: &[(u64, u64)]| {
                let mut d = PairDigest::default();
                pairs.iter().for_each(|&(r, s)| d.add(r, s));
                d
            };
            let whole = fold(&pairs);
            let (a, b) = pairs.split_at(cut % (pairs.len() + 1));
            let mut parts = fold(b);
            parts.merge(&fold(a));
            prop_assert_eq!(parts, whole);
            let mut reversed = pairs.clone();
            reversed.reverse();
            prop_assert_eq!(fold(&reversed).value(), whole.value());

            let i = at % pairs.len();
            let mut dropped = pairs.clone();
            dropped.remove(i);
            prop_assert!(fold(&dropped).value() != whole.value(), "dropped pair");
            let mut duplicated = pairs.clone();
            duplicated.push(pairs[i]);
            prop_assert!(fold(&duplicated).value() != whole.value(), "duplicated pair");
            let mut changed = pairs.clone();
            changed[i].1 ^= 1 << bit;
            prop_assert!(fold(&changed).value() != whole.value(), "changed id");
        }
    }

    #[test]
    fn pair_digest_round_trips_over_the_wire() {
        let mut d = PairDigest::default();
        d.add(1, 2);
        d.add(u64::MAX, 0);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        assert_eq!(buf.len(), d.encoded_size());
        assert_eq!(PairDigest::try_decode(&mut buf.as_slice()), Ok(d));
        assert!(PairDigest::try_decode(&mut &buf[..15]).is_err());
    }
}
