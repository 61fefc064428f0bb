//! The build side of the star-join operators: a key index built once per
//! join from the (small) build column, probed one decoded chunk at a time.
//!
//! The index picks its form from the data alone:
//!
//! * **dense** — when the build's key range `max − min + 1` is small
//!   relative to its row count, the index is a table over `[min, max]`
//!   addressed by `key − min`: a bitmap for the semi-join ([`KeySet`]), a
//!   `head`/`next` position table for the join ([`KeyPositions`]).  The SSB
//!   dimension keys are dense integer domains (`c_custkey`, `s_suppkey`,
//!   `p_partkey` are `1..=rows`; `d_datekey` spans about 61 k values for
//!   2 556 keys), in line with the paper's per-domain dictionaries
//!   (Section 3.1).  A probe value outside the range wraps past the table
//!   in the unsigned subtraction and misses without a separate range test.
//! * **sparse** — otherwise, a std hash table keyed by value.
//!
//! The rule keeps memory O(build): the dense table may take at most 16
//! bytes per build row (about what a hash table spends per entry) plus a
//! fixed 512 KiB ([`dense_span_limit`]).  It depends only
//! on the build column's observed key range and row count, never on a
//! setting, so every execution strategy builds the same index.

use std::collections::{HashMap, HashSet};

use morph_storage::Column;

/// Bytes per build row a dense table may use.
const DENSE_BYTES_PER_ROW: u64 = 16;

/// Bytes a dense table may use on top of [`DENSE_BYTES_PER_ROW`] per row,
/// so small builds over a moderately wide domain still get a table.
const DENSE_FLOOR_BYTES: u64 = 512 << 10;

/// Marks the end of a `head`/`next` chain.
const NONE: u64 = u64::MAX;

/// The largest key range `max − min + 1` a dense table of `slot_bits`-bit
/// slots may cover for a build of `rows` rows.
pub fn dense_span_limit(rows: usize, slot_bits: u64) -> u64 {
    DENSE_BYTES_PER_ROW
        .saturating_mul(rows as u64)
        .saturating_add(DENSE_FLOOR_BYTES)
        .saturating_mul(8)
        / slot_bits
}

/// `(min, span)` of `keys` when a dense table of `slot_bits`-bit slots
/// stays within [`dense_span_limit`]; an empty build is dense with an
/// empty table.
fn dense_range(keys: &[u64], slot_bits: u64) -> Option<(u64, usize)> {
    let (Some(&min), Some(&max)) = (keys.iter().min(), keys.iter().max()) else {
        return Some((0, 0));
    };
    // `max - min < limit` is `max - min + 1 <= limit` without overflowing
    // on the full `0..=u64::MAX` domain.
    if max - min >= dense_span_limit(keys.len(), slot_bits) {
        return None;
    }
    usize::try_from(max - min).ok().map(|d| (min, d + 1))
}

/// Decode the build column, checkpointing once per chunk like every other
/// operator loop.
fn collect_keys(build: &Column) -> Vec<u64> {
    let mut keys = Vec::with_capacity(build.logical_len());
    build.for_each_chunk(&mut |chunk| {
        crate::govern::checkpoint_chunk();
        keys.extend_from_slice(chunk);
    });
    keys
}

/// The offset of `value` in a dense table starting at `min`; values below
/// `min` wrap to huge offsets and miss the table.
#[inline(always)]
fn offset(value: u64, min: u64) -> usize {
    usize::try_from(value.wrapping_sub(min)).unwrap_or(usize::MAX)
}

/// The build keys, in dense or sparse form.
#[derive(Debug, Clone)]
enum Members {
    /// Bit `key − min` of `bits` is set iff `key` is a build key; bits
    /// past the key range are zero.
    Dense { min: u64, bits: Vec<u64> },
    /// The build keys in a hash set.
    Sparse(HashSet<u64>),
}

/// Semi-join build side: the set of build keys.
#[derive(Debug, Clone)]
pub struct KeySet {
    members: Members,
}

impl KeySet {
    /// Build the set of `build`'s values.
    pub fn build(build: &Column) -> KeySet {
        let keys = collect_keys(build);
        let members = match dense_range(&keys, 1) {
            Some((min, span)) => {
                let mut bits = vec![0u64; span.div_ceil(64)];
                for &key in &keys {
                    let o = offset(key, min);
                    bits[o / 64] |= 1 << (o % 64);
                }
                Members::Dense { min, bits }
            }
            None => Members::Sparse(keys.into_iter().collect()),
        };
        KeySet { members }
    }

    /// Whether the dense form was chosen.
    pub fn is_dense(&self) -> bool {
        matches!(self.members, Members::Dense { .. })
    }

    /// The semi-join core: append to `out` the positions `start + i` of the
    /// values `chunk[i]` that are build keys.
    pub fn filter_chunk(&self, chunk: &[u64], start: u64, out: &mut Vec<u64>) {
        match &self.members {
            Members::Dense { min, bits } => filter_into(chunk, start, out, |value| {
                let o = offset(value, *min);
                bits.get(o / 64)
                    .is_some_and(|word| (word >> (o % 64)) & 1 != 0)
            }),
            Members::Sparse(set) => filter_into(chunk, start, out, |value| set.contains(&value)),
        }
    }
}

/// Append the positions of the members of `chunk` to `out` without a
/// data-dependent branch: every position is written, and the write cursor
/// advances only on a hit.
#[inline(always)]
fn filter_into(chunk: &[u64], start: u64, out: &mut Vec<u64>, member: impl Fn(u64) -> bool) {
    let base = out.len();
    out.resize(base + chunk.len(), 0);
    let dst = &mut out[base..];
    let mut n = 0;
    for (i, &value) in chunk.iter().enumerate() {
        dst[n] = start + i as u64;
        n += usize::from(member(value));
    }
    out.truncate(base + n);
}

/// The first build position of every key, in dense or sparse form.
#[derive(Debug, Clone)]
enum Heads {
    /// `head[key − min]` is the first position of `key`, or [`NONE`].
    Dense { min: u64, head: Vec<u64> },
    /// Key to first position.
    Sparse(HashMap<u64, u64>),
}

/// Join build side: every build key with its positions in the build
/// column, as chains through `next` in ascending build order.
#[derive(Debug, Clone)]
pub struct KeyPositions {
    heads: Heads,
    /// `next[p]` is the next build position holding the same key as `p`,
    /// or [`NONE`].
    next: Vec<u64>,
}

impl KeyPositions {
    /// Index the positions of `build`'s values.
    pub fn build(build: &Column) -> KeyPositions {
        let keys = collect_keys(build);
        let mut next = vec![NONE; keys.len()];
        // `swap(key, pos)` makes `pos` the head of `key`'s chain and returns
        // the previous head; linking in descending position order leaves
        // every chain ascending.
        let mut link = |swap: &mut dyn FnMut(u64, u64) -> u64| {
            for (pos, &key) in keys.iter().enumerate().rev() {
                next[pos] = swap(key, pos as u64);
            }
        };
        let heads = match dense_range(&keys, 64) {
            Some((min, span)) => {
                let mut head = vec![NONE; span];
                link(&mut |key, pos| std::mem::replace(&mut head[offset(key, min)], pos));
                Heads::Dense { min, head }
            }
            None => {
                let mut head = HashMap::with_capacity(keys.len());
                link(&mut |key, pos| head.insert(key, pos).unwrap_or(NONE));
                Heads::Sparse(head)
            }
        };
        KeyPositions { heads, next }
    }

    /// Whether the dense form was chosen.
    pub fn is_dense(&self) -> bool {
        matches!(self.heads, Heads::Dense { .. })
    }

    /// The join core: for every value `chunk[i]` and every build position
    /// `b` holding it (ascending), append `start + i` to `probe_out` and
    /// `b` to `build_out`.
    pub fn join_chunk(
        &self,
        chunk: &[u64],
        start: u64,
        probe_out: &mut Vec<u64>,
        build_out: &mut Vec<u64>,
    ) {
        match &self.heads {
            Heads::Dense { min, head } => {
                self.pairs_into(chunk, start, probe_out, build_out, |v| {
                    head.get(offset(v, *min)).copied().unwrap_or(NONE)
                })
            }
            Heads::Sparse(head) => self.pairs_into(chunk, start, probe_out, build_out, |v| {
                head.get(&v).copied().unwrap_or(NONE)
            }),
        }
    }

    /// [`KeyPositions::join_chunk`] with the head lookup `first` resolved
    /// per form.
    #[inline(always)]
    fn pairs_into(
        &self,
        chunk: &[u64],
        start: u64,
        probe_out: &mut Vec<u64>,
        build_out: &mut Vec<u64>,
        first: impl Fn(u64) -> u64,
    ) {
        for (i, &value) in chunk.iter().enumerate() {
            let mut b = first(value);
            while b != NONE {
                probe_out.push(start + i as u64);
                build_out.push(b);
                b = self.next[b as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(keys: &[u64]) -> KeySet {
        KeySet::build(&Column::from_slice(keys))
    }

    fn positions_of(keys: &[u64]) -> KeyPositions {
        KeyPositions::build(&Column::from_slice(keys))
    }

    fn filter(set: &KeySet, probe: &[u64], start: u64) -> Vec<u64> {
        let mut out = vec![7];
        set.filter_chunk(probe, start, &mut out);
        // The core appends: what was in `out` before stays.
        assert_eq!(out[0], 7);
        out.split_off(1)
    }

    fn pairs(index: &KeyPositions, probe: &[u64]) -> Vec<(u64, u64)> {
        let (mut p, mut b) = (Vec::new(), Vec::new());
        index.join_chunk(probe, 100, &mut p, &mut b);
        p.into_iter().zip(b).collect()
    }

    #[test]
    fn dense_bound_is_exact() {
        for slot_bits in [1, 64] {
            let limit = dense_span_limit(3, slot_bits);
            // Key range `max - min + 1 == limit`: just inside.
            let inside = [5, 6, 5 + limit - 1];
            assert_eq!(dense_range(&inside, slot_bits), Some((5, limit as usize)));
            // One more: just outside.
            let outside = [5, 6, 5 + limit];
            assert_eq!(dense_range(&outside, slot_bits), None);
        }
        let (set_limit, join_limit) = (dense_span_limit(3, 1), dense_span_limit(3, 64));
        assert!(set_of(&[5, 6, 5 + set_limit - 1]).is_dense());
        assert!(!set_of(&[5, 6, 5 + set_limit]).is_dense());
        assert!(positions_of(&[5, 6, 5 + join_limit - 1]).is_dense());
        assert!(!positions_of(&[5, 6, 5 + join_limit]).is_dense());
        assert_eq!(dense_span_limit(0, 1), DENSE_FLOOR_BYTES * 8);
        assert_eq!(
            dense_span_limit(10, 64),
            (10 * DENSE_BYTES_PER_ROW + DENSE_FLOOR_BYTES) / 8
        );
    }

    #[test]
    fn both_forms_filter_identically() {
        let limit = dense_span_limit(4, 1);
        let dense = set_of(&[10, 12, 13, 10 + limit - 1]);
        let sparse = set_of(&[10, 12, 13, 10 + limit]);
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        let probe = [
            0,
            9,
            10,
            11,
            12,
            13,
            14,
            10 + limit - 1,
            10 + limit,
            u64::MAX,
        ];
        assert_eq!(filter(&dense, &probe, 50), vec![52, 54, 55, 57]);
        assert_eq!(filter(&sparse, &probe, 50), vec![52, 54, 55, 58]);
    }

    #[test]
    fn extreme_keys_and_out_of_range_probes_miss() {
        // Dense at the top of the domain: `u64::MAX - min` fits, probes
        // below `min` wrap past the table.
        let top = set_of(&[u64::MAX - 2, u64::MAX]);
        assert!(top.is_dense());
        assert_eq!(
            filter(
                &top,
                &[0, u64::MAX - 3, u64::MAX - 2, u64::MAX - 1, u64::MAX],
                0
            ),
            vec![2, 4]
        );
        // Dense at the bottom: probes above `max` fall off the table.
        let bottom = set_of(&[0, 2]);
        assert!(bottom.is_dense());
        assert_eq!(
            filter(&bottom, &[0, 1, 2, 3, 64, 1 << 40, u64::MAX], 0),
            vec![0, 2]
        );
        // Both ends at once: the whole domain is sparse.
        let both = set_of(&[0, u64::MAX]);
        assert!(!both.is_dense());
        assert_eq!(filter(&both, &[u64::MAX, 1, 0], 0), vec![0, 2]);
        let join = positions_of(&[u64::MAX, 0, u64::MAX]);
        assert!(!join.is_dense());
        assert_eq!(
            pairs(&join, &[0, u64::MAX, 5]),
            vec![(100, 1), (101, 0), (101, 2)]
        );
    }

    #[test]
    fn empty_build_matches_nothing() {
        let set = set_of(&[]);
        assert!(set.is_dense());
        assert!(filter(&set, &[0, 1, u64::MAX], 0).is_empty());
        let index = positions_of(&[]);
        assert!(index.is_dense());
        assert!(pairs(&index, &[0, 1, u64::MAX]).is_empty());
    }

    #[test]
    fn duplicate_keys_chain_in_ascending_build_order() {
        let keys = [4, 9, 4, 4, 9, 6];
        let dense = positions_of(&keys);
        let mut wide = keys.to_vec();
        wide.push(4 + dense_span_limit(keys.len() + 1, 64));
        let sparse = positions_of(&wide);
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        let expected = vec![
            (100, 1),
            (100, 4),
            (102, 0),
            (102, 2),
            (102, 3),
            (103, 1),
            (103, 4),
        ];
        assert_eq!(pairs(&dense, &[9, 5, 4, 9, 3]), expected);
        assert_eq!(pairs(&sparse, &[9, 5, 4, 9, 3]), expected);
    }
}
