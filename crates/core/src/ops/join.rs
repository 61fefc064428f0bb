//! Join operators: equi-join and semi-join.
//!
//! The SSB queries are star joins: the (filtered) dimension tables are joined
//! to the fact table via foreign keys.  In the operator-at-a-time model these
//! joins consume key columns and produce position columns:
//!
//! * [`join`] returns, for every match, the position in the probe column and
//!   the position in the build column (MonetDB-style join producing two
//!   aligned position lists),
//! * [`semi_join`] returns only the probe positions that have at least one
//!   match — which is all the SSB plans need when a dimension is used purely
//!   as a filter.
//!
//! Both operators index the *build* (second) input once, which in a star
//! join is the (filtered) dimension-key column and therefore small, as a
//! [key index](crate::ops::key_index): a table addressed by `key − min`
//! when the build's key range is dense, a hash table otherwise.  The probe
//! side is streamed chunk-wise, so the fact-table key column is never
//! materialised uncompressed (DP3); each decoded chunk is filtered by the
//! index into a scratch buffer that is appended to the output builder as a
//! whole.  Keys are compared by value, which is correct for
//! dictionary-encoded data because MorphStore assumes "an individual
//! dictionary per domain" (Section 3.1): both join sides of an SSB join
//! refer to the same key domain.

use morph_compression::Format;
use morph_storage::{Column, ColumnBuilder};

use crate::exec::ExecSettings;
use crate::ops::key_index::{KeyPositions, KeySet};
use crate::ops::partitioned::{effective_output_format, semi_join_part};

/// Equi-join of two key columns.
///
/// Returns `(probe_positions, build_positions)`: for every pair `(i, j)` with
/// `probe[i] == build[j]`, position `i` is appended to the first output and
/// `j` to the second, in probe order and, per probe position, in ascending
/// build order.  `out_formats` are the formats of the two output columns
/// (ignored for the purely uncompressed degree).
pub fn join(
    probe: &Column,
    build: &Column,
    out_formats: (&Format, &Format),
    settings: &ExecSettings,
) -> (Column, Column) {
    let index = KeyPositions::build(build);
    let mut probe_out = ColumnBuilder::new(effective_output_format(out_formats.0, settings));
    let mut build_out = ColumnBuilder::new(effective_output_format(out_formats.1, settings));
    let (mut probe_hits, mut build_hits) = (Vec::new(), Vec::new());
    let mut start = 0u64;
    probe.for_each_chunk(&mut |chunk| {
        crate::govern::checkpoint_chunk();
        probe_hits.clear();
        build_hits.clear();
        index.join_chunk(chunk, start, &mut probe_hits, &mut build_hits);
        probe_out.push_slice(&probe_hits);
        build_out.push_slice(&build_hits);
        start += chunk.len() as u64;
    });
    (probe_out.finish(), build_out.finish())
}

/// Semi-join: the positions of `probe` whose value occurs in `build`.
pub fn semi_join(
    probe: &Column,
    build: &Column,
    out_format: &Format,
    settings: &ExecSettings,
) -> Column {
    // The whole probe column as one part: the morsel path runs the same
    // code on chunk ranges, over the identical set.
    semi_join_part(
        probe,
        &KeySet::build(build),
        0..probe.chunk_count(),
        &effective_output_format(out_format, settings),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_to_one_join_matches_reference() {
        // Fact foreign keys probe a dimension primary-key column.
        let dim_keys: Vec<u64> = (0..100).collect();
        let fact_fk: Vec<u64> = (0..5000u64).map(|i| (i * 37) % 100).collect();
        let probe = Column::compress(&fact_fk, &Format::DynBp);
        let build = Column::compress(&dim_keys, &Format::StaticBp(7));
        let (probe_pos, build_pos) = join(
            &probe,
            &build,
            (&Format::DeltaDynBp, &Format::DynBp),
            &ExecSettings::default(),
        );
        assert_eq!(probe_pos.logical_len(), 5000);
        assert_eq!(build_pos.logical_len(), 5000);
        let p = probe_pos.decompress();
        let b = build_pos.decompress();
        assert_eq!(p, (0..5000u64).collect::<Vec<_>>());
        for i in 0..5000usize {
            assert_eq!(dim_keys[b[i] as usize], fact_fk[p[i] as usize]);
        }
    }

    #[test]
    fn join_with_partial_matches() {
        let probe = Column::from_slice(&[1, 5, 9, 5, 100]);
        let build = Column::from_slice(&[5, 7, 9]);
        let (p, b) = join(
            &probe,
            &build,
            (&Format::Uncompressed, &Format::Uncompressed),
            &ExecSettings::default(),
        );
        assert_eq!(p.decompress(), vec![1, 2, 3]);
        assert_eq!(b.decompress(), vec![0, 2, 0]);
    }

    #[test]
    fn n_to_m_join_produces_all_pairs() {
        let probe = Column::from_slice(&[7, 8]);
        let build = Column::from_slice(&[7, 7, 8]);
        let (p, b) = join(
            &probe,
            &build,
            (&Format::Uncompressed, &Format::Uncompressed),
            &ExecSettings::default(),
        );
        assert_eq!(p.decompress(), vec![0, 0, 1]);
        assert_eq!(b.decompress(), vec![0, 1, 2]);
    }

    #[test]
    fn join_output_formats_are_respected() {
        let probe = Column::compress(
            &(0..3000u64).map(|i| i % 50).collect::<Vec<_>>(),
            &Format::DynBp,
        );
        let build = Column::from_slice(&(0..50).collect::<Vec<u64>>());
        let (p, b) = join(
            &probe,
            &build,
            (&Format::DeltaDynBp, &Format::StaticBp(6)),
            &ExecSettings::default(),
        );
        assert_eq!(p.format(), &Format::DeltaDynBp);
        assert_eq!(b.format(), &Format::StaticBp(6));
        let (p_plain, _) = join(
            &probe,
            &build,
            (&Format::DeltaDynBp, &Format::StaticBp(6)),
            &ExecSettings::scalar_uncompressed(),
        );
        assert_eq!(p_plain.format(), &Format::Uncompressed);
    }

    #[test]
    fn semi_join_matches_reference_for_all_formats() {
        let probe_values: Vec<u64> = (0..8000u64).map(|i| i % 997).collect();
        let build_values: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        let build_set: std::collections::HashSet<u64> = build_values.iter().copied().collect();
        let expected: Vec<u64> = probe_values
            .iter()
            .enumerate()
            .filter(|(_, v)| build_set.contains(v))
            .map(|(i, _)| i as u64)
            .collect();
        for probe_format in [Format::Uncompressed, Format::DynBp, Format::Dict] {
            let probe = Column::compress(&probe_values, &probe_format);
            let build = Column::compress(&build_values, &Format::StaticBp(10));
            let out = semi_join(
                &probe,
                &build,
                &Format::DeltaDynBp,
                &ExecSettings::default(),
            );
            assert_eq!(out.decompress(), expected, "probe {probe_format}");
        }
    }

    #[test]
    fn semi_join_with_no_matches_and_empty_inputs() {
        let probe = Column::from_slice(&[1, 2, 3]);
        let build = Column::from_slice(&[9, 10]);
        assert!(semi_join(
            &probe,
            &build,
            &Format::Uncompressed,
            &ExecSettings::default()
        )
        .is_empty());
        let empty = Column::from_slice(&[]);
        assert!(semi_join(
            &empty,
            &build,
            &Format::Uncompressed,
            &ExecSettings::default()
        )
        .is_empty());
        let (p, b) = join(
            &empty,
            &build,
            (&Format::Uncompressed, &Format::Uncompressed),
            &ExecSettings::default(),
        );
        assert!(p.is_empty());
        assert!(b.is_empty());
    }
}
