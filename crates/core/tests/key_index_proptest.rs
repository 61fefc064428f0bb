//! Property-based test of the star-join key index: `semi_join`, `join` and
//! the concatenated `semi_join_part` partials agree with a `HashSet` /
//! `HashMap` reference for generated build domains on both sides of the
//! dense bound, keys at `0` and `u64::MAX`, probe values outside the build's
//! key range, empty builds, duplicate build keys and compressed formats.

use std::collections::{HashMap, HashSet};

use morph_compression::Format;
use morph_storage::Column;
use morphstore_engine::ops::key_index::{dense_span_limit, KeyPositions, KeySet};
use morphstore_engine::ops::partitioned::{concat_partials, partition, semi_join_part};
use morphstore_engine::{join, semi_join, ExecSettings};
use proptest::prelude::*;

/// How the build keys are spread over their domain.
#[derive(Debug, Clone, Copy)]
enum Domain {
    /// Range `max - min + 1` exactly at the semi-join bitmap's bound.
    SetInside,
    /// One past the bitmap's bound.
    SetOutside,
    /// Exactly at the join position table's bound.
    JoinInside,
    /// One past the position table's bound.
    JoinOutside,
    /// Keys drawn from a narrow range (dense, with duplicates).
    Narrow,
    /// Keys anywhere in `0..=u64::MAX`.
    Anywhere,
}

fn domain() -> impl Strategy<Value = Domain> {
    prop_oneof![
        Just(Domain::SetInside),
        Just(Domain::SetOutside),
        Just(Domain::JoinInside),
        Just(Domain::JoinOutside),
        Just(Domain::Narrow),
        Just(Domain::Anywhere),
    ]
}

/// Where the domain starts: at zero, at the top of `u64`, or in between.
fn base() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 1u64..1 << 40]
}

fn format_for(choice: u8, max: u64) -> Format {
    match choice % 5 {
        0 => Format::Uncompressed,
        1 => Format::static_bp_for_max(max),
        2 => Format::DynBp,
        3 => Format::DeltaDynBp,
        _ => Format::Dict,
    }
}

/// Build keys for `domain`, placed so the whole range fits below or above
/// `base` (a base of `u64::MAX` puts the range at the top of the domain).
fn build_keys(domain: Domain, base: u64, rows: usize, picks: &[u64]) -> Vec<u64> {
    let rows = rows.max(2);
    let width = match domain {
        Domain::SetInside => dense_span_limit(rows, 1),
        Domain::SetOutside => dense_span_limit(rows, 1) + 1,
        Domain::JoinInside => dense_span_limit(rows, 64),
        Domain::JoinOutside => dense_span_limit(rows, 64) + 1,
        Domain::Narrow => 1 + rows as u64 / 2,
        Domain::Anywhere => {
            let mut keys: Vec<u64> = picks.iter().copied().cycle().take(rows).collect();
            keys[0] = 0;
            keys[rows - 1] = u64::MAX;
            return keys;
        }
    };
    let min = base.min(u64::MAX - (width - 1));
    // Both ends of the range are present, so the range is exactly `width`.
    let mut keys: Vec<u64> = (0..rows)
        .map(|i| min + picks[i % picks.len()] % width)
        .collect();
    keys[0] = min;
    keys[rows - 1] = min + (width - 1);
    keys
}

/// Probe values: build keys, their neighbours (below `min` and above `max`
/// included, wrapping at the ends of `u64`) and arbitrary values.
fn probe_values(build: &[u64], picks: &[u64], len: usize) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let pick = picks[i % picks.len()];
            let key = build
                .get(pick as usize % build.len().max(1))
                .copied()
                .unwrap_or(pick);
            match pick % 4 {
                0 => key,
                1 => key.wrapping_sub(1),
                2 => key.wrapping_add(1),
                _ => pick,
            }
        })
        .collect()
}

fn reference_semi_join(probe: &[u64], build: &[u64]) -> Vec<u64> {
    let set: HashSet<u64> = build.iter().copied().collect();
    (0..probe.len() as u64)
        .filter(|&i| set.contains(&probe[i as usize]))
        .collect()
}

fn reference_join(probe: &[u64], build: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut table: HashMap<u64, Vec<u64>> = HashMap::new();
    for (j, &key) in build.iter().enumerate() {
        table.entry(key).or_default().push(j as u64);
    }
    let (mut p, mut b) = (Vec::new(), Vec::new());
    for (i, key) in probe.iter().enumerate() {
        for &j in table.get(key).into_iter().flatten() {
            p.push(i as u64);
            b.push(j);
        }
    }
    (p, b)
}

/// Every operator path over the key index against the reference.
fn check(probe_values: &[u64], build_values: &[u64], probe_format: Format, build_format: Format) {
    let probe = Column::compress(probe_values, &probe_format);
    let build = Column::compress(build_values, &build_format);
    let semi = reference_semi_join(probe_values, build_values);
    let pairs = reference_join(probe_values, build_values);
    let label = format!("probe {probe_format}, build {build_format}");
    for (settings, out) in [
        (ExecSettings::vectorized_compressed(), Format::DeltaDynBp),
        (ExecSettings::scalar_uncompressed(), Format::Uncompressed),
    ] {
        let serial = semi_join(&probe, &build, &out, &settings);
        assert_eq!(serial.decompress(), semi, "semi_join, {label}");
        let (p, b) = join(&probe, &build, (&out, &Format::DynBp), &settings);
        assert_eq!((p.decompress(), b.decompress()), pairs, "join, {label}");
        let set = KeySet::build(&build);
        for parts in [1, 3] {
            let partials: Vec<Column> = partition(&probe, parts)
                .into_iter()
                .map(|range| semi_join_part(&probe, &set, range, serial.format()))
                .collect();
            assert_eq!(
                concat_partials(serial.format(), &partials),
                serial,
                "semi_join_part x{parts}, {label}"
            );
        }
    }
}

#[test]
fn the_bound_cases_pick_the_expected_form() {
    for rows in [2, 100] {
        let picks = [3, 1, 4, 1, 5, 9, 2, 6];
        let keys = |domain| Column::from_vec(build_keys(domain, 7, rows, &picks));
        assert!(KeySet::build(&keys(Domain::SetInside)).is_dense());
        assert!(!KeySet::build(&keys(Domain::SetOutside)).is_dense());
        assert!(KeyPositions::build(&keys(Domain::JoinInside)).is_dense());
        assert!(!KeyPositions::build(&keys(Domain::JoinOutside)).is_dense());
        assert!(!KeySet::build(&keys(Domain::Anywhere)).is_dense());
    }
}

#[test]
fn empty_build_and_empty_probe() {
    check(
        &[0, 1, u64::MAX],
        &[],
        Format::Uncompressed,
        Format::Uncompressed,
    );
    check(&[], &[0, 5], Format::DynBp, Format::Uncompressed);
    check(&[], &[], Format::Uncompressed, Format::DeltaDynBp);
}

#[test]
fn ssb_shaped_star_join() {
    // A primary-key dimension `1..=rows` filtered to a third, probed by
    // foreign keys over the whole domain, in compressed formats.
    let dim: Vec<u64> = (1..=3000).filter(|k| k % 3 == 0).collect();
    let fact: Vec<u64> = (0..20_000u64).map(|i| 1 + (i * 7919) % 3000).collect();
    check(&fact, &dim, Format::DynBp, Format::static_bp_for_max(3000));
    check(&fact, &dim, Format::Dict, Format::DeltaDynBp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn key_index_matches_the_hash_reference(
        domain in domain(),
        base in base(),
        rows in 0usize..300,
        probe_len in 0usize..5000,
        picks in prop::collection::vec(any::<u64>(), 1..64),
        formats in (0u8..5, 0u8..5),
    ) {
        let build = if rows == 0 {
            Vec::new()
        } else {
            build_keys(domain, base, rows, &picks)
        };
        let probe = probe_values(&build, &picks, probe_len);
        let max = |values: &[u64]| values.iter().copied().max().unwrap_or(0);
        check(
            &probe,
            &build,
            format_for(formats.0, max(&probe)),
            format_for(formats.1, max(&build)),
        );
    }
}
