//! Property tests for the sample-store snapshot format.
//!
//! The unit tests in `persist.rs` pin individual behaviours; these
//! properties sweep randomized stores (varying sample count, reservoir
//! capacity, strata, coverage, payload mixes, absorb-merged and distinct
//! descriptors) and adversarial byte streams, checking the three
//! contracts a restore must honour:
//!
//! 1. round-trip identity — descriptors, schemas, per-stratum reservoirs
//!    and weights (the malleability metadata reuse planning runs on)
//!    survive save/load bit-for-bit, and a second save is byte-identical;
//! 2. truncation at *every* prefix length fails with an error, never a
//!    panic and never a silently short store;
//! 3. arbitrary single-byte corruption never panics the loader.

use laqy::{
    load_store, save_store, Interval, IntervalSet, Predicates, Sample, SampleDescriptor,
    SampleSchema, SampleStore, SlotKind,
};
use laqy_engine::GroupKey;
use laqy_sampling::Lehmer64;
use proptest::prelude::*;

/// Build a store from a generated spec: one entry per inserted sample,
/// `(k, strata, tag)` controlling reservoir capacity, stratification
/// width, and descriptor identity (same-tag samples with disjoint
/// coverage exercise the absorb-merge path, so the resulting store can
/// legitimately hold fewer samples than `spec.len()`).
fn build_store(spec: &[(usize, usize, i64)], seed: i64) -> SampleStore {
    let mut store = SampleStore::new();
    let mut rng = Lehmer64::new(seed as u64 ^ 0x9E37_79B9);
    for (i, &(k, strata, tag)) in spec.iter().enumerate() {
        let base = i as i64 * 1_000;
        let span = 100 + 40 * strata as i64;
        let schema = SampleSchema::new(vec![
            ("x".into(), SlotKind::Int),
            ("v".into(), SlotKind::Float),
        ]);
        let mut sampler = Sample::new(&schema, k);
        for g in 0..strata as i64 {
            // Offer more tuples than capacity so weights exceed |R|.
            for x in base..base + span {
                sampler.offer(
                    GroupKey::new(&[g, tag]),
                    &[x, (x as f64 * 0.25).to_bits() as i64],
                    &mut rng,
                );
            }
        }
        let descriptor = SampleDescriptor::new(
            format!("t{tag}[True]"),
            vec!["g".into()],
            vec!["x".into(), "v".into()],
            Predicates::on("x", IntervalSet::of(Interval::new(base, base + span - 1))),
            k,
        );
        store.absorb(descriptor, schema, sampler, base as u64, &mut rng);
    }
    store
}

fn assert_stores_identical(a: &SampleStore, b: &SampleStore) {
    assert_eq!(a.len(), b.len());
    for (o, r) in a.iter_samples().zip(b.iter_samples()) {
        assert_eq!(o.descriptor, r.descriptor);
        assert_eq!(o.schema, r.schema);
        assert_eq!(o.sample.num_strata(), r.sample.num_strata());
        assert_eq!(o.sample.total_weight(), r.sample.total_weight());
        for (key, items, weight) in o.sample.iter() {
            let restored = r.sample.iter().find(|(k, _, _)| k == &key);
            let (_, r_items, r_weight) = restored.expect("stratum survives restore");
            assert_eq!(weight, r_weight, "stratum weight drifted for {key:?}");
            assert_eq!(items, r_items, "reservoir contents drifted for {key:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_identity(
        spec in prop::collection::vec((1usize..6, 1usize..5, 0i64..3), 0..5),
        seed in 0i64..1_000_000,
    ) {
        let store = build_store(&spec, seed);
        let bytes = save_store(&store);
        // The dense sample layout changed nothing on the wire.
        prop_assert_eq!(&bytes[4..8], &2u32.to_le_bytes()[..], "format version");
        let restored = load_store(&bytes).expect("valid snapshot loads");
        assert_stores_identical(&store, &restored);
        // Save is a pure function of store contents: re-saving the
        // restored store is byte-identical, so snapshots can be compared
        // and deduplicated by hash.
        prop_assert_eq!(save_store(&restored), bytes);
    }

    #[test]
    fn every_truncation_errors(
        spec in prop::collection::vec((1usize..5, 1usize..4, 0i64..2), 1..4),
        seed in 0i64..1_000_000,
        cut_permille in 0usize..1000,
    ) {
        let bytes = save_store(&build_store(&spec, seed));
        let cut = cut_permille * bytes.len() / 1000;
        prop_assert!(
            load_store(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes loaded successfully",
            bytes.len()
        );
    }

    #[test]
    fn byte_corruption_never_panics(
        spec in prop::collection::vec((1usize..5, 1usize..4, 0i64..2), 1..4),
        seed in 0i64..1_000_000,
        pos_seed in 0usize..100_000,
        mask in 1i64..256,
    ) {
        let mut bytes = save_store(&build_store(&spec, seed));
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= mask as u8;
        // A flip may still decode (payload bytes are free-form); the
        // contract is that decoding terminates without panicking and any
        // accepted store is structurally traversable.
        if let Ok(restored) = load_store(&bytes) {
            for s in restored.iter_samples() {
                for (_key, items, _weight) in s.sample.iter() {
                    let _ = items.len();
                }
            }
        }
    }
}
