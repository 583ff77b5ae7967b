//! Round-trip recovery: build a machine with *synthetic* tables,
//! calibrate against it, and require the fit to recover the ground
//! truth — exactly for latencies, up to observational (port-mask)
//! equivalence for port assignments.
//!
//! This is the soundness property of the whole calibration subsystem:
//! simulation is a pure function of (block, tables, config), so the
//! true table always bit-exactly explains every measurement and must
//! survive candidate elimination.

use bhive_corpus::probe::PROBE_ENTRIES;
use bhive_learn::calibrate::{calibrate, CalibrationOptions};
use bhive_uarch::{port_vocabulary, PortSet, TableOverrides, Uarch, UarchKind};
use proptest::prelude::*;

/// Builds a synthetic target: the shipped machine with every probe
/// entry's row replaced by a randomized (latency, port-mask) pair.
fn synthetic_target(
    kind: UarchKind,
    latencies: &[u32],
    mask_picks: &[usize],
) -> (&'static Uarch, TableOverrides) {
    let base = kind.desc();
    let vocab: Vec<u8> = {
        let mut v: Vec<u8> = port_vocabulary(base).iter().map(|p| p.mask()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut truth = TableOverrides::new();
    let entries: Vec<_> = PROBE_ENTRIES
        .iter()
        .filter(|e| base.supports_avx2 || !e.needs_avx2)
        .collect();
    for (i, entry) in entries.iter().enumerate() {
        let mask = vocab[mask_picks[i % mask_picks.len()] % vocab.len()];
        let latency = if entry.chainable {
            latencies[i % latencies.len()]
        } else {
            // Non-chainable entries have no latency probes; calibration
            // inherits the shipped latency, so ground truth keeps it too
            // (only the port assignment is randomized).
            shipped_latency(base, entry.key)
        };
        truth.set(entry.key, latency, PortSet::from_mask(mask));
    }
    (base.with_overrides(truth.clone()).leak(), truth)
}

/// The shipped latency of `key` on the unmodified machine, read the
/// same way the calibrator reads it.
fn shipped_latency(base: &'static Uarch, key: &str) -> u32 {
    let battery = bhive_corpus::probe_battery(base.supports_avx2, true);
    let inst = battery
        .probes
        .iter()
        .flat_map(|p| p.block.insts())
        .find(|inst| bhive_uarch::entry_key(inst) == Some(key))
        .cloned()
        .expect("entry has a probe instruction");
    let recipe = bhive_uarch::decompose(&inst, base);
    recipe
        .uops
        .iter()
        .find(|u| u.kind == bhive_uarch::UopKind::Compute)
        .expect("single compute uop")
        .latency
}

fn check_roundtrip(kind: UarchKind, latencies: Vec<u32>, mask_picks: Vec<usize>) {
    let (target, truth) = synthetic_target(kind, &latencies, &mask_picks);
    let opts = CalibrationOptions {
        threads: 1,
        quick: true,
        ..Default::default()
    };
    let outcome = calibrate(target, &opts).expect("calibration completes");
    assert_eq!(
        outcome.report.failed_probes, 0,
        "synthetic machine must measure every probe"
    );
    for (key, entry) in &outcome.report.entries {
        let gt = truth.get(key).expect("every entry has ground truth");
        let chainable = PROBE_ENTRIES
            .iter()
            .find(|e| e.key == key.as_str())
            .expect("known entry")
            .chainable;
        if chainable {
            assert_eq!(
                entry.fitted_latency, gt.latency,
                "{key}: latency not recovered exactly (gt {}, fitted {})",
                gt.latency, entry.fitted_latency
            );
            assert!(entry.latency_verified, "{key}: latency not verified");
        } else {
            assert_eq!(entry.fitted_latency, gt.latency, "{key}: inherited latency");
        }
        assert!(
            entry.port_class.contains(&gt.ports),
            "{key}: ground-truth mask {:#04x} eliminated; class {:?}",
            gt.ports,
            entry.port_class
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized synthetic tables on Ivy Bridge are recovered: exact
    /// latencies for chainable entries, ground-truth port mask inside
    /// the reported equivalence class for every entry.
    #[test]
    fn recovers_synthetic_tables(
        latencies in proptest::collection::vec(1u32..5, 8..9),
        mask_picks in proptest::collection::vec(0usize..64, 8..9),
    ) {
        check_roundtrip(UarchKind::IvyBridge, latencies, mask_picks);
    }
}

/// A fixed, adversarial case on Haswell (FMA entries included): every
/// chainable entry slowed to latency 4, every entry moved to the first
/// vocabulary mask.
#[test]
fn recovers_fixed_haswell_tables() {
    check_roundtrip(UarchKind::Haswell, vec![4], vec![0]);
}
