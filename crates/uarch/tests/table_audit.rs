//! Shipped-table audit: calibrating each built-in microarchitecture
//! against itself must report zero drift — every shipped latency is
//! recovered exactly, and every shipped port mask survives candidate
//! elimination. A failure here means the shipped tables are internally
//! inconsistent with what the measurement framework observes.

use bhive_learn::calibrate::{calibrate, CalibrationOptions};
use bhive_uarch::UarchKind;

fn audit(kind: UarchKind) {
    let outcome = calibrate(
        kind.desc(),
        &CalibrationOptions {
            quick: false,
            ..Default::default()
        },
    )
    .expect("calibration completes");
    let report = &outcome.report;
    assert_eq!(report.failed_probes, 0, "{kind:?}: every probe measures");
    let drifted: Vec<&String> = report
        .entries
        .iter()
        .filter(|(_, e)| e.drift)
        .map(|(k, _)| k)
        .collect();
    assert!(
        drifted.is_empty(),
        "{kind:?}: shipped tables drifted on {drifted:?}"
    );
    for (key, entry) in &report.entries {
        assert_eq!(
            entry.fitted_latency, entry.shipped_latency,
            "{kind:?}/{key}: latency"
        );
        assert!(
            entry.port_class.contains(&entry.shipped_ports),
            "{kind:?}/{key}: shipped mask {:#04x} not in class {:?}",
            entry.shipped_ports,
            entry.port_class
        );
        // Zero drift also pins the canonical pick to the shipped mask,
        // so a fitted-table measure run is byte-identical to the shipped one.
        assert_eq!(
            entry.canonical_ports, entry.shipped_ports,
            "{kind:?}/{key}: canonical mask"
        );
    }
    // The fitted table the audit would export round-trips through the
    // JSON schema.
    let json = bhive_uarch::FittedTables::new(kind, outcome.overrides.clone()).to_json();
    let (parsed_kind, parsed) =
        bhive_uarch::FittedTables::from_json(&json).expect("fitted tables parse");
    assert_eq!(parsed_kind, kind);
    assert_eq!(parsed.fingerprint(), outcome.overrides.fingerprint());
}

#[test]
fn ivy_bridge_tables_have_zero_drift() {
    audit(UarchKind::IvyBridge);
}

#[test]
fn haswell_tables_have_zero_drift() {
    audit(UarchKind::Haswell);
}

#[test]
fn skylake_tables_have_zero_drift() {
    audit(UarchKind::Skylake);
}
