//! `tables.json` is untrusted input: `FittedTables::from_json` must turn
//! arbitrary bytes, truncated documents and documents with mutated
//! fields into a `TableLoadError` or a valid table — never a panic, and
//! never a table the timing model cannot run.

use bhive_uarch::{ports, FittedTables, TableOverrides, UarchKind};
use proptest::collection::vec;
use proptest::prelude::*;

/// A well-formed `bhive-tables/v1` document with two entries.
fn valid_doc() -> String {
    let mut overrides = TableOverrides::new();
    overrides.set("alu", 1, ports!(0, 1, 5));
    overrides.set("fp.mul", 5, ports!(0));
    FittedTables::new(UarchKind::IvyBridge, overrides).to_json()
}

/// Replacement values for a mutated field: wrong types, out-of-range and
/// boundary numbers, hostile strings, empty and deeply nested containers.
const REPLACEMENTS: &[&str] = &[
    "0",
    "1",
    "-1",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "1.5",
    "1e999",
    "-0",
    "null",
    "true",
    r#""""#,
    r#""bhive-tables/v1""#,
    r#""skl""#,
    r#""zen""#,
    r#""\ud800""#,
    r#""\u0000""#,
    "[]",
    "{}",
    r#"{"latency":0,"ports":1}"#,
    r#"{"latency":1,"ports":0}"#,
    r#"{"latency":1,"ports":192}"#,
    r#"{"latency":4294967295,"ports":255}"#,
    r#"{"latency":2}"#,
    r#"{"alu":{"latency":1,"ports":1}}"#,
];

/// Every byte range of `doc` that holds a field value or a key, so a
/// mutation can replace exactly one of them.
fn field_spans(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let end = i + 1 + doc[i + 1..].find('"').expect("closed string");
                spans.push((i, end + 1));
                i = end + 1;
            }
            b'0'..=b'9' => {
                let end = i + doc[i..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(doc.len() - i);
                spans.push((i, end));
                i = end;
            }
            _ => i += 1,
        }
    }
    spans
}

/// The outcome contract: an error, or a table every entry of which the
/// timing model can run, and which survives a save/load round trip.
fn check(text: &str) -> Result<(), TestCaseError> {
    let Ok((kind, overrides)) = FittedTables::from_json(text) else {
        return Ok(());
    };
    let ports = kind.desc().num_ports;
    for (key, entry) in &overrides.entries {
        prop_assert!(entry.latency >= 1, "{key}: zero latency accepted");
        prop_assert!(entry.ports != 0, "{key}: empty port set accepted");
        prop_assert!(
            u32::from(entry.ports) < 1 << ports,
            "{key}: port mask {:#x} beyond {ports} ports",
            entry.ports
        );
    }
    let again = FittedTables::new(kind, overrides.clone()).to_json();
    prop_assert_eq!(FittedTables::from_json(&again), Ok((kind, overrides)));
    Ok(())
}

#[test]
fn the_valid_document_loads() {
    let (kind, overrides) = FittedTables::from_json(&valid_doc()).unwrap();
    assert_eq!(kind, UarchKind::IvyBridge);
    assert_eq!(overrides.entries.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Every proper prefix of a document is an error.
    #[test]
    fn truncated_documents(cut in 0usize..4096) {
        let doc = valid_doc();
        let prefix = &doc[..cut % doc.len()];
        prop_assert!(FittedTables::from_json(prefix).is_err(), "prefix {prefix:?} loaded");
    }

    /// One key or value of a valid document replaced by a hostile value.
    #[test]
    fn field_mutated_documents(field in 0usize..64, replacement in 0usize..64) {
        let doc = valid_doc();
        let spans = field_spans(&doc);
        let (start, end) = spans[field % spans.len()];
        let value = REPLACEMENTS[replacement % REPLACEMENTS.len()];
        check(&format!("{}{value}{}", &doc[..start], &doc[end..]))?;
    }

    /// Random bytes spliced into a valid document, and deep nesting at
    /// any point: the parser's recursion depth is not the input's choice.
    #[test]
    fn spliced_documents(at in 0usize..4096, junk in vec(any::<u8>(), 0..16), depth in 0usize..5000) {
        let doc = valid_doc();
        let at = at % (doc.len() + 1);
        let junk = String::from_utf8_lossy(&junk);
        check(&format!("{}{junk}{}", &doc[..at], &doc[at..]))?;
        check(&format!("{}{}{}", &doc[..at], "[".repeat(depth), &doc[at..]))?;
    }
}
