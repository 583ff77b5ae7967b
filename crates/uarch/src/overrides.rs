//! Loadable latency/port table overrides.
//!
//! The shipped decomposition tables in [`crate::tables`] are hand-written
//! Rust. Calibration (`bhive calibrate`) recovers the same per-entry
//! `(latency, port set)` pairs from targeted microbenchmarks and emits
//! them as JSON; this module is the layer that lets a fitted JSON table
//! be swapped back in without recompiling: [`fitted_uarch`] returns the
//! patched [`Uarch`](crate::Uarch), and the caller carries it by value
//! into the run.
//!
//! An override is keyed by a stable *entry key* (see
//! [`crate::tables::entry_key`]): the name of one row of the
//! decomposition table, e.g. `"alu"` or `"fp.mul"`. Only
//! single-compute-uop, fixed-latency rows are overridable; variable
//! latency rows (division, square root) and multi-uop recipes keep
//! their shipped definitions.

use crate::desc::{Uarch, UarchKind};
use crate::ports::PortSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Schema tag of the fitted-tables JSON file.
pub const FITTED_TABLES_SCHEMA: &str = "bhive-tables/v1";

/// One overridden table entry: the latency and port mask of the row's
/// compute uop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryOverride {
    /// Compute-uop latency in cycles.
    pub latency: u32,
    /// Port bitmask (bit *n* = port *n* may execute the uop).
    pub ports: u8,
}

impl EntryOverride {
    /// The ports as a [`PortSet`].
    pub fn port_set(&self) -> PortSet {
        PortSet::from_mask(self.ports)
    }
}

/// A set of table-entry overrides, keyed by entry key.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TableOverrides {
    /// Overridden entries, sorted by key (the map is ordered so every
    /// serialization and fingerprint is deterministic).
    pub entries: BTreeMap<String, EntryOverride>,
}

impl TableOverrides {
    /// An empty override set.
    pub fn new() -> TableOverrides {
        TableOverrides::default()
    }

    /// Sets one entry (builder-style).
    pub fn set(&mut self, key: &str, latency: u32, ports: PortSet) {
        self.entries.insert(
            key.to_string(),
            EntryOverride {
                latency,
                ports: ports.mask(),
            },
        );
    }

    /// Looks up one entry.
    pub fn get(&self, key: &str) -> Option<EntryOverride> {
        self.entries.get(key).copied()
    }

    /// True when no entry is overridden.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stable fingerprint of the override set. An *empty* set
    /// fingerprints to 0 — the same value as no overrides at all — so
    /// installing a table that changes nothing leaves cache keys alone.
    pub fn fingerprint(&self) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        let mut bytes = Vec::with_capacity(self.entries.len() * 16);
        for (key, entry) in &self.entries {
            bytes.extend((key.len() as u64).to_le_bytes());
            bytes.extend(key.as_bytes());
            bytes.extend(entry.latency.to_le_bytes());
            bytes.push(entry.ports);
        }
        bhive_asm::fnv1a_64(&bytes)
    }
}

/// The on-disk fitted-tables document (`bhive calibrate --out`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FittedTables {
    /// Always [`FITTED_TABLES_SCHEMA`].
    pub schema: String,
    /// Short uarch name (`ivb`/`hsw`/`skl`).
    pub uarch: String,
    /// The fitted entries.
    pub entries: BTreeMap<String, EntryOverride>,
}

impl FittedTables {
    /// Wraps an override set for `kind` into the file document.
    pub fn new(kind: UarchKind, overrides: TableOverrides) -> FittedTables {
        FittedTables {
            schema: FITTED_TABLES_SCHEMA.to_string(),
            uarch: kind.short_name().to_string(),
            entries: overrides.entries,
        }
    }

    /// Serializes to deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fitted tables serialize")
    }

    /// Parses and validates a fitted-tables document. Every entry must
    /// have a latency of at least one cycle and a non-empty port set
    /// within the uarch's ports: anything else would give the timing
    /// model a uop that completes instantly or can never issue.
    ///
    /// # Errors
    ///
    /// A [`TableLoadError`] for any input that is not such a document;
    /// never panics, whatever the bytes.
    pub fn from_json(text: &str) -> Result<(UarchKind, TableOverrides), TableLoadError> {
        let doc: FittedTables =
            serde_json::from_str(text).map_err(|e| TableLoadError::Parse(e.to_string()))?;
        if doc.schema != FITTED_TABLES_SCHEMA {
            return Err(TableLoadError::Schema(doc.schema));
        }
        let kind = UarchKind::parse(&doc.uarch).ok_or(TableLoadError::UnknownUarch(doc.uarch))?;
        let port_limit = 1u16 << kind.desc().num_ports;
        if let Some((key, entry)) = doc
            .entries
            .iter()
            .find(|(_, e)| e.latency == 0 || e.ports == 0 || u16::from(e.ports) >= port_limit)
        {
            return Err(TableLoadError::InvalidEntry(format!(
                "{key:?}: latency {} on port mask {:#04x}",
                entry.latency, entry.ports
            )));
        }
        Ok((
            kind,
            TableOverrides {
                entries: doc.entries,
            },
        ))
    }

    /// Writes the document to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Reads and validates the document at `path`.
    pub fn load(path: &Path) -> Result<(UarchKind, TableOverrides), TableLoadError> {
        let text = std::fs::read_to_string(path).map_err(|e| TableLoadError::Io(e.to_string()))?;
        FittedTables::from_json(&text)
    }
}

/// Why a fitted-tables file could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableLoadError {
    /// The file could not be read.
    Io(String),
    /// The file is not valid JSON for the document shape.
    Parse(String),
    /// The schema tag is not [`FITTED_TABLES_SCHEMA`].
    Schema(String),
    /// The `uarch` field names no modeled microarchitecture.
    UnknownUarch(String),
    /// An entry has a zero latency or a port mask that is empty or names
    /// ports the uarch does not have.
    InvalidEntry(String),
}

impl fmt::Display for TableLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableLoadError::Io(e) => write!(f, "cannot read tables file: {e}"),
            TableLoadError::Parse(e) => write!(f, "invalid tables file: {e}"),
            TableLoadError::Schema(s) => {
                write!(
                    f,
                    "unsupported tables schema {s:?} (want {FITTED_TABLES_SCHEMA:?})"
                )
            }
            TableLoadError::UnknownUarch(u) => write!(f, "unknown uarch {u:?} in tables file"),
            TableLoadError::InvalidEntry(e) => write!(f, "invalid tables entry {e}"),
        }
    }
}

impl std::error::Error for TableLoadError {}

/// The description of `kind` with `overrides` applied: the shipped
/// description itself when the set is empty, otherwise one leaked patched
/// copy. Nothing global changes: the caller passes the result to
/// whatever runs on it (a profiler, a model, a cache), which is how
/// `--tables` swaps a calibrated table into a run.
pub fn fitted_uarch(kind: UarchKind, overrides: TableOverrides) -> &'static Uarch {
    if overrides.is_empty() {
        return kind.desc();
    }
    kind.desc().with_overrides(overrides).leak()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports;

    #[test]
    fn fingerprint_is_stable_and_separates() {
        let mut a = TableOverrides::new();
        assert_eq!(a.fingerprint(), 0, "empty set fingerprints as no overrides");
        a.set("alu", 1, ports!(0, 1, 5));
        let mut b = TableOverrides::new();
        b.set("alu", 1, ports!(0, 1, 5));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), 0);
        b.set("alu", 2, ports!(0, 1, 5));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = TableOverrides::new();
        c.set("alu", 1, ports!(0, 1));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fitted_tables_round_trip() {
        let mut ov = TableOverrides::new();
        ov.set("fp.mul", 4, ports!(0, 1));
        ov.set("alu", 1, ports!(0, 1, 5, 6));
        let doc = FittedTables::new(UarchKind::Haswell, ov.clone());
        let (kind, back) = FittedTables::from_json(&doc.to_json()).unwrap();
        assert_eq!(kind, UarchKind::Haswell);
        assert_eq!(back, ov);
    }

    #[test]
    fn load_rejects_bad_documents() {
        assert!(matches!(
            FittedTables::from_json("not json"),
            Err(TableLoadError::Parse(_))
        ));
        let wrong_schema = r#"{"schema":"bhive-tables/v9","uarch":"hsw","entries":{}}"#;
        assert!(matches!(
            FittedTables::from_json(wrong_schema),
            Err(TableLoadError::Schema(_))
        ));
        let wrong_uarch = r#"{"schema":"bhive-tables/v1","uarch":"zen","entries":{}}"#;
        assert!(matches!(
            FittedTables::from_json(wrong_uarch),
            Err(TableLoadError::UnknownUarch(_))
        ));
        for entry in [
            r#"{"latency":0,"ports":1}"#,
            r#"{"latency":1,"ports":0}"#,
            r#"{"latency":1,"ports":64}"#,
        ] {
            let doc = format!(
                r#"{{"schema":"bhive-tables/v1","uarch":"ivb","entries":{{"alu":{entry}}}}}"#
            );
            assert!(
                matches!(
                    FittedTables::from_json(&doc),
                    Err(TableLoadError::InvalidEntry(_))
                ),
                "{entry}"
            );
        }
    }

    #[test]
    fn with_overrides_separates_fingerprints() {
        let base = UarchKind::IvyBridge.desc();
        assert_eq!(base.table_fingerprint(), 0);
        let mut ov = TableOverrides::new();
        ov.set("shift", 2, ports!(0));
        let patched = base.with_overrides(ov);
        assert_ne!(patched.table_fingerprint(), 0);
        assert_eq!(patched.kind, base.kind);
        // An empty override set normalizes back to "no overrides".
        let same = base.with_overrides(TableOverrides::new());
        assert_eq!(same.table_fingerprint(), 0);
        assert_eq!(&same, base);
    }
}
