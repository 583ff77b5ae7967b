//! Microarchitecture parameter blocks.

use crate::ports;
use crate::ports::PortSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cache geometry (size/associativity/line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheParams {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// The three microarchitectures evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UarchKind {
    /// Ivy Bridge (2012; AVX, no AVX2/FMA, 6 execution ports).
    IvyBridge,
    /// Haswell (2013; AVX2 + FMA, 8 execution ports).
    Haswell,
    /// Skylake (2015; reworked FP latencies, faster divider).
    Skylake,
}

impl UarchKind {
    /// All modeled microarchitectures, oldest first.
    pub const ALL: [UarchKind; 3] = [UarchKind::IvyBridge, UarchKind::Haswell, UarchKind::Skylake];

    /// Short lowercase name (`ivb`, `hsw`, `skl`).
    pub fn short_name(self) -> &'static str {
        match self {
            UarchKind::IvyBridge => "ivb",
            UarchKind::Haswell => "hsw",
            UarchKind::Skylake => "skl",
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            UarchKind::IvyBridge => "Ivy Bridge",
            UarchKind::Haswell => "Haswell",
            UarchKind::Skylake => "Skylake",
        }
    }

    /// Parses either the short or the long name (case-insensitive).
    pub fn parse(text: &str) -> Option<UarchKind> {
        let lower = text.to_ascii_lowercase();
        UarchKind::ALL
            .into_iter()
            .find(|k| k.short_name() == lower || k.name().to_ascii_lowercase() == lower)
    }

    /// The shipped parameter block (compiled-in tables). Fitted tables
    /// are carried by value instead: see [`crate::fitted_uarch`].
    pub fn desc(self) -> &'static Uarch {
        match self {
            UarchKind::IvyBridge => Uarch::ivy_bridge(),
            UarchKind::Haswell => Uarch::haswell(),
            UarchKind::Skylake => Uarch::skylake(),
        }
    }
}

impl fmt::Display for UarchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete microarchitecture description.
///
/// Obtained via [`Uarch::haswell`] and friends (or [`UarchKind::desc`]);
/// the structs are `'static` and shared.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Uarch {
    /// Which microarchitecture this is.
    pub kind: UarchKind,
    /// Number of execution ports.
    pub num_ports: u8,
    /// Fused-domain rename/issue width (uops per cycle).
    pub issue_width: u32,
    /// Retire width (uops per cycle).
    pub retire_width: u32,
    /// Reorder-buffer capacity (fused-domain uops).
    pub rob_size: u32,
    /// Reservation-station (scheduler) capacity (unfused uops).
    pub rs_size: u32,
    /// Load-buffer entries.
    pub load_buffer: u32,
    /// Store-buffer entries.
    pub store_buffer: u32,
    /// Ports that execute loads.
    pub load_ports: PortSet,
    /// Ports that compute store addresses.
    pub store_addr_ports: PortSet,
    /// Ports that accept store data.
    pub store_data_ports: PortSet,
    /// L1 data-cache load-to-use latency in cycles.
    pub l1d_latency: u32,
    /// Extra cycles an L1D miss costs (to the L2).
    pub l1d_miss_penalty: u32,
    /// Extra cycles an L1I miss costs.
    pub l1i_miss_penalty: u32,
    /// L1 data cache geometry (virtually indexed, physically tagged).
    pub l1d: CacheParams,
    /// L1 instruction cache geometry.
    pub l1i: CacheParams,
    /// AVX2 / FMA / 256-bit integer support.
    pub supports_avx2: bool,
    /// Dependency-breaking zero idioms are recognized at rename.
    pub zero_idiom_elimination: bool,
    /// Register-to-register moves are eliminated at rename.
    pub move_elimination: bool,
    /// `cmp`/`test` + `jcc` macro-fusion.
    pub macro_fusion: bool,
    /// Multiplier applied to FP-arithmetic latency when an operand or
    /// result is subnormal and MXCSR gradual underflow is enabled
    /// (the paper observed up to ~20×).
    pub subnormal_penalty: u32,
    /// Extra cycles for a load/store that crosses a cache-line boundary.
    pub split_access_penalty: u32,
    /// Fitted table-entry overrides applied on top of the compiled-in
    /// decomposition tables (see [`crate::TableOverrides`]). `None` for
    /// every shipped description (serialized as `null`).
    pub overrides: Option<crate::TableOverrides>,
}

impl Uarch {
    /// A copy of this description with `overrides` applied on top of the
    /// compiled-in tables. An empty set normalizes to `None`, so a
    /// no-op table keeps the fingerprint (and every cache key) of the
    /// shipped description.
    pub fn with_overrides(&self, overrides: crate::TableOverrides) -> Uarch {
        Uarch {
            overrides: if overrides.is_empty() {
                None
            } else {
                Some(overrides)
            },
            ..self.clone()
        }
    }

    /// A copy with the compiled-in tables only (overrides stripped).
    pub fn base(&self) -> Uarch {
        Uarch {
            overrides: None,
            ..self.clone()
        }
    }

    /// Stable fingerprint of the active table overrides; 0 when the
    /// description uses the compiled-in tables. Measurement caches fold
    /// this into their binding so calibrated-table runs never share
    /// records with shipped-table runs.
    pub fn table_fingerprint(&self) -> u64 {
        self.overrides.as_ref().map_or(0, |o| o.fingerprint())
    }

    /// Leaks this description to `'static` — profiler and machine
    /// constructors require `&'static Uarch`. One small allocation per
    /// call; intended for one-shot candidate/test descriptions.
    pub fn leak(self) -> &'static Uarch {
        Box::leak(Box::new(self))
    }
    /// The Ivy Bridge description.
    pub fn ivy_bridge() -> &'static Uarch {
        static IVB: std::sync::OnceLock<Uarch> = std::sync::OnceLock::new();
        IVB.get_or_init(|| Uarch {
            kind: UarchKind::IvyBridge,
            num_ports: 6,
            issue_width: 4,
            retire_width: 4,
            rob_size: 168,
            rs_size: 54,
            load_buffer: 64,
            store_buffer: 36,
            load_ports: ports!(2, 3),
            store_addr_ports: ports!(2, 3),
            store_data_ports: ports!(4),
            l1d_latency: 4,
            l1d_miss_penalty: 12,
            l1i_miss_penalty: 14,
            l1d: CacheParams {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            l1i: CacheParams {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            supports_avx2: false,
            zero_idiom_elimination: true,
            move_elimination: false,
            macro_fusion: true,
            subnormal_penalty: 20,
            split_access_penalty: 10,
            overrides: None,
        })
    }

    /// The Haswell description.
    pub fn haswell() -> &'static Uarch {
        static HSW: std::sync::OnceLock<Uarch> = std::sync::OnceLock::new();
        HSW.get_or_init(|| Uarch {
            kind: UarchKind::Haswell,
            num_ports: 8,
            issue_width: 4,
            retire_width: 4,
            rob_size: 192,
            rs_size: 60,
            load_buffer: 72,
            store_buffer: 42,
            load_ports: ports!(2, 3),
            store_addr_ports: ports!(2, 3, 7),
            store_data_ports: ports!(4),
            l1d_latency: 4,
            l1d_miss_penalty: 12,
            l1i_miss_penalty: 14,
            l1d: CacheParams {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            l1i: CacheParams {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            supports_avx2: true,
            zero_idiom_elimination: true,
            move_elimination: true,
            macro_fusion: true,
            subnormal_penalty: 20,
            split_access_penalty: 10,
            overrides: None,
        })
    }

    /// The Skylake description.
    pub fn skylake() -> &'static Uarch {
        static SKL: std::sync::OnceLock<Uarch> = std::sync::OnceLock::new();
        SKL.get_or_init(|| Uarch {
            kind: UarchKind::Skylake,
            num_ports: 8,
            issue_width: 4,
            retire_width: 4,
            rob_size: 224,
            rs_size: 97,
            load_buffer: 72,
            store_buffer: 56,
            load_ports: ports!(2, 3),
            store_addr_ports: ports!(2, 3, 7),
            store_data_ports: ports!(4),
            l1d_latency: 4,
            l1d_miss_penalty: 12,
            l1i_miss_penalty: 14,
            l1d: CacheParams {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            l1i: CacheParams {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            supports_avx2: true,
            zero_idiom_elimination: true,
            move_elimination: true,
            macro_fusion: true,
            subnormal_penalty: 20,
            split_access_penalty: 10,
            overrides: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_names() {
        assert_eq!(UarchKind::parse("hsw"), Some(UarchKind::Haswell));
        assert_eq!(UarchKind::parse("Ivy Bridge"), Some(UarchKind::IvyBridge));
        assert_eq!(UarchKind::parse("SKL"), Some(UarchKind::Skylake));
        assert_eq!(UarchKind::parse("zen"), None);
    }

    #[test]
    fn cache_geometry() {
        let l1d = Uarch::haswell().l1d;
        assert_eq!(l1d.sets(), 64);
        // VIPT soundness: index bits (6 sets bits + 6 offset bits = 12)
        // fit within the 4 KiB page offset.
        assert!(l1d.sets() * l1d.line_bytes <= 4096);
    }

    #[test]
    fn uarch_accessors_consistent() {
        for kind in UarchKind::ALL {
            let desc = kind.desc();
            assert_eq!(desc.kind, kind);
            assert!(desc.num_ports <= 8);
            assert!(!desc.load_ports.is_empty());
            assert!(!desc.store_data_ports.is_empty());
        }
        assert!(!Uarch::ivy_bridge().supports_avx2);
        assert!(Uarch::haswell().supports_avx2);
    }
}
