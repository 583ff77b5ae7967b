//! Fitted tables travel by value: `fitted_uarch` changes no global, a
//! profiler refuses a machine on other tables, and a sharded run on
//! fitted tables pre-seeds, steals and merges under its own binding
//! fingerprint, apart from shipped-table records.

use bhive_asm::{parse_block, BasicBlock};
use bhive_harness::{
    corpus_keys, merge_shard_caches, profile_corpus_sharded, MeasurementCache, ProfileConfig,
    Profiler, ShardSpec, Supervision,
};
use bhive_sim::Machine;
use bhive_uarch::{fitted_uarch, ports, TableOverrides, Uarch, UarchKind};
use std::collections::HashSet;

/// Haswell with the `alu` row made slower.
fn hot_haswell() -> &'static Uarch {
    let mut hot = TableOverrides::new();
    hot.set("alu", 3, ports!(0, 1, 5, 6));
    fitted_uarch(UarchKind::Haswell, hot)
}

#[test]
fn fitted_uarch_leaves_the_shipped_description_alone() {
    let kind = UarchKind::Haswell;
    let shipped = fitted_uarch(kind, TableOverrides::new());
    assert!(std::ptr::eq(shipped, kind.desc()));
    let fitted = hot_haswell();
    assert_ne!(fitted.table_fingerprint(), 0);
    assert_eq!(kind.desc().table_fingerprint(), 0, "no global changed");
}

#[test]
#[should_panic(expected = "but the profiler targets")]
fn profiler_refuses_a_machine_on_other_tables() {
    let profiler = Profiler::new(hot_haswell(), ProfileConfig::bhive().quiet());
    let block = parse_block("add rax, 1").unwrap();
    let mut shipped = Machine::new(Uarch::haswell(), 0);
    let _ = profiler.profile_with(&block, &mut shipped);
}

#[test]
fn fitted_shards_merge_under_their_own_binding() {
    let blocks: Vec<BasicBlock> = (0..12)
        .map(|i| parse_block(&format!("add rax, {}\nimul rbx, rcx", i + 1)).unwrap())
        .collect();
    let fitted = hot_haswell();
    let profiler = Profiler::new(fitted, ProfileConfig::bhive().quiet());
    let config = profiler.config().clone();
    let dir = std::env::temp_dir().join(format!("bhive-fitted-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for index in 0..2 {
        let spec = ShardSpec::new(index, 2).unwrap();
        profile_corpus_sharded(&profiler, &blocks, 1, &dir, &Supervision::default(), spec).unwrap();
    }
    let merged = merge_shard_caches(&dir, fitted, &config, 2).unwrap();
    let unique: HashSet<u64> = corpus_keys(&profiler, &blocks)
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(
        merged.records,
        unique.len(),
        "the merge keeps the fitted records"
    );

    // A later shard run pre-seeds from the merged main log (one shard,
    // so no stealing can add misses of its own).
    let spec = ShardSpec::new(0, 1).unwrap();
    let again =
        profile_corpus_sharded(&profiler, &blocks, 1, &dir, &Supervision::default(), spec).unwrap();
    assert_eq!(again.stats.cache.unwrap().misses, 0, "pre-seed is warm");

    // The shipped tables see none of it.
    let shipped = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
    assert_eq!(shipped.open_report().loaded, 0);
    drop(shipped);
    let _ = std::fs::remove_dir_all(&dir);
}
