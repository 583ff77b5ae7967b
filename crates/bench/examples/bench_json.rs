//! Machine-readable perf probe: times the corpus pipeline end-to-end and
//! the simulation stages per block, then emits one JSON object (for
//! `scripts/bench.sh`, which writes it to `BENCH_PR9.json`).
//!
//! Unlike the Criterion benches this runs in seconds, so it can gate
//! tier-1 (`--smoke`) and feed a perf-trajectory dashboard without a
//! multi-minute bench session.
//!
//! Usage: `cargo run --release -p bhive-bench --example bench_json [--smoke]`

use bhive_asm::BasicBlock;
use bhive_bench::bench_corpus;
use bhive_harness::{
    profile_corpus, profile_corpus_supervised, ObsConfig, ProfileConfig, Profiler, Supervision,
};
use bhive_sim::{Cache, Machine, SimdTier, CODE_BASE};
use bhive_uarch::Uarch;
use std::time::Instant;

/// The ≥1.1k-block bench corpus with realistic duplicate density (same
/// construction as `benches/corpus.rs`).
fn duplicated_corpus(target: usize) -> Vec<BasicBlock> {
    let unique = bench_corpus().basic_blocks();
    let mut blocks = Vec::with_capacity(target);
    let mut cursor = 0usize;
    while blocks.len() < target.max(unique.len()) {
        blocks.push(unique[cursor % unique.len()].clone());
        cursor += 7;
    }
    blocks
}

fn secs(f: f64) -> f64 {
    (f * 1e4).round() / 1e4
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let target = if smoke { 64 } else { 1100 };
    let reps = if smoke { 1 } else { 3 };
    let blocks = duplicated_corpus(target);
    let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // End-to-end cold corpus, single thread (the acceptance metric): best
    // of `reps` runs, so one scheduling hiccup cannot sink the number.
    let mut cold_1t = f64::INFINITY;
    let mut successes = 0usize;
    for _ in 0..reps {
        let started = Instant::now();
        let report = profile_corpus(&profiler, &blocks, 1);
        cold_1t = cold_1t.min(started.elapsed().as_secs_f64());
        successes = report.successes();
    }

    // The same cold single-thread run with observability on: event
    // tracing + metrics must cost ≤2% blocks/s (the acceptance bar).
    let observed = Supervision::with_obs(ObsConfig::on());
    let mut cold_1t_obs = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let report = profile_corpus_supervised(&profiler, &blocks, 1, None, &observed);
        cold_1t_obs = cold_1t_obs.min(started.elapsed().as_secs_f64());
        assert!(report.stats.obs.is_some(), "observed run records obs");
    }

    // End-to-end cold corpus, all threads.
    let mut cold_nt = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let _ = profile_corpus(&profiler, &blocks, threads);
        cold_nt = cold_nt.min(started.elapsed().as_secs_f64());
    }

    // Per-stage costs over the unique blocks. The prepared trace and
    // simulation scratch are reused across blocks exactly like the
    // worker machines' timing arena, so the stage numbers reflect the
    // pipeline's amortized per-block cost rather than allocator behavior.
    //
    // Functional execution is split the way the pipeline experiences it:
    // the *monitor* stage (the fault-service loop — reset, execute,
    // map the faulting page, restart, until fault-free) and the
    // *measured* stage (one fault-free execution over mapped memory).
    // The measured stage is timed through both executors — the lowered
    // `ExecOp` path the pipeline runs, and the retained reference
    // interpreter — so the JSON carries its own before/after.
    let unique = bench_corpus().basic_blocks();
    let mut machine = Machine::new(Uarch::haswell(), 0);
    let mut prep = bhive_sim::PreparedTrace::default();
    let mut scratch = bhive_sim::SimScratch::default();
    let mut trace = Vec::new();
    let mut monitor_ns = 0.0f64;
    let mut exec_ns = 0.0f64;
    let mut exec_ref_ns = 0.0f64;
    let mut faults_total = 0u64;
    let mut prepare_ns = 0.0f64;
    let mut prepare_static_ns = 0.0f64;
    let mut simulate_ns = 0.0f64;
    let mut staged = 0usize;
    for block in &unique {
        let Ok(encoded) = block.encode() else {
            continue;
        };
        let unroll = 16u32;
        machine.recycle(
            bhive_asm::fnv1a_64(&encoded),
            bhive_sim::NoiseConfig::quiet(),
        );

        // ---- Monitor stage: the fault-service loop, timed whole. ----
        let fill = 0x1234_5600u64;
        let mut shared: Option<bhive_sim::PhysPage> = None;
        let mut faults = 0u64;
        let started = Instant::now();
        let mapped = loop {
            machine.reset(fill);
            machine.memory_mut().refill_all(fill);
            match machine.execute_unrolled_into(block.insts(), unroll, &mut trace) {
                Ok(()) => break true,
                Err(bhive_sim::ExecFault::Seg(fault)) => {
                    faults += 1;
                    if faults > 64 || fault.vaddr < 0x1000 || fault.vaddr >= (1 << 47) {
                        break false;
                    }
                    let phys = *shared.get_or_insert_with(|| machine.memory_mut().alloc_page(fill));
                    machine.memory_mut().map(fault.vaddr, phys);
                }
                Err(_) => break false,
            }
        };
        if !mapped {
            continue;
        }
        monitor_ns += started.elapsed().as_nanos() as f64;
        faults_total += faults;

        // ---- Measured stage: fault-free execution, both executors. ----
        const STAGE_REPS: usize = 3;
        let mut best = f64::INFINITY;
        for _ in 0..STAGE_REPS {
            machine.reset(fill);
            machine.memory_mut().refill_all(fill);
            let started = Instant::now();
            machine
                .execute_unrolled_into(block.insts(), unroll, &mut trace)
                .expect("monitor left the block fault-free");
            best = best.min(started.elapsed().as_nanos() as f64);
        }
        exec_ns += best;
        let mut best_ref = f64::INFINITY;
        for _ in 0..STAGE_REPS {
            machine.reset(fill);
            machine.memory_mut().refill_all(fill);
            let started = Instant::now();
            machine
                .execute_unrolled_reference_into(block.insts(), unroll, &mut trace)
                .expect("monitor left the block fault-free");
            best_ref = best_ref.min(started.elapsed().as_nanos() as f64);
        }
        exec_ref_ns += best_ref;

        let Ok(layout) = bhive_sim::CodeLayout::from_block(block.insts(), CODE_BASE) else {
            continue;
        };
        // The static half of prepare (uop decomposition, slot tables,
        // fusion) is what the machine now caches across attempts; time
        // it separately from the per-trace compilation.
        let mut best_static = f64::INFINITY;
        for _ in 0..STAGE_REPS {
            let started = Instant::now();
            let _ = std::hint::black_box(bhive_sim::StaticPrep::build(
                block.insts(),
                Uarch::haswell(),
            ));
            best_static = best_static.min(started.elapsed().as_nanos() as f64);
        }
        prepare_static_ns += best_static;
        let model = bhive_sim::TimingModel::new(block.insts(), Uarch::haswell());
        let mut l1i = Cache::new(Uarch::haswell().l1i);
        let mut l1d = Cache::new(Uarch::haswell().l1d);
        stage_times(
            &model,
            &trace,
            &layout,
            &mut l1i,
            &mut l1d,
            &mut prep,
            &mut scratch,
            &mut prepare_ns,
            &mut simulate_ns,
        );
        staged += 1;
    }
    let lower = machine.lower_stats();
    let staged = staged.max(1) as f64;

    // Throughput over *measured* blocks: failed blocks never produce a
    // measurement, so dividing attempted blocks by wall time deflated
    // the number (1100 attempted vs ~1042 measured). Both rates are
    // emitted; `cold_blocks_per_sec_1t` now means measured blocks.
    let measured = successes as f64;

    println!("{{");
    println!("  \"bench\": \"bhive-perf\",");
    println!("  \"corpus_blocks\": {},", blocks.len());
    println!("  \"successes\": {successes},");
    println!("  \"threads\": {threads},");
    println!("  \"simd_tier\": \"{}\",", SimdTier::active().name());
    println!("  \"cold_secs_1t\": {},", secs(cold_1t));
    println!("  \"cold_blocks_per_sec_1t\": {:.1},", measured / cold_1t);
    println!(
        "  \"cold_attempted_per_sec_1t\": {:.1},",
        blocks.len() as f64 / cold_1t
    );
    println!("  \"cold_secs_1t_obs\": {},", secs(cold_1t_obs));
    println!(
        "  \"cold_blocks_per_sec_1t_obs\": {:.1},",
        measured / cold_1t_obs
    );
    println!(
        "  \"obs_overhead_pct\": {:.2},",
        (cold_1t_obs / cold_1t - 1.0) * 100.0
    );
    println!("  \"cold_secs_nt\": {},", secs(cold_nt));
    println!("  \"cold_blocks_per_sec_nt\": {:.1},", measured / cold_nt);
    println!(
        "  \"cold_attempted_per_sec_nt\": {:.1},",
        blocks.len() as f64 / cold_nt
    );
    println!("  \"monitor_ns_per_block\": {:.0},", monitor_ns / staged);
    println!(
        "  \"faults_per_block\": {:.2},",
        faults_total as f64 / staged
    );
    println!("  \"execute_ns_per_block\": {:.0},", exec_ns / staged);
    println!(
        "  \"execute_ref_ns_per_block\": {:.0},",
        exec_ref_ns / staged
    );
    println!(
        "  \"execute_speedup\": {:.2},",
        if exec_ns > 0.0 {
            exec_ref_ns / exec_ns
        } else {
            0.0
        }
    );
    println!("  \"prepare_ns_per_block\": {:.0},", prepare_ns / staged);
    println!(
        "  \"prepare_static_ns_per_block\": {:.0},",
        prepare_static_ns / staged
    );
    println!("  \"lower_hits\": {},", lower.hits);
    println!("  \"lower_misses\": {},", lower.misses);
    println!("  \"simulate_ns_per_block\": {:.0}", simulate_ns / staged);
    println!("}}");
}

/// Times the schedule-independent preparation, then the paper's literal
/// double execution (a warm-up and a measured pass) for both unroll
/// prefixes — four simulated passes per prepared block.
/// `simulate_ns_per_block` is the mean cost of one such pass. The
/// profiler's `simulate_double` simulates only the two measured passes:
/// it replaces each warm-up with a cache-state replay, so this figure
/// prices a pass, not what a profiled block pays in total.
///
/// Like `cold_1t`, each stage takes the best of [`STAGE_REPS`] repeats so
/// one scheduling hiccup cannot sink the number; the caches are flushed
/// before every repeat so each one times an identical cold quad.
#[allow(clippy::too_many_arguments)]
fn stage_times(
    model: &bhive_sim::TimingModel<'_>,
    trace: &[bhive_sim::DynInst],
    layout: &bhive_sim::CodeLayout,
    l1i: &mut Cache,
    l1d: &mut Cache,
    prep: &mut bhive_sim::PreparedTrace,
    scratch: &mut bhive_sim::SimScratch,
    prepare_ns: &mut f64,
    simulate_ns: &mut f64,
) {
    const STAGE_REPS: usize = 3;
    let mut best_prep = f64::INFINITY;
    for _ in 0..STAGE_REPS {
        let started = Instant::now();
        model.prepare_into(prep, trace, layout);
        best_prep = best_prep.min(started.elapsed().as_nanos() as f64);
    }
    *prepare_ns += best_prep;
    // The lo-factor trace is a prefix of the hi-factor one (16 copies);
    // the profiler replays half the copies as its second measurement.
    let lo_insts = trace.len() / 16 * 8;
    let mut best_sim = f64::INFINITY;
    for _ in 0..STAGE_REPS {
        l1i.flush();
        l1d.flush();
        let started = Instant::now();
        for n_insts in [lo_insts, lo_insts, trace.len(), trace.len()] {
            let _ = std::hint::black_box(model.simulate_with(prep, n_insts, l1i, l1d, scratch));
        }
        best_sim = best_sim.min(started.elapsed().as_nanos() as f64 / 4.0);
    }
    *simulate_ns += best_sim;
}
