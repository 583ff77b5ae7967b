//! The staged replay: one profiling attempt taken apart into the public
//! stage calls `Profiler::profile_with` makes, in its order, each inside
//! a span, so the profiler's cost splits into layer rows:
//!
//! 1. `Machine::recycle` (and the FTZ/DAZ setting);
//! 2. `monitor`, the fault-driven mapping loop;
//! 3. `Machine::take_timing_model` + `Machine::prepare_timing`;
//! 4. `Machine::simulate_double` per unroll factor;
//! 5. `Machine::observe` for the paper's trials and the clean-modal filter.
//!
//! The replay must reproduce `profile_with` bit for bit — same faults,
//! mapped pages and trial cycles — or its rows would time a different
//! computation; [`profile_and_replay`] checks that on every block.

use crate::spans::Recorder;
use crate::stats::{share, unattributed};
use crate::Report;
use bhive_asm::{fnv1a_64, BasicBlock};
use bhive_harness::{
    monitor, Measurement, ProfileConfig, ProfileFailure, Profiler, RetryPolicy, TrialSet,
};
use bhive_sim::{CodeLayout, DynInst, LowerStats, Machine, PerfCounters, TimingModel, CODE_BASE};
use std::collections::BTreeMap;

/// Span names of the replay's rows.
pub const ATTEMPT: &str = "harness.attempt";
pub const ENCODE: &str = "asm.encode";
pub const RECYCLE: &str = "sim.recycle";
pub const MONITOR: &str = "harness.monitor";
pub const PREPARE: &str = "sim.prepare";
pub const SIMULATE: &str = "sim.simulate";
pub const TRIALS: &str = "harness.trials";
pub const PROFILE_WITH: &str = "harness.profile_with";

/// Work counts of a replay, summed over attempts. All are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Attempts replayed (one per distinct block).
    pub attempts: u64,
    /// Attempts that produced a measurement.
    pub successes: u64,
    /// Failed attempts by failure category.
    pub failures: BTreeMap<&'static str, u64>,
    /// Page faults the monitor serviced.
    pub faults: u64,
    /// Attempts that reached the monitor.
    pub monitored: u64,
    /// Instructions of the fault-free trace times the executions that
    /// produced it (one per serviced fault plus the final one).
    pub executed_insts: u64,
    /// Simulate passes (two per `simulate_double`).
    pub sim_passes: u64,
    /// Instructions simulated over all passes.
    pub simulated_insts: u64,
    /// Sum of the accepted cycles of both trial sets of every success.
    pub accepted_cycles: u64,
}

impl ReplayCounts {
    fn fail(&mut self, failure: &ProfileFailure) {
        *self.failures.entry(failure.category()).or_default() += 1;
    }
}

/// Replays attempt 0 of `profiler` on `block` through the stage calls.
///
/// # Panics
///
/// Panics if the profiler's configuration retries: a retried block is
/// several attempts, which one replay does not reproduce.
pub fn staged_attempt(
    profiler: &Profiler,
    block: &BasicBlock,
    machine: &mut Machine,
    rec: &mut Recorder,
    request: u64,
    counts: &mut ReplayCounts,
) -> Result<Measurement, ProfileFailure> {
    assert!(
        !profiler.config().retry.enabled(),
        "the staged replay reproduces single-attempt configurations"
    );
    let root = rec.enter(ATTEMPT, request);
    let result = attempt(profiler, block, machine, rec, request, counts);
    rec.exit(root);
    counts.attempts += 1;
    match &result {
        Ok(m) => {
            counts.successes += 1;
            counts.accepted_cycles += m.hi.accepted_cycles + m.lo.accepted_cycles;
        }
        Err(failure) => counts.fail(failure),
    }
    result
}

fn attempt(
    profiler: &Profiler,
    block: &BasicBlock,
    machine: &mut Machine,
    rec: &mut Recorder,
    request: u64,
    counts: &mut ReplayCounts,
) -> Result<Measurement, ProfileFailure> {
    let config = profiler.config();
    if block.is_empty() {
        return Err(ProfileFailure::InvalidBlock {
            message: "empty block".into(),
        });
    }
    block
        .validate()
        .map_err(|message| ProfileFailure::InvalidBlock { message })?;
    if !profiler.uarch().supports_avx2 && block.uses_avx2() {
        return Err(ProfileFailure::UnsupportedIsa);
    }
    let (encoded, spans) = rec
        .time(ENCODE, request, || block.encode_spanned())
        .map_err(|e| ProfileFailure::Encoding {
            message: e.to_string(),
        })?;
    let (lo_factor, hi_factor) = config.unroll.factors(encoded.len() as u32);
    if hi_factor == 0 {
        return Err(ProfileFailure::InvalidBlock {
            message: "unroll factor must be positive".into(),
        });
    }
    if hi_factor as usize * block.len() > config.max_dynamic_insts {
        return Err(ProfileFailure::InvalidBlock {
            message: format!(
                "block needs {} dynamic instructions, above the watchdog cap",
                hi_factor as usize * block.len()
            ),
        });
    }

    let seed = RetryPolicy::seed_for(fnv1a_64(&encoded), 0);
    rec.time(RECYCLE, request, || {
        machine.recycle(seed, config.noise);
        machine.set_ftz_daz(config.disable_gradual_underflow);
    });
    let trials = RetryPolicy::trials_for(0, config.trials);

    counts.monitored += 1;
    let mapping = rec.time(MONITOR, request, || {
        monitor(machine, block.insts(), hi_factor, config)
    })?;
    counts.faults += u64::from(mapping.faults);
    counts.executed_insts += mapping.trace.len() as u64 * (u64::from(mapping.faults) + 1);

    let prepare = rec.enter(PREPARE, request);
    let layout = CodeLayout::from_spans(spans, CODE_BASE);
    let model = machine.take_timing_model(block.insts());
    machine.prepare_timing(&model, &mapping.trace, &layout);
    rec.exit(prepare);

    let mut stage = Stage {
        config,
        machine,
        model: &model,
        trace: &mapping.trace,
        trials,
        rec,
        request,
        counts,
    };
    let result = (|| {
        let n_hi = mapping.trace.len();
        let n_lo = lo_factor as usize * block.len();
        let hi = stage.measure(hi_factor, n_hi)?;
        let lo = if lo_factor == hi_factor {
            hi.clone()
        } else {
            stage.measure(lo_factor, n_lo)?
        };
        let throughput = if hi.unroll == lo.unroll {
            hi.accepted_cycles as f64 / f64::from(hi.unroll)
        } else {
            if hi.accepted_cycles < lo.accepted_cycles {
                return Err(ProfileFailure::NegativeDelta {
                    lo_cycles: lo.accepted_cycles,
                    hi_cycles: hi.accepted_cycles,
                    lo_unroll: lo.unroll,
                    hi_unroll: hi.unroll,
                });
            }
            (hi.accepted_cycles as f64 - lo.accepted_cycles as f64)
                / f64::from(hi.unroll - lo.unroll)
        };
        let subnormal_events = hi.counters.subnormal_events;
        let misaligned_refs = hi.counters.misaligned_mem_refs;
        Ok(Measurement {
            throughput,
            lo,
            hi,
            mapped_pages: mapping.mapped_pages,
            faults_serviced: mapping.faults,
            subnormal_events,
            misaligned_refs,
            attempt: 0,
        })
    })();
    machine.put_timing_model(model);
    machine.put_trace_buffer(mapping.trace);
    result
}

/// What stages 4 and 5 share for one prepared block.
struct Stage<'a, 'm> {
    config: &'a ProfileConfig,
    machine: &'a mut Machine,
    model: &'a TimingModel<'m>,
    trace: &'a [DynInst],
    trials: u32,
    rec: &'a mut Recorder,
    request: u64,
    counts: &'a mut ReplayCounts,
}

impl Stage<'_, '_> {
    /// One unroll factor: the double simulation, then the trials.
    fn measure(&mut self, unroll: u32, n_insts: usize) -> Result<TrialSet, ProfileFailure> {
        let (machine, model) = (&mut *self.machine, self.model);
        let timing = self
            .rec
            .time(SIMULATE, self.request, || {
                machine.simulate_double(model, n_insts)
            })
            .map_err(|nc| ProfileFailure::NonConvergent {
                cycle_budget: nc.cycle_budget,
                retired: nc.retired as u64,
                total_insts: nc.total_insts as u64,
            })?;
        self.counts.sim_passes += 2;
        self.counts.simulated_insts += 2 * n_insts as u64;
        let id = self.rec.enter(TRIALS, self.request);
        let out = self.trials(&timing, unroll, n_insts);
        self.rec.exit(id);
        out
    }

    /// The misalignment and invariant filters, then the trials and the
    /// clean-modal acceptance rule.
    fn trials(
        &mut self,
        timing: &bhive_sim::TimingResult,
        unroll: u32,
        n_insts: usize,
    ) -> Result<TrialSet, ProfileFailure> {
        let config = self.config;
        let subnormal_events = self.trace[..n_insts]
            .iter()
            .filter(|d| d.effects.subnormal)
            .count() as u64;
        if config.drop_misaligned && timing.misaligned > 0 {
            return Err(ProfileFailure::Misaligned {
                count: timing.misaligned,
            });
        }
        let mut base = self.machine.observe(timing);
        base.context_switches = 0;
        base.core_cycles = timing.cycles;
        base.subnormal_events = subnormal_events;
        if config.enforce_invariants && !base.is_clean() {
            return Err(ProfileFailure::DirtyCounters { counters: base });
        }
        let mut cycles = Vec::with_capacity(self.trials as usize);
        let mut clean = 0u32;
        let mut histogram: BTreeMap<u64, u32> = BTreeMap::new();
        for _ in 0..self.trials {
            let observed = self.machine.observe(timing);
            cycles.push(observed.core_cycles);
            if observed.context_switches == 0 && (!config.enforce_invariants || observed.is_clean())
            {
                clean += 1;
                *histogram.entry(observed.core_cycles).or_default() += 1;
            }
        }
        // Highest count wins; ties go to the lowest cycle count.
        let (accepted_cycles, identical) =
            histogram.iter().fold(
                (0u64, 0u32),
                |best, (&c, &n)| if n > best.1 { (c, n) } else { best },
            );
        if identical < config.min_clean_identical {
            return Err(ProfileFailure::Unreproducible {
                clean,
                identical,
                required: config.min_clean_identical,
            });
        }
        Ok(TrialSet {
            unroll,
            cycles,
            clean,
            identical,
            accepted_cycles,
            counters: PerfCounters {
                core_cycles: accepted_cycles,
                subnormal_events,
                ..base
            },
        })
    }
}

/// Replays `block` on `replay_machine` and profiles it with
/// `Profiler::profile_with` on `profile_machine`, each inside its own
/// span. The two machines must have seen the same blocks before, so
/// their lowering caches agree; the order of the two calls alternates
/// with `request` so neither always runs on a warmer host cache.
///
/// Returns the profiler's outcome, or an error naming the first field
/// where the replay differs from it.
pub fn profile_and_replay(
    profiler: &Profiler,
    block: &BasicBlock,
    replay_machine: &mut Machine,
    profile_machine: &mut Machine,
    rec: &mut Recorder,
    request: u64,
    counts: &mut ReplayCounts,
) -> Result<Result<Measurement, ProfileFailure>, String> {
    let (replayed, profiled) = if request.is_multiple_of(2) {
        let r = staged_attempt(profiler, block, replay_machine, rec, request, counts);
        let p = rec.time(PROFILE_WITH, request, || {
            profiler.profile_with(block, profile_machine)
        });
        (r, p)
    } else {
        let p = rec.time(PROFILE_WITH, request, || {
            profiler.profile_with(block, profile_machine)
        });
        let r = staged_attempt(profiler, block, replay_machine, rec, request, counts);
        (r, p)
    };
    match (&replayed, &profiled) {
        (Ok(r), Ok(p)) => {
            let diffs = [
                ("faults", r.faults_serviced != p.faults_serviced),
                ("mapped pages", r.mapped_pages != p.mapped_pages),
                ("hi trial cycles", r.hi.cycles != p.hi.cycles),
                ("lo trial cycles", r.lo.cycles != p.lo.cycles),
                ("measurement", r != p),
            ];
            if let Some((field, _)) = diffs.iter().find(|(_, differs)| *differs) {
                return Err(format!(
                    "block {request}: replay and profile_with disagree on {field}"
                ));
            }
        }
        (Err(r), Err(p)) if r == p => {}
        _ => {
            return Err(format!(
                "block {request}: replay gave {:?}, profile_with gave {:?}",
                replayed
                    .as_ref()
                    .map(|m| m.throughput)
                    .map_err(|f| f.category()),
                profiled
                    .as_ref()
                    .map(|m| m.throughput)
                    .map_err(|f| f.category()),
            ))
        }
    }
    Ok(profiled)
}

/// Sets the stage rows from a staged replay (per attempt, so that row ×
/// attempts is the row's share of the corpus wall).
pub fn staged_rows(report: &mut Report, rec: &Recorder, counts: &ReplayCounts, lower: LowerStats) {
    let totals = rec.total_by_name();
    let ns = |name: &str| totals.get(name).map_or(0.0, |(ns, _)| *ns as f64);
    let attempts = counts.attempts.max(1) as f64;
    let per_attempt_us = |name: &str| ns(name) / attempts / 1e3;
    report.set("asm.encode_us", per_attempt_us(ENCODE));
    report.set("harness.monitor.us_per_attempt", per_attempt_us(MONITOR));
    report.set(
        "harness.monitor.faults_per_attempt",
        counts.faults as f64 / attempts,
    );
    report.set(
        "harness.monitor.ns_per_executed_inst",
        share(ns(MONITOR), counts.executed_insts as f64),
    );
    report.set(
        "sim.lower.hit_share",
        share(lower.hits as f64, (lower.hits + lower.misses) as f64),
    );
    report.set("sim.prepare.us_per_attempt", per_attempt_us(PREPARE));
    report.set("sim.simulate.us_per_attempt", per_attempt_us(SIMULATE));
    report.set(
        "sim.simulate.passes_per_attempt",
        counts.sim_passes as f64 / attempts,
    );
    report.set(
        "sim.simulate.ns_per_inst",
        share(ns(SIMULATE), counts.simulated_insts as f64),
    );
    report.set("harness.trials.us_per_attempt", per_attempt_us(TRIALS));
    let profiler_us = per_attempt_us(PROFILE_WITH);
    report.set("harness.profiler.us_per_attempt", profiler_us);
    let stages = [ENCODE, MONITOR, PREPARE, SIMULATE, TRIALS].map(per_attempt_us);
    report.set(
        "harness.profiler.unattributed_us",
        unattributed(profiler_us, &stages),
    );

    report.count("replay.attempts", counts.attempts);
    report.count("replay.successes", counts.successes);
    for (category, n) in &counts.failures {
        report.count(format!("replay.failures.{category}"), n);
    }
    report.count("replay.faults", counts.faults);
    report.count("replay.accepted_cycles", counts.accepted_cycles);
    report.count("replay.sim_passes", counts.sim_passes);
    report.count("replay.simulated_insts", counts.simulated_insts);
    report.count("replay.lower_hits", lower.hits);
    report.count("replay.lower_misses", lower.misses);
}
