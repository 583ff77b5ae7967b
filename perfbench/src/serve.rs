//! `serve-mix`: an in-process `bhive serve` on a Unix socket with two
//! profiling workers, and two closed-loop clients — each sends its next
//! `predict` only after the reply — drawing real corpus blocks with
//! seeded, Zipf-skewed popularity. Set-up pre-warms half of the blocks.

use crate::corpus::{self, UARCH};
use crate::replay::{self, staged_rows, ReplayCounts};
use crate::spans::Recorder;
use crate::stats::{share, steady_rate, unattributed, Histogram};
use crate::{fresh_dir, timed_setup, trace_overhead, write_spans, Report, RunSpec};
use bhive_asm::BasicBlock;
use bhive_harness::{profile_corpus_cached, CachedOutcome, MeasurementCache, ObsConfig, Profiler};
use bhive_serve::{
    ok_response, parse_request, BindAddr, Client, ClientLimiter, Request, ServeConfig,
    ServeSummary, Server, ServerHandle,
};
use bhive_sim::{LowerStats, Machine};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections, one thread each; no more than the host's CPUs.
pub const CLIENTS: usize = 2;
/// Profiling workers in the server.
pub const WORKERS: usize = 2;
/// Zipf exponent of block popularity.
pub const ZIPF_S: f64 = 1.0;

/// A request as a client sends it and the block it names.
pub struct Item {
    pub block: BasicBlock,
    pub line: String,
    pub warm: bool,
}

/// The distinct corpus blocks in popularity order (rank 0 is the most
/// popular), every other rank pre-warmed.
pub fn items(seed: u64) -> Vec<Item> {
    let profiler = Profiler::new(UARCH.desc(), corpus::config());
    let mut blocks: Vec<BasicBlock> = corpus::distinct(&corpus::generate(seed), &profiler)
        .into_iter()
        .map(|(_, block)| block)
        .collect();
    blocks.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x5e4e_u64));
    blocks
        .into_iter()
        .enumerate()
        .map(|(rank, block)| {
            let hex = block.to_hex().expect("keyed blocks encode");
            Item {
                line: format!("{{\"op\":\"predict\",\"hex\":\"{hex}\",\"client\":\"bench\"}}"),
                block,
                warm: rank % 2 == 0,
            }
        })
        .collect()
}

/// Cumulative Zipf weights over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn draw(cdf: &[f64], rng: &mut SmallRng) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The server configuration: admission sized so it never refuses at
/// this load, deadlines far beyond any measurement, observability off.
pub fn serve_config(cache_dir: &Path) -> ServeConfig {
    ServeConfig {
        uarch: UARCH,
        config: corpus::config(),
        cache_dir: Some(cache_dir.to_path_buf()),
        workers: WORKERS,
        queue_capacity: 4 * CLIENTS,
        rate_burst: u32::MAX,
        rate_per_sec: 1e9,
        default_deadline: Duration::from_secs(60),
        obs: ObsConfig::default(),
        ..ServeConfig::default()
    }
}

struct Running {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
    addr: BindAddr,
}

impl Running {
    fn stop(self) -> ServeSummary {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread does not panic")
            .expect("server drains cleanly")
    }
}

/// Fills a fresh cache with the warm half, then binds the server on it.
fn start(items: &[Item], work: &Path, rep: usize) -> Running {
    let dir = fresh_dir(&work.join(format!("cache-{rep}")));
    let profiler = Profiler::new(UARCH.desc(), corpus::config());
    let warm: Vec<BasicBlock> = items
        .iter()
        .filter(|i| i.warm)
        .map(|i| i.block.clone())
        .collect();
    {
        let mut cache =
            MeasurementCache::open(&dir, UARCH, &corpus::config()).expect("cache opens");
        profile_corpus_cached(&profiler, &warm, 1, Some(&mut cache));
    }
    // A relative socket path stays under the kernel's 108-byte limit
    // however deep the checkout is.
    static SOCKETS: AtomicUsize = AtomicUsize::new(0);
    let n = SOCKETS.fetch_add(1, Ordering::Relaxed);
    let sock = PathBuf::from(format!(".bench_s{}_{n}.sock", std::process::id()));
    let server = Server::bind(serve_config(&dir), &BindAddr::Unix(sock)).expect("server binds");
    let addr = server.local_addr().clone();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Running {
        handle,
        thread,
        addr,
    }
}

/// Throughput is counted per window of this length.
const WINDOW: Duration = Duration::from_millis(250);

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    hits: Histogram,
    misses: Histogram,
    /// Answers completed per [`WINDOW`] since the loop started.
    windows: Vec<u64>,
    /// Distinct (rank, answer) pairs.
    answers: HashMap<(usize, String), u64>,
    requests: u64,
    failed: u64,
    thread_cpu_s: f64,
}

/// Classifies an answer: `Some(true)` for a warm hit, `Some(false)` for
/// a measured miss, `None` for a rejected, timed-out or erroring one.
fn classify(answer: &str, answered_before: bool) -> Option<bool> {
    if answer.contains("\"status\":\"ok\"") {
        Some(answer.contains("\"source\":\"cache\""))
    } else if answer.contains("\"status\":\"failed\"") {
        // Permanent failures are cached and answer warm afterwards;
        // transient ones are never cached, so they are measured again.
        Some(answered_before && !answer.contains("\"class\":\"transient\""))
    } else {
        None
    }
}

fn client_loop(
    addr: &BindAddr,
    items: &[Item],
    answered: &[AtomicBool],
    cdf: &[f64],
    seed: u64,
    started: Instant,
    until: Instant,
) -> ClientLog {
    let mut client = Client::connect(addr).expect("client connects");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut log = ClientLog::default();
    let cpu0 = crate::sys::thread_cpu();
    while Instant::now() < until {
        let rank = draw(cdf, &mut rng);
        let before = answered[rank].load(Ordering::SeqCst);
        let sent = Instant::now();
        let answer = client.roundtrip(&items[rank].line).expect("server answers");
        let done = Instant::now();
        let ns = (done - sent).as_nanos() as u64;
        log.requests += 1;
        match classify(&answer, before) {
            Some(true) => log.hits.record(ns),
            Some(false) => log.misses.record(ns),
            None => log.failed += 1,
        }
        let window = ((done - started).as_nanos() / WINDOW.as_nanos()) as usize;
        if log.windows.len() <= window {
            log.windows.resize(window + 1, 0);
        }
        log.windows[window] += 1;
        answered[rank].store(true, Ordering::SeqCst);
        *log.answers.entry((rank, answer)).or_default() += 1;
    }
    log.thread_cpu_s = (crate::sys::thread_cpu() - cpu0).as_secs_f64();
    log
}

/// The answer `bhive serve` must give for `block`: `profile_with`'s
/// outcome in the protocol's words, from either source.
fn expected(
    outcome: &Result<bhive_harness::Measurement, bhive_harness::ProfileFailure>,
) -> [String; 2] {
    match outcome {
        Ok(m) => [
            ok_response(None, m.throughput, "cache"),
            ok_response(None, m.throughput, "measured"),
        ],
        Err(f) => {
            let line = bhive_serve::failed_response(None, f);
            [line.clone(), line]
        }
    }
}

pub fn run(spec: &RunSpec) -> Report {
    let mut report = Report::default();
    let items = items(spec.seed);
    let cdf = zipf_cdf(items.len(), ZIPF_S);
    let (server, setup_s) = timed_setup(
        |rep| {
            let server = start(&items, &spec.work, rep);
            // Warm-up before the loop: one hit through a fresh connection.
            let warm = items.iter().find(|i| i.warm).expect("a warm block");
            Client::connect(&server.addr)
                .and_then(|mut c| c.roundtrip(&warm.line))
                .expect("warm-up answer");
            server
        },
        |server| {
            server.stop();
        },
    );

    let answered: Vec<AtomicBool> = items.iter().map(|i| AtomicBool::new(i.warm)).collect();
    let until = Instant::now() + spec.seconds;
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, items, answered, cdf) = (&server.addr, &items, &answered, &cdf);
                let seed = spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c as u64;
                scope.spawn(move || client_loop(addr, items, answered, cdf, seed, started, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let summary = server.stop();

    let (mut hits, mut misses) = (Histogram::default(), Histogram::default());
    let mut windows: Vec<u64> = Vec::new();
    for log in &logs {
        hits.merge(&log.hits);
        misses.merge(&log.misses);
        if windows.len() < log.windows.len() {
            windows.resize(log.windows.len(), 0);
        }
        for (w, n) in windows.iter_mut().zip(&log.windows) {
            *w += n;
        }
    }
    // The last window is cut short by the deadline.
    windows.pop();
    let window_rates: Vec<f64> = windows
        .iter()
        .map(|&n| n as f64 / WINDOW.as_secs_f64())
        .collect();
    let requests: u64 = logs.iter().map(|l| l.requests).sum();
    report.attempted = requests;
    // Each refused or erroring request is already a failed operation.
    report.failed = logs.iter().map(|l| l.failed).sum();
    if report.failed > 0 {
        let failed = report.failed;
        report
            .problems
            .push(format!("{failed} requests rejected, timed out or failed"));
    }
    report.check(summary.counters.rejected == 0, || {
        format!("admission refused {} requests", summary.counters.rejected)
    });

    // Every answer must be `profile_with`'s outcome for its block.
    let profiler = Profiler::new(UARCH.desc(), corpus::config());
    let mut machine = Machine::new(profiler.uarch(), 0);
    let mut answers: BTreeMap<usize, Vec<&String>> = BTreeMap::new();
    for log in &logs {
        for (rank, answer) in log.answers.keys() {
            answers.entry(*rank).or_default().push(answer);
        }
    }
    let mut digest = Vec::new();
    for (rank, got) in &answers {
        let outcome = profiler.profile_with(&items[*rank].block, &mut machine);
        let want = expected(&outcome);
        for answer in got {
            report.check(want.contains(answer), || {
                format!(
                    "rank {rank}: answer {answer} is not profile_with's {:?}",
                    want[0]
                )
            });
        }
        digest.extend_from_slice(want[0].as_bytes());
    }
    report.count("serve.distinct_blocks", items.len());
    report.count("serve.warm_blocks", items.iter().filter(|i| i.warm).count());
    report.note(format!(
        "serve-mix: {requests} requests over {wall:.3} s, {} hits, {} misses, {} distinct blocks answered (digest {:016x}); client thread CPU {:.3} s",
        hits.len(),
        misses.len(),
        answers.len(),
        bhive_asm::fnv1a_64(&digest),
        logs.iter().map(|l| l.thread_cpu_s).sum::<f64>(),
    ));

    let quantile = |report: &mut Report, samples: &Histogram, q: f64, what: &str| {
        let value = samples.percentile(q);
        report.check(value.is_some(), || {
            format!(
                "{what}: {} samples leave fewer than 10 beyond the {q} quantile",
                samples.len()
            )
        });
        value.unwrap_or(0) as f64 / 1e3
    };
    let hit_p50 = quantile(&mut report, &hits, 0.5, "hits");
    let hit_p95 = quantile(&mut report, &hits, 0.95, "hits");
    let miss_p50 = quantile(&mut report, &misses, 0.5, "misses");
    let miss_p95 = quantile(&mut report, &misses, 0.95, "misses");
    report.note(format!(
        "serve-mix answers per {WINDOW:?} window: {windows:?}; steady {:.1}/s, whole run {:.1}/s",
        steady_rate(&window_rates).unwrap_or(0.0),
        requests as f64 / wall
    ));
    report.note(format!(
        "serve-mix latency: hit p50 {hit_p50:.2} us p95 {hit_p95:.2} us (n={}), miss p50 {miss_p50:.2} us p95 {miss_p95:.2} us (n={})",
        hits.len(),
        misses.len()
    ));

    if spec.trace {
        report.set("serve.hit_p50_us", hit_p50);
        report.set("serve.hit_p95_us", hit_p95);
        report.set("serve.miss_p50_us", miss_p50);
        report.set("serve.miss_p95_us", miss_p95);
        report.set(
            "serve.hit_share",
            share(hits.len() as f64, (hits.len() + misses.len()) as f64),
        );
        report.set("serve.rejected", summary.counters.rejected as f64);
        report.set("harness.cache.gets", summary.counters.requests as f64);
        report.set("harness.cache.inserts", summary.counters.measured as f64);
        traced(spec, &mut report, &items, hit_p50, miss_p50);
    } else {
        report.set("setup_s", setup_s);
        report.set(
            "ops_per_s",
            // A loop shorter than two windows has no whole window.
            steady_rate(&window_rates).unwrap_or(requests as f64 / wall),
        );
        report.set("peak_rss_mb", crate::sys::peak_rss_mb());
    }
    report
}

/// Times each call a hit and a miss make, from outside, on every
/// distinct request line: parse, decode, admit, lookup, measure, insert
/// and respond. What the hit and miss medians leave is socket, thread
/// handoff and queueing.
fn traced(spec: &RunSpec, report: &mut Report, items: &[Item], hit_p50: f64, miss_p50: f64) {
    let profiler = Profiler::new(UARCH.desc(), corpus::config());
    let mut rec = Recorder::new();
    let dir = spec.work.join(format!("cache-{}", crate::SETUP_REPS - 1));
    let cache = rec.time("harness.cache.open", 0, || {
        MeasurementCache::open(&dir, UARCH, &corpus::config()).expect("server cache reopens")
    });
    let mut limiter = ClientLimiter::new(u32::MAX, 1e9);
    let scratch = fresh_dir(&spec.work.join("traced-inserts"));
    let mut inserts =
        MeasurementCache::open(&scratch, UARCH, &corpus::config()).expect("scratch cache opens");
    let mut counts = ReplayCounts::default();
    let mut lower = LowerStats::default();
    // Untimed sweeps first, so each call is timed with warm host caches,
    // as the server's hot path runs it.
    for _ in 0..2 {
        for item in items {
            if let Ok(Request::Predict(p)) = parse_request(&item.line) {
                let block = p.block.decode().expect("hex decodes");
                let key = profiler.content_key(&block).expect("keyed block");
                if let Some(outcome) = cache.get(key) {
                    respond(&outcome.clone().into_result());
                }
            }
        }
    }
    let (mut hit_calls, mut miss_calls) = (0u64, 0u64);
    for (i, item) in items.iter().enumerate() {
        let request = i as u64;
        let parsed = rec.time("serve.parse", request, || parse_request(&item.line));
        let Ok(Request::Predict(p)) = parsed else {
            report.check(false, || format!("rank {i}: request line does not parse"));
            continue;
        };
        let block = rec
            .time("asm.hex_decode", request, || p.block.decode())
            .expect("hex decodes");
        let admitted = rec.time("serve.admit", request, || {
            limiter.admit(&p.client, Instant::now())
        });
        report.check(admitted, || format!("rank {i}: admission refused"));
        let key = rec
            .time(replay::ENCODE, request, || profiler.content_key(&block))
            .expect("keyed block");
        let cached = rec.time("harness.cache.get", request, || cache.get(key).cloned());
        if item.warm {
            hit_calls += 1;
            let outcome = cached.expect("warm block is cached").into_result();
            rec.time("serve.respond", request, || respond(&outcome));
        } else {
            // A miss: the server's worker profiles on a fresh machine,
            // so the replay and the profile each get one.
            miss_calls += 1;
            let (mut a, mut b) = (
                Machine::new(profiler.uarch(), 0),
                Machine::new(profiler.uarch(), 0),
            );
            let replayed = replay::profile_and_replay(
                &profiler,
                &block,
                &mut a,
                &mut b,
                &mut rec,
                request,
                &mut counts,
            );
            lower.hits += a.lower_stats().hits;
            lower.misses += a.lower_stats().misses;
            match replayed {
                Ok(outcome) => {
                    let record: CachedOutcome = outcome.clone().into();
                    if !record.is_transient_failure() {
                        rec.time("harness.cache.insert", request, || {
                            inserts.insert(key, record)
                        })
                        .expect("scratch insert succeeds");
                    }
                    rec.time("serve.respond", request, || respond(&outcome));
                }
                Err(diff) => report.check(false, || diff),
            }
        }
    }
    report.attempted += counts.attempts;
    let per = |name: &str, calls: u64| share(rec.total_ns(name) as f64, calls as f64);
    let n = items.len() as u64;
    let parse_us = per("serve.parse", n) / 1e3;
    let decode_us = per("asm.hex_decode", n) / 1e3;
    let admit_ns = per("serve.admit", n);
    let key_us = per(replay::ENCODE, n) / 1e3;
    let get_ns = per("harness.cache.get", n);
    let respond_us = per("serve.respond", n) / 1e3;
    let inserted = rec
        .spans()
        .iter()
        .filter(|s| s.name == "harness.cache.insert")
        .count() as u64;
    let insert_us = per("harness.cache.insert", inserted) / 1e3;
    let profile_us = per(replay::PROFILE_WITH, miss_calls) / 1e3;
    let front_us = [
        parse_us,
        decode_us,
        admit_ns / 1e3,
        key_us,
        get_ns / 1e3,
        respond_us,
    ];

    // The stage rows come from the miss replays; `asm.encode_us` here is
    // the content-key computation each request makes.
    staged_rows(report, &rec, &counts, lower);
    report.set("asm.encode_us", key_us);
    report.set("asm.hex_decode_us", decode_us);
    report.set("serve.parse_us", parse_us);
    report.set("serve.admit_ns", admit_ns);
    report.set("serve.respond_us", respond_us);
    report.set(
        "harness.cache.open_ms",
        rec.total_ns("harness.cache.open") as f64 / 1e6,
    );
    report.set("harness.cache.get_ns", get_ns);
    report.set("harness.cache.insert_us", insert_us);
    report.set(
        "harness.cache.log_bytes",
        std::fs::metadata(MeasurementCache::log_path(&dir, UARCH)).map_or(0.0, |m| m.len() as f64),
    );
    report.set(
        "serve.hit_unattributed_us",
        unattributed(hit_p50, &front_us),
    );
    let mut miss_parts = front_us.to_vec();
    miss_parts.extend([profile_us, insert_us]);
    report.set("serve.miss_wait_us", unattributed(miss_p50, &miss_parts));
    report.note(format!(
        "serve-mix sweep: {hit_calls} hit paths, {miss_calls} miss paths timed"
    ));
    trace_overhead(report, &rec);
    write_spans(spec, &rec);
}

fn respond(outcome: &Result<bhive_harness::Measurement, bhive_harness::ProfileFailure>) -> String {
    match outcome {
        Ok(m) => ok_response(None, m.throughput, "cache"),
        Err(f) => bhive_serve::failed_response(None, f),
    }
}
