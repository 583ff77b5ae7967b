//! Protocol client and latency probe for `bhive serve`.
//!
//! Two modes:
//!
//! - **Client** — `serve_probe --addr unix:/path/to.sock <line>...`
//!   connects to a running daemon, roundtrips each argument as one
//!   protocol line, and prints each response line to stdout. This is
//!   what the tier-1 smoke uses to poke a spawned daemon.
//!
//! - **Bench** — `serve_probe --bench [--cold N] [--warm N]` starts an
//!   in-process server on a loopback port, measures client-observed
//!   roundtrip latency for N cold misses (distinct blocks, each
//!   measured on a worker) and N warm hits (the same blocks again,
//!   answered from the warm store), profiles the same blocks directly
//!   for a batch-throughput baseline, and emits one JSON object
//!   (`bhive-bench-pr8/v1`) to stdout.

use bhive_serve::{BindAddr, Client, ServeConfig, Server};
use std::time::Instant;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Distinct single-instruction blocks: `add rax, imm32` (REX.W 81 /0)
/// with a varying immediate, so every block has its own content key
/// but identical (fast) measurement cost.
fn cold_block_hex(i: u32) -> String {
    let imm = i.to_le_bytes();
    format!(
        "4881c0{:02x}{:02x}{:02x}{:02x}",
        imm[0], imm[1], imm[2], imm[3]
    )
}

fn run_client(addr: &str, lines: &[String]) -> Result<(), String> {
    let addr = BindAddr::parse(addr).map_err(|e| format!("--addr: {e}"))?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for line in lines {
        let answer = client
            .roundtrip(line)
            .map_err(|e| format!("roundtrip: {e}"))?;
        println!("{answer}");
    }
    Ok(())
}

fn run_bench(cold: u32, warm: u32) -> Result<(), String> {
    // The probe hammers from one client on purpose; admission control
    // is not what's being measured, so give it unlimited budget.
    let cfg = ServeConfig {
        rate_burst: cold.max(warm) + 1,
        rate_per_sec: 1_000_000.0,
        ..ServeConfig::default()
    };
    let uarch = cfg.uarch;
    let profile = cfg.config.clone();
    let server = Server::bind(cfg, &BindAddr::parse("tcp:127.0.0.1:0").unwrap())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().clone();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;

    // Cold misses: every block unseen, so each roundtrip includes a
    // real measurement on a worker.
    let mut cold_ns: Vec<u64> = Vec::with_capacity(cold as usize);
    let cold_start = Instant::now();
    for i in 0..cold {
        let line = format!(
            r#"{{"op":"predict","id":{i},"hex":"{}"}}"#,
            cold_block_hex(i)
        );
        let t0 = Instant::now();
        let answer = client.roundtrip(&line).map_err(|e| format!("cold: {e}"))?;
        cold_ns.push(t0.elapsed().as_nanos() as u64);
        if !answer.contains(r#""status":"ok""#) {
            return Err(format!("cold block {i} not ok: {answer}"));
        }
    }
    let cold_elapsed = cold_start.elapsed();

    // Warm hits: the same blocks again, answered from the warm store
    // without touching a worker.
    let mut warm_ns: Vec<u64> = Vec::with_capacity(warm as usize);
    let warm_start = Instant::now();
    for i in 0..warm {
        let line = format!(
            r#"{{"op":"predict","id":{i},"hex":"{}"}}"#,
            cold_block_hex(i % cold.max(1))
        );
        let t0 = Instant::now();
        let answer = client.roundtrip(&line).map_err(|e| format!("warm: {e}"))?;
        warm_ns.push(t0.elapsed().as_nanos() as u64);
        if !answer.contains(r#""source":"cache""#) {
            return Err(format!("warm block {i} was not a warm hit: {answer}"));
        }
    }
    let warm_elapsed = warm_start.elapsed();

    drop(client);
    handle.shutdown();
    thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;

    // Batch baseline: the same cold blocks profiled directly, no
    // socket, no admission — what a bulk `bhive measure` pays per
    // block.
    let profiler = bhive_harness::Profiler::new(uarch.desc(), profile);
    let batch_start = Instant::now();
    for i in 0..cold {
        let block = bhive_asm::BasicBlock::from_hex(&cold_block_hex(i))
            .map_err(|e| format!("batch decode: {e}"))?;
        profiler
            .profile(&block)
            .map_err(|e| format!("batch profile: {e}"))?;
    }
    let batch_elapsed = batch_start.elapsed();

    cold_ns.sort_unstable();
    warm_ns.sort_unstable();
    let per_sec = |n: u32, secs: f64| if secs > 0.0 { f64::from(n) / secs } else { 0.0 };
    println!("{{");
    println!("  \"schema\": \"bhive-bench-pr8/v1\",");
    println!(
        "  \"serve_cold_miss_ns\": {{\"n\": {}, \"p50\": {}, \"p99\": {}}},",
        cold_ns.len(),
        percentile(&cold_ns, 0.50),
        percentile(&cold_ns, 0.99)
    );
    println!(
        "  \"serve_warm_hit_ns\": {{\"n\": {}, \"p50\": {}, \"p99\": {}}},",
        warm_ns.len(),
        percentile(&warm_ns, 0.50),
        percentile(&warm_ns, 0.99)
    );
    println!(
        "  \"serve_cold_misses_per_sec\": {:.1},",
        per_sec(cold, cold_elapsed.as_secs_f64())
    );
    println!(
        "  \"serve_warm_hits_per_sec\": {:.1},",
        per_sec(warm, warm_elapsed.as_secs_f64())
    );
    println!(
        "  \"batch_blocks_per_sec\": {:.1}",
        per_sec(cold, batch_elapsed.as_secs_f64())
    );
    println!("}}");
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut bench = false;
    let mut cold = 200u32;
    let mut warm = 1000u32;
    let mut lines: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    let result =
        loop {
            let Some(arg) = it.next() else {
                break if bench {
                    run_bench(cold, warm)
                } else if let Some(addr) = addr {
                    run_client(&addr, &lines)
                } else {
                    Err("usage: serve_probe --addr <addr> <line>... | --bench [--cold N] [--warm N]"
                    .to_string())
                };
            };
            let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--addr" => match take("--addr") {
                    Ok(v) => addr = Some(v),
                    Err(e) => break Err(e),
                },
                "--bench" => bench = true,
                "--cold" => match take("--cold")
                    .and_then(|v| v.parse::<u32>().map_err(|e| format!("--cold: {e}")))
                {
                    Ok(v) => cold = v.max(1),
                    Err(e) => break Err(e),
                },
                "--warm" => match take("--warm")
                    .and_then(|v| v.parse::<u32>().map_err(|e| format!("--warm: {e}")))
                {
                    Ok(v) => warm = v,
                    Err(e) => break Err(e),
                },
                line => lines.push(line.to_string()),
            }
        };
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_probe: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
