//! The paper's motivating example (Fig. 1): the Gzip `updcrc` inner loop.
//!
//! This block indexes a lookup table through computed pointer values, so
//! it cannot execute outside its application — unless the measurement
//! framework maps the pages it touches. This example walks through
//! exactly what the paper's §3 describes:
//!
//! 1. naive execution crashes;
//! 2. the monitor intercepts the faults and maps every accessed virtual
//!    page to one physical page;
//! 3. the measured throughput is compared with the models' predictions,
//!    reproducing the case-study row (llvm-mca overpredicts because it
//!    cannot split the `xor al, [rdi-1]` load micro-op).
//!
//! Run with: `cargo run --release --example gzip_crc`

use bhive::corpus::special;
use bhive::corpus::Scale;
use bhive::eval::Pipeline;
use bhive::harness::{monitor, ProfileConfig, Profiler};
use bhive::sim::Machine;
use bhive::uarch::{Uarch, UarchKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let block = special::updcrc();
    println!("Gzip updcrc inner-loop body (paper Fig. 1):\n{block}\n");

    // --- 1. Without page mapping the block simply crashes. ---
    let mut machine = Machine::new(Uarch::haswell(), 0);
    machine.reset(0x1234_5600);
    match machine.run(block.insts(), 4) {
        Err(fault) => println!("naive execution: {fault}"),
        Ok(_) => println!("naive execution unexpectedly succeeded"),
    }

    // --- 2. The monitor services the faults, page by page. ---
    let config = ProfileConfig::bhive();
    let mut machine = Machine::new(Uarch::haswell(), 0);
    let outcome = monitor(&mut machine, block.insts(), 16, &config)?;
    println!(
        "monitor: {} page faults serviced, {} virtual pages mapped onto {} physical page(s)",
        outcome.faults,
        outcome.mapped_pages,
        machine.memory().distinct_phys_pages(),
    );

    // --- 3. Full measurement + model comparison. ---
    let profiler = Profiler::new(Uarch::haswell(), config);
    let measurement = profiler.profile(&block)?;
    println!(
        "\nmeasured: {:.2} cycles/iteration (paper: 8.25)",
        measurement.throughput
    );
    let pipeline = Pipeline::new(Scale::PerApp(60), 42, 0);
    println!("predictions (paper: iaca 8.00, llvm-mca 13.04, ithemal 2.13, osaca -):");
    for model in pipeline.models(UarchKind::Haswell) {
        match model.predict(&block) {
            Some(tp) => println!("  {:<10} {:>7.2}", model.name(), tp),
            None => println!("  {:<10} {:>7}", model.name(), "-"),
        }
    }

    // --- 4. Why llvm-mca overpredicts: the schedules disagree. ---
    let iaca = bhive::models::IacaModel::new(UarchKind::Haswell.desc());
    let mca = bhive::models::McaModel::new(UarchKind::Haswell.desc());
    use bhive::models::ThroughputModel;
    for model in [&iaca as &dyn ThroughputModel, &mca] {
        if let Some(schedule) = model.schedule(&block) {
            println!("\n{}", schedule.render(72));
        }
    }
    Ok(())
}
