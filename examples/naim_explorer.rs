//! NAIM explorer: watch the loader manage transitory pools directly.
//!
//! Uses the `cmo-naim` API on real routine IR to show the §4 machinery:
//! pools moving between expanded, unload-pending (cached), compacted,
//! and offloaded states as the memory thresholds engage; the time/space
//! ledger; and the cache rescue that makes re-touching a pending pool
//! free.
//!
//! Run with `cargo run --release --example naim_explorer`.

use cmo_frontend::compile_module;
use cmo_ir::{link_objects, Transitory};
use cmo_naim::{
    Loader, MemClass, NaimConfig, PoolKind, PoolState, IR_COMPACTION_THRESHOLD, OFFLOAD_THRESHOLD,
    ST_COMPACTION_THRESHOLD,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build some real routine IR to put in pools.
    let mut objects = Vec::new();
    for m in 0..24 {
        let src = format!(
            r#"
            static tab_{m}: int[128] = [1, 2, 3];
            fn work_{m}(x: int) -> int {{
                var acc: int = x;
                var i: int = 0;
                while (i < 10) {{
                    acc = acc + tab_{m}[acc % 128] + i * {m};
                    i = i + 1;
                }}
                return acc;
            }}
            "#
        );
        objects.push(compile_module(&format!("m{m}"), &src)?);
    }
    let unit = link_objects(objects)?;

    // A deliberately tiny budget so every NAIM measure engages.
    let config = NaimConfig::with_budget(24 * 1024);
    println!(
        "budget {} B; thresholds: IR compaction at {:.0}%, symbol tables at {:.0}%, offload at {:.0}%",
        config.budget_bytes,
        IR_COMPACTION_THRESHOLD * 100.0,
        ST_COMPACTION_THRESHOLD * 100.0,
        OFFLOAD_THRESHOLD * 100.0
    );
    let mut loader: Loader<Transitory> = Loader::new(config);

    let mut pools = Vec::new();
    for (i, body) in unit.bodies.iter().enumerate() {
        let id = loader.insert(Transitory::Routine(body.clone()), PoolKind::Ir);
        loader.unload(id)?;
        pools.push(id);
        if i % 6 == 5 {
            let (expanded, pending, compact, offloaded) = loader.census();
            println!(
                "after {:>2} pools: {:>2} expanded, {:>2} pending, {:>2} compact, {:>2} offloaded — {}",
                i + 1,
                expanded,
                pending,
                compact,
                offloaded,
                loader.memory()
            );
        }
    }

    // Touch an old pool: it must come back transparently.
    let victim = pools[0];
    println!("\npool 0 is now {:?}", loader.state(victim));
    let body = loader.get(victim)?.routine();
    println!(
        "reloaded pool 0 transparently: {} blocks, {} instrs",
        body.blocks.len(),
        body.instr_count()
    );

    // Touch a pending pool: the paper's cache rescue, zero work.
    let last = *pools.last().expect("pools nonempty");
    loader.unload(last)?;
    let before = loader.stats();
    loader.touch(last)?;
    let after = loader.stats();
    println!(
        "cache rescue of a pending pool: +{} rescues, +{} uncompactions",
        after.cache_rescues - before.cache_rescues,
        after.uncompactions - before.uncompactions
    );

    let stats = loader.stats();
    println!(
        "\nledger: {} compactions, {} re-expansions, {} offload writes,",
        stats.compactions, stats.uncompactions, stats.offload_writes
    );
    println!(
        "        {} bytes swizzled, {} bytes to/from disk, {} work units",
        stats.bytes_swizzled, stats.bytes_offloaded, stats.work_units
    );
    println!(
        "final accounting: {} (global class holds {} B of program symbol table)",
        loader.memory(),
        loader.memory().class(MemClass::Global)
    );
    assert!(matches!(
        loader.state(victim),
        PoolState::Expanded | PoolState::UnloadPending
    ));
    Ok(())
}
