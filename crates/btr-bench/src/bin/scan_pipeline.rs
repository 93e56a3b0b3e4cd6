//! Scan smoke benchmark; see `btr_bench::experiments::scan_pipeline`.
//!
//! Prints the table and, when `BENCH_SCAN_JSON` is set, writes the machine-
//! readable metrics (rows/s, bytes fetched, cache hit rate) to that path —
//! CI points it at `BENCH_scan.json`.

use btr_bench::experiments::scan_pipeline;

fn main() {
    let (rows, seed) = (btr_bench::bench_rows(), btr_bench::bench_seed());
    let bench = scan_pipeline::measure(rows, seed);
    if let Ok(path) = std::env::var("BENCH_SCAN_JSON") {
        let json = scan_pipeline::json(&bench, rows, seed);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    println!("{}", scan_pipeline::render(&bench));
}
