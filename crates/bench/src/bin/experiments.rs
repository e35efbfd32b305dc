//! Experiment runner: regenerates every paper result as a table.
//!
//! Usage:
//!
//! ```text
//! experiments                # full suite
//! experiments E4 E7          # selected experiments
//! experiments --csv DIR      # also write one CSV per experiment
//! ```

use rfd_bench::experiments;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let selected: Vec<String> = args
        .iter()
        .filter(|a| a.starts_with('E') || a.starts_with('e'))
        .map(|a| a.to_uppercase())
        .collect();

    // Filter the catalog *before* running: selecting one experiment must
    // not pay for the rest of the catalog.
    let mut ran = 0usize;
    for (id, run) in experiments::catalog() {
        if !selected.is_empty() && !selected.iter().any(|s| s == id) {
            continue;
        }
        let table = run();
        table.print();
        ran += 1;
        if let Some(dir) = &csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {dir:?}: {e}");
            } else {
                let path = dir.join(format!("{}.csv", id.to_lowercase()));
                if let Err(e) = table.to_csv(&path) {
                    eprintln!("cannot write {path:?}: {e}");
                }
            }
        }
    }
    if ran == 0 {
        eprintln!("no experiment matched; known ids: E1..E16");
        std::process::exit(2);
    }
}
