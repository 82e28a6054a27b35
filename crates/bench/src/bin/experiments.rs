//! Regenerates the paper's experiments, the rows of
//! `s2m3_bench::EXPERIMENTS`: every row, also written as markdown to
//! `experiments_measured.md`, or only the rows named on the command line,
//! in that order and without markdown. An unknown name fails before
//! anything runs.
use std::process::ExitCode;

use s2m3_bench::{Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let found: Result<Vec<&Experiment>, &String> = names
        .iter()
        .map(|name| EXPERIMENTS.iter().find(|e| e.name == name).ok_or(name))
        .collect();
    let chosen = match found {
        Ok(_) if names.is_empty() => EXPERIMENTS.iter().collect(),
        Ok(chosen) => chosen,
        Err(name) => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!("unknown experiment `{name}` (one of: {})", known.join(", "));
            return ExitCode::FAILURE;
        }
    };
    let mut md = String::from("# Measured experiment outputs\n\nGenerated by `cargo run --release -p s2m3-bench --bin experiments`.\n\n");
    for experiment in chosen {
        let table = (experiment.run)();
        println!("{}", table.render());
        md.push_str(&table.render_markdown());
        md.push('\n');
    }
    if names.is_empty() {
        std::fs::write("experiments_measured.md", md).expect("write experiments_measured.md");
        eprintln!("wrote experiments_measured.md");
    }
    ExitCode::SUCCESS
}
