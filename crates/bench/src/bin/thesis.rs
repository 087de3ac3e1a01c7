//! `thesis` — regenerate any (or every) thesis table and figure by name.
//!
//! Replaces the former per-table one-line binaries with one dispatcher:
//!
//! ```text
//! cargo run --release -p subsparse-bench --bin thesis -- table_2_1
//! cargo run --release -p subsparse-bench --bin thesis -- all --quick
//! cargo run --release -p subsparse-bench --bin thesis            # lists targets
//! ```

use std::process::ExitCode;

use subsparse_bench::TARGETS;

fn usage() -> String {
    let mut s = String::from(
        "thesis — regenerate thesis tables/figures\n\n\
         USAGE: thesis [--quick] <target>... | all\n\nTARGETS:\n",
    );
    for (name, desc, _) in TARGETS {
        s.push_str(&format!("  {name:<21} {desc}\n"));
    }
    s
}

fn main() -> ExitCode {
    let quick = subsparse_bench::quick_from_args();
    let requested: Vec<String> = std::env::args().skip(1).filter(|a| a != "--quick").collect();
    if requested.is_empty() {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let run_all = requested.iter().any(|r| r == "all");
    let mut failed = false;
    for r in if run_all {
        TARGETS.iter().map(|(n, _, _)| n.to_string()).collect::<Vec<_>>()
    } else {
        requested
    } {
        match TARGETS.iter().find(|(n, _, _)| *n == r) {
            Some((name, _, runner)) => {
                println!("### {name}");
                print!("{}", runner(quick));
            }
            None => {
                eprintln!("unknown target {r:?}\n\n{}", usage());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
