//! `cargo bench` shim: regenerates every thesis table and figure in quick
//! mode so the whole evaluation pipeline is exercised by one command.
//! Full-size runs: `cargo run --release -p subsparse-bench --bin thesis -- all`.

fn main() {
    // a plain harness=false runner over every `thesis` target
    for (name, _, runner) in subsparse_bench::TARGETS {
        println!("### {name}");
        println!("{}", runner(true));
    }
}
