//! `subsparse-cli` — extract, inspect, and apply sparse substrate-coupling
//! models from the command line.
//!
//! ```text
//! subsparse-cli extract --layout chip.txt --out model \
//!     --method lowrank --levels 3 --panels 128 \
//!     --substrate 0.5:1,38.5:100,1:0.1
//! subsparse-cli info --model model
//! subsparse-cli apply --model model --contact 0
//! ```
//!
//! Layout files are the ASCII-art format of
//! [`Layout::from_ascii`](subsparse::Layout::from_ascii): one character
//! per cell, `.`/space empty, connected runs of the same character form
//! one contact. See `examples/` for programmatic use instead.

use std::path::PathBuf;
use std::process::ExitCode;

use subsparse::layout::{generators, SplitLayout};
use subsparse::sparsify::eval::{evaluate, time_applies, EvalOptions, MethodReport};
use subsparse::sparsify::{all_methods, Method};
use subsparse::substrate::{
    solver, Backplane, EigenSolver, EigenSolverConfig, FdSolver, FdSolverConfig, Layer, Substrate,
    SubstrateSolver,
};
use subsparse::{BasisRep, CouplingOp, Layout, SparsifyOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `subsparse-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
subsparse-cli — sparse substrate-coupling model extraction

USAGE:
  subsparse-cli extract  --layout FILE --out STEM [options]
  subsparse-cli sparsify [--method NAME|all] [options]
  subsparse-cli info     --model STEM
  subsparse-cli apply    --model STEM --contact K [--volts V]
                         [--repeat R] [--block B] [--threads T]
  subsparse-cli help

EXTRACT OPTIONS:
  --layout FILE       ASCII-art layout (one char per cell; runs of the
                      same char = one contact)
  --extent A          surface side length (default 128)
  --out STEM          write STEM.q.mtx, STEM.gw.mtx and STEM.fwt (the
                      fast-transform serving section; not for the dense
                      baselines threshold and topk)
  --method M          lowrank (default) | wavelet | threshold | topk
  --levels N          quadtree depth (default: auto); the layout is split
                      at that depth's square boundaries
  --substrate SPEC    comma list thickness:conductivity, top first
                      (default 0.5:1,38.5:100,1:0.1 — the thesis profile)
  --backplane B       grounded (default) | floating (FD solver only)
  --solver S          eigen (default) | fd | kernel (matrix-free
                      synthetic model, O(n) memory — the large-n choice)
  --panels P          eigen panels / FD grid per side (default 128)
  --threads T         solver worker threads for batched solves
                      (default 1; 0 = auto, see THREADING)
  --threshold F       extra sparsification factor (e.g. 6); default off
  --trace FILE        record spans/counters/latency histograms, write a
                      chrome://tracing JSON to FILE, print the summary

SPARSIFY OPTIONS (run registered methods side by side, shared metrics):
  --method M          wavelet | lowrank | threshold | topk
                      or `all` (default) to compare every registered method
  --layout FILE       ASCII-art layout; default: a 16x16 regular grid
  --grid K            contacts per side of the default grid (default 16)
  --extent A          surface side length (default 128)
  --solver S          synthetic (default; dense zero-cost model) | kernel
                      (matrix-free, O(n) memory — the large-n choice) |
                      eigen | fd
  --levels N          quadtree depth for wavelet/lowrank (default: auto);
                      the layout is split at that depth's square boundaries
  --target F          nonzero budget n^2/F for the dense baselines
                      (default 4)
  --panels P          eigen/fd resolution (default 128)
  --threads T         solver worker threads for batched solves
                      (default 1; 0 = auto, see THREADING)
  --out STEM          save the (single) method's model as STEM.{q,gw}.mtx
                      (+ STEM.fwt for the wavelet and low-rank methods)
  --trace FILE        record spans/counters/latency histograms, write a
                      chrome://tracing JSON to FILE, print the summary

APPLY OPTIONS (serving):
  --contact K         excited contact index (required)
  --volts V           excitation voltage (default 1)
  --repeat R          time R applies through the zero-alloc serving path
                      and print ns/vector and MV/s (default 1: just print
                      the currents once)
  --block B           additionally time blocked applies, B vectors per
                      panel, and print the per-vector speedup (default 1)
  --threads T         additionally time the blocked applies through the
                      thread-parallel serving executor on T workers
                      (default 1; 0 = auto, see THREADING); results are
                      bit-identical for every T, speedup needs cores
  --trace FILE        record spans/counters/latency histograms, write a
                      chrome://tracing JSON to FILE, print the summary

An option a command does not take is an error that lists the ones it
does. A batched solve takes at most 32 RHS columns per call.

THREADING (one knob, every command):
  --threads T         worker count for every thread-parallel stage the
                      command runs (batched solves, the blocked serving
                      executor). T = 1 means serial (default). T = 0
                      means auto: the SUBSPARSE_THREADS environment
                      variable (a positive integer) if set, else one
                      worker per CPU. An explicit nonzero T always wins
                      over the environment. All stages dispatch onto one
                      persistent process-wide worker pool, so repeated
                      applies/solves reuse parked threads instead of
                      spawning.

FAULT INJECTION (all commands; for hardening tests, not production):
  --faults SPEC       arm named failpoints for this run and print the
                      hit/fired summary on exit. SPEC is a comma list of
                      name=off|once|always|every:N|prob:P entries, e.g.
                      `pool.worker_panic=once,solve.stall=prob:0.1/20`
                      (`/MS` sets the stall in milliseconds). Points:
                      load.truncate load.bitflip solve.no_converge
                      solve.poison_nan solve.stall pool.worker_panic.
                      The SUBSPARSE_FAULTS environment variable uses the
                      same grammar; --faults wins.
";

/// `--faults SPEC` (or the `SUBSPARSE_FAULTS` environment variable):
/// arms the named failpoints for this run and returns whether any are
/// active, so the exit path can print the fired-failpoint summary.
fn faults_begin(opts: &Opts) -> Result<bool, String> {
    let env_armed = subsparse::faults::init_from_env()
        .map_err(|e| format!("bad {}: {e}", subsparse::faults::ENV_VAR))?;
    match opts.get("faults") {
        None => Ok(env_armed),
        Some(spec) => {
            subsparse::faults::configure_spec(spec)
                .map_err(|e| format!("bad --faults spec: {e}"))?;
            Ok(true)
        }
    }
}

/// Prints how often each armed failpoint was hit and fired, then
/// disarms everything; no-op when no failpoint was armed.
fn faults_finish(armed: bool) {
    if armed {
        print!("{}", subsparse::faults::summary());
        subsparse::faults::reset();
    }
}

/// `--trace FILE`: turns the recorder on and returns the output path
/// (None leaves tracing disabled — the no-op fast path).
fn trace_begin(opts: &Opts) -> Option<PathBuf> {
    let path = opts.get("trace").map(PathBuf::from);
    if path.is_some() {
        subsparse::trace::set_enabled(true);
        subsparse::trace::reset();
    }
    path
}

/// Writes the Chrome-trace JSON and prints the human-readable summary
/// collected since [`trace_begin`]; no-op when `--trace` was absent.
fn trace_finish(path: Option<PathBuf>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(&path, subsparse::trace::chrome_json())
        .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
    print!("{}", subsparse::trace::summary());
    println!(
        "chrome trace written to {} (load in chrome://tracing or ui.perfetto.dev)",
        path.display()
    );
    subsparse::trace::set_enabled(false);
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("extract") => cmd_extract(&args[1..]),
        Some("sparsify") => cmd_sparsify(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("apply") => cmd_apply(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

/// Minimal `--key value` argument map.
struct Opts<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Opts<'a> {
    /// Parses `args`, rejecting any `--key` not named in the
    /// space-separated `accepted` list (so a mistyped or retired option
    /// fails loudly instead of being ignored).
    fn parse(args: &'a [String], accepted: &str) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key =
                key.strip_prefix("--").ok_or_else(|| format!("expected --option, got {key:?}"))?;
            if !accepted.split_whitespace().any(|k| k == key) {
                let valid: Vec<String> =
                    accepted.split_whitespace().map(|k| format!("--{k}")).collect();
                return Err(format!("unknown option --{key}; valid options: {}", valid.join(" ")));
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key, value.as_str()));
        }
        Ok(Opts { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required option --{key}"))
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }
}

fn parse_substrate(spec: &str, backplane: Backplane) -> Result<Substrate, String> {
    let mut layers = Vec::new();
    for part in spec.split(',') {
        let (t, c) = part
            .split_once(':')
            .ok_or_else(|| format!("layer {part:?} must be thickness:conductivity"))?;
        let thickness: f64 = t.parse().map_err(|_| format!("bad layer thickness {t:?}"))?;
        let conductivity: f64 = c.parse().map_err(|_| format!("bad layer conductivity {c:?}"))?;
        if thickness <= 0.0 || conductivity <= 0.0 {
            return Err(format!("layer {part:?} must have positive values"));
        }
        layers.push(Layer::new(thickness, conductivity));
    }
    if layers.is_empty() {
        return Err("substrate needs at least one layer".into());
    }
    Ok(Substrate::new(layers, backplane))
}

/// The layout `extract` and `sparsify` run on, and its quadtree depth:
/// the ASCII `--layout` file, or else the default regular grid of
/// `--grid` contacts per side (16); at `--levels` or the automatic depth
/// of that layout; split at that depth, so every piece lies in one
/// finest-level square. Returns the contact count before splitting, the
/// split layout and the depth.
fn layout_setup(opts: &Opts, extent: f64) -> Result<(usize, Layout, usize), String> {
    let raw = match opts.get("layout") {
        Some(path) => {
            let art =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let raw = Layout::from_ascii(extent, extent, &art);
            raw.validate().map_err(|e| format!("invalid layout: {e}"))?;
            raw
        }
        None => {
            let grid: usize = opts.get_parsed("grid", 16)?;
            generators::regular_grid(extent, grid, extent / grid as f64 / 2.0)
        }
    };
    let levels: usize =
        opts.get_parsed("levels", SparsifyOptions::default().resolve_levels(&raw))?;
    let split = SplitLayout::new(&raw, levels as u32);
    Ok((raw.n_contacts(), split.layout().clone(), levels))
}

fn cmd_extract(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        "layout out extent method levels substrate backplane solver panels threads threshold \
         trace faults",
    )?;
    let faults_armed = faults_begin(&opts)?;
    let trace_path = trace_begin(&opts);
    opts.require("layout")?;
    let out = PathBuf::from(opts.require("out")?);
    let extent: f64 = opts.get_parsed("extent", 128.0)?;
    let method: Method =
        opts.get("method").unwrap_or("lowrank").parse().map_err(|e| format!("{e}"))?;
    let solver_kind = opts.get("solver").unwrap_or("eigen");
    let panels: usize = opts.get_parsed("panels", 128)?;
    let threads: usize = opts.get_parsed("threads", 1)?;
    let backplane = match opts.get("backplane").unwrap_or("grounded") {
        "grounded" => Backplane::Grounded,
        "floating" => Backplane::Floating,
        other => return Err(format!("unknown backplane {other:?}")),
    };
    let substrate =
        parse_substrate(opts.get("substrate").unwrap_or("0.5:1,38.5:100,1:0.1"), backplane)?;

    let (raw_n, layout, levels) = layout_setup(&opts, extent)?;
    let layout = &layout;
    println!(
        "layout: {raw_n} contacts ({} pieces after splitting), levels = {levels}",
        layout.n_contacts()
    );

    let black_box: Box<dyn SubstrateSolver> = match solver_kind {
        "eigen" => Box::new(
            EigenSolver::new(
                &substrate,
                layout,
                EigenSolverConfig { panels, threads, ..Default::default() },
            )
            .map_err(|e| format!("eigen solver: {e}"))?,
        ),
        "fd" => Box::new(
            FdSolver::new(
                &substrate,
                layout,
                FdSolverConfig { nx: panels, ny: panels, threads, ..Default::default() },
            )
            .map_err(|e| format!("fd solver: {e}"))?,
        ),
        "kernel" => Box::new(solver::kernel(layout)),
        other => return Err(format!("unknown solver {other:?}")),
    };
    let sopts = SparsifyOptions { levels: Some(levels), ..Default::default() };
    let outcome =
        method.sparsify(&*black_box, layout, &sopts).map_err(|e| format!("extraction: {e}"))?;
    let rep = outcome.rep;
    println!(
        "extracted with {} solves ({:.1}x fewer than naive); Gw sparsity {:.1}x",
        outcome.solves,
        layout.n_contacts() as f64 / outcome.solves as f64,
        rep.sparsity_factor()
    );

    let rep = match opts.get("threshold") {
        None => rep,
        Some(f) => {
            let factor: f64 = f.parse().map_err(|_| format!("bad --threshold {f:?}"))?;
            let (t, cut) = rep.thresholded_to_sparsity(rep.sparsity_factor() * factor);
            println!(
                "thresholded at {cut:.3e}: sparsity {:.1}x ({} nonzeros)",
                t.sparsity_factor(),
                t.gw.nnz()
            );
            t
        }
    };
    rep.save(&out).map_err(|e| format!("saving model: {e}"))?;
    if rep.fwt().is_some() {
        println!(
            "wrote {}.q.mtx, {}.gw.mtx and {}.fwt (fast-transform serving path)",
            out.display(),
            out.display(),
            out.display()
        );
    } else {
        println!("wrote {}.q.mtx and {}.gw.mtx", out.display(), out.display());
    }
    faults_finish(faults_armed);
    trace_finish(trace_path)
}

/// `sparsify` — run one or all registered methods through
/// `Method::sparsify` and grade them with the shared evaluation harness.
fn cmd_sparsify(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        "method layout grid extent solver levels target panels threads out trace faults",
    )?;
    let faults_armed = faults_begin(&opts)?;
    let trace_path = trace_begin(&opts);
    let extent: f64 = opts.get_parsed("extent", 128.0)?;
    let panels: usize = opts.get_parsed("panels", 128)?;
    let threads: usize = opts.get_parsed("threads", 1)?;
    let solver_kind = opts.get("solver").unwrap_or("synthetic");

    let (_, layout, levels) = layout_setup(&opts, extent)?;
    let n = layout.n_contacts();

    let mut sopts = SparsifyOptions { levels: Some(levels), ..Default::default() };
    sopts.target_sparsity = opts.get_parsed("target", sopts.target_sparsity)?;

    let black_box: Box<dyn SubstrateSolver> = match solver_kind {
        "synthetic" => Box::new(solver::synthetic(&layout)),
        "kernel" => Box::new(solver::kernel(&layout)),
        "eigen" => Box::new(
            EigenSolver::new(
                &Substrate::thesis_standard(),
                &layout,
                EigenSolverConfig { panels, threads, ..Default::default() },
            )
            .map_err(|e| format!("eigen solver: {e}"))?,
        ),
        "fd" => Box::new(
            FdSolver::new(
                &Substrate::thesis_standard(),
                &layout,
                FdSolverConfig { nx: panels, ny: panels, threads, ..Default::default() },
            )
            .map_err(|e| format!("fd solver: {e}"))?,
        ),
        other => return Err(format!("unknown solver {other:?}")),
    };

    let methods: Vec<Method> = match opts.get("method").unwrap_or("all") {
        "all" => all_methods().to_vec(),
        name => vec![name.parse().map_err(|e| format!("{e}"))?],
    };

    println!(
        "sparsify: {n} contacts, solver = {solver_kind}, target sparsity {:.1}x",
        sopts.target_sparsity
    );
    println!("{}", MethodReport::header());
    let eval_opts = EvalOptions { threads, ..Default::default() };
    for method in &methods {
        let outcome =
            method.sparsify(&*black_box, &layout, &sopts).map_err(|e| format!("{method}: {e}"))?;
        let report = evaluate(method.name(), &outcome, &*black_box, &eval_opts);
        println!("{}", report.row());
        if let (Some(stem), true) = (opts.get("out"), methods.len() == 1) {
            let stem = PathBuf::from(stem);
            outcome.rep.save(&stem).map_err(|e| format!("saving model: {e}"))?;
            println!("wrote {}.q.mtx and {}.gw.mtx", stem.display(), stem.display());
        }
    }
    if methods.len() > 1 {
        println!("\nguidance:");
        for method in &methods {
            println!("  {:<10} {}", method.name(), method.summary());
        }
    }
    faults_finish(faults_armed);
    trace_finish(trace_path)
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, "model faults")?;
    let faults_armed = faults_begin(&opts)?;
    let stem = PathBuf::from(opts.require("model")?);
    let rep = BasisRep::load(&stem).map_err(|e| format!("loading model: {e}"))?;
    // everything below goes through the CouplingOp trait — inspection
    // works the same for any representation the serving layer grows
    let op: &dyn CouplingOp = &rep;
    println!("model {}:", stem.display());
    println!("  {}", subsparse::spy::op_summary(op));
    println!("  dense G size: {} entries", op.n() * op.n());
    faults_finish(faults_armed);
    Ok(())
}

fn cmd_apply(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, "model contact volts repeat block threads trace faults")?;
    let faults_armed = faults_begin(&opts)?;
    let trace_path = trace_begin(&opts);
    let stem = PathBuf::from(opts.require("model")?);
    let contact: usize =
        opts.require("contact")?.parse().map_err(|_| "bad --contact index".to_string())?;
    let volts: f64 = opts.get_parsed("volts", 1.0)?;
    let repeat: usize = opts.get_parsed("repeat", 1)?.max(1);
    let block: usize = opts.get_parsed("block", 1)?.max(1);
    let threads: usize = opts.get_parsed("threads", 1)?;
    let rep = BasisRep::load(&stem).map_err(|e| format!("loading model: {e}"))?;
    let n = CouplingOp::n(&rep);
    if contact >= n {
        return Err(format!("contact {contact} out of range (model has {n})"));
    }
    if repeat <= 1 && block <= 1 {
        let mut v = vec![0.0; n];
        v[contact] = volts;
        let i = rep.apply(&v);
        println!("currents for {volts} V on contact {contact}:");
        for (k, val) in i.iter().enumerate() {
            println!("{k:>8} {val:+.6e}");
        }
        faults_finish(faults_armed);
        return trace_finish(trace_path);
    }

    // serving throughput: repeated applies through the zero-alloc paths,
    // measured by the shared eval-harness protocol
    println!("{}", subsparse::spy::op_summary(&rep));
    let eval_opts =
        EvalOptions { apply_iters: repeat, apply_block: block, threads, ..Default::default() };
    let t = time_applies(&rep, &eval_opts);
    println!(
        "single-vector: {repeat} applies, {:.0} ns/vector, {:.3} MV/s",
        t.apply_ns,
        1e3 / t.apply_ns
    );
    if block > 1 {
        println!(
            "blocked ({block} wide): {:.0} ns/vector, {:.3} MV/s ({:.2}x vs single)",
            t.apply_block_ns,
            1e3 / t.apply_block_ns,
            t.apply_ns / t.apply_block_ns,
        );
    }
    if t.threads > 1 {
        println!(
            "threaded ({} workers, {block} wide): {:.0} ns/vector, {:.3} MV/s ({:.2}x vs blocked; \
             bit-identical output)",
            t.threads,
            t.apply_block_threaded_ns,
            1e3 / t.apply_block_threaded_ns,
            t.apply_block_ns / t.apply_block_threaded_ns,
        );
    }
    faults_finish(faults_armed);
    trace_finish(trace_path)
}

#[cfg(test)]
mod tests {
    use super::{run, Opts};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_options_are_errors_naming_the_valid_ones() {
        let given = args("--grid 4 --batch 2");
        let Err(e) = Opts::parse(&given, "grid threads") else { panic!("--batch was accepted") };
        assert_eq!(e, "unknown option --batch; valid options: --grid --threads");
        let given = args("--grid 4 --threads 2");
        let opts = Opts::parse(&given, "grid threads").expect("both options are accepted");
        assert_eq!((opts.get("grid"), opts.get("threads")), (Some("4"), Some("2")));
    }

    #[test]
    fn sparsify_splits_the_default_grid_at_the_chosen_depth() {
        // 24 contacts per side cross the level-4 square boundaries, so
        // the grid must be split at that depth before the hierarchical
        // methods extract on it
        for method in ["lowrank", "wavelet"] {
            let line = format!("sparsify --method {method} --grid 24 --levels 4");
            run(&args(&line)).unwrap_or_else(|e| panic!("`cli {line}` failed: {e}"));
        }
    }
}
