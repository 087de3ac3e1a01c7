//! Zero-dependency fault injection: named failpoints compiled into the
//! fragile seams of the workspace (model deserialization, solver inner
//! loops, pool workers), armed at runtime through an API or the
//! `SUBSPARSE_FAULTS` environment variable.
//!
//! The design mirrors the [`trace`](crate::trace) recorder: **off by
//! default**, and every disabled probe costs exactly one relaxed atomic
//! load — no locks, no clock reads, no allocation — so the probes stay in
//! shipping code permanently (pinned by the `apply_alloc` and
//! `fault_overhead` tests). Arming any failpoint flips the global flag;
//! the armed path takes a mutex around the registry, which is fine because
//! fault injection is a test/debug mode, never a serving configuration.
//!
//! # Failpoint catalog
//!
//! | name | seam | effect when firing |
//! |---|---|---|
//! | `load.truncate` | model file reads | the read bytes are cut in half |
//! | `load.bitflip` | model file reads | one byte of the payload is flipped |
//! | `solve.no_converge` | `pcg_with` entry | the solve reports `converged = false` without iterating |
//! | `solve.poison_nan` | `pcg_with` exit | the solution vector is overwritten with NaN |
//! | `solve.stall` | `pcg_with` entry | the solve sleeps for the configured milliseconds |
//! | `pool.worker_panic` | `ParallelApply` workers | the worker closure panics |
//!
//! # Trigger modes
//!
//! Each failpoint independently fires [once](FireMode::Once), [every Nth
//! evaluation](FireMode::EveryN) (`EveryN(1)` = always), or with a
//! [probability](FireMode::Prob) drawn from the in-repo deterministic
//! [`SmallRng`] — so even randomized fault schedules replay identically.
//!
//! # Example
//!
//! ```
//! use subsparse_linalg::faults::{self, Failpoint, FireMode};
//!
//! faults::reset();
//! assert!(!faults::fire(Failpoint::SolveNoConverge)); // disabled: one relaxed load
//! faults::configure(Failpoint::SolveNoConverge, FireMode::Once);
//! assert!(faults::fire(Failpoint::SolveNoConverge)); // first evaluation fires
//! assert!(!faults::fire(Failpoint::SolveNoConverge)); // and never again
//! faults::reset();
//! ```

use crate::rng::SmallRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is any failpoint armed? One relaxed load — safe to call on the hottest
/// path; `false` is the entire cost of a disabled probe.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of registered failpoints.
pub const N_FAILPOINTS: usize = 6;

/// The fixed catalog of failpoints (see the module docs for the seam and
/// effect of each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failpoint {
    /// Model file reads: the bytes are truncated to half their length.
    LoadTruncate = 0,
    /// Model file reads: one payload byte is flipped.
    LoadBitflip = 1,
    /// `pcg_with`: report non-convergence without iterating.
    SolveNoConverge = 2,
    /// `pcg_with`: overwrite the solution vector with NaN on exit.
    SolvePoisonNan = 3,
    /// `pcg_with`: sleep for the configured milliseconds on entry.
    SolveStall = 4,
    /// `ParallelApply` worker closures: panic.
    PoolWorkerPanic = 5,
}

/// Every failpoint, in catalog order.
pub const ALL_FAILPOINTS: [Failpoint; N_FAILPOINTS] = [
    Failpoint::LoadTruncate,
    Failpoint::LoadBitflip,
    Failpoint::SolveNoConverge,
    Failpoint::SolvePoisonNan,
    Failpoint::SolveStall,
    Failpoint::PoolWorkerPanic,
];

const FAILPOINT_NAMES: [&str; N_FAILPOINTS] = [
    "load.truncate",
    "load.bitflip",
    "solve.no_converge",
    "solve.poison_nan",
    "solve.stall",
    "pool.worker_panic",
];

impl Failpoint {
    /// The spec/summary name (e.g. `pool.worker_panic`).
    pub fn name(self) -> &'static str {
        FAILPOINT_NAMES[self as usize]
    }

    /// Looks a failpoint up by its spec name.
    pub fn from_name(name: &str) -> Option<Failpoint> {
        ALL_FAILPOINTS.iter().copied().find(|p| p.name() == name)
    }
}

/// When an armed failpoint fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FireMode {
    /// Never (the disarmed state).
    Off,
    /// On its first evaluation only.
    Once,
    /// On every `N`th evaluation (`EveryN(1)` = every time). `EveryN(0)`
    /// never fires.
    EveryN(u64),
    /// Independently with probability `p` per evaluation, drawn from a
    /// deterministic per-failpoint [`SmallRng`] stream.
    Prob(f64),
}

struct PointState {
    mode: FireMode,
    /// Payload handed to the firing site (milliseconds for `solve.stall`).
    arg: u64,
    hits: u64,
    fires: u64,
    rng: SmallRng,
}

/// Default `solve.stall` delay when the spec gives no `/ms` payload.
const DEFAULT_STALL_MS: u64 = 10;

fn fresh_state(idx: usize) -> PointState {
    PointState {
        mode: FireMode::Off,
        arg: if idx == Failpoint::SolveStall as usize { DEFAULT_STALL_MS } else { 0 },
        hits: 0,
        fires: 0,
        // a fixed per-point seed keeps probabilistic schedules replayable
        rng: SmallRng::seed_from_u64(0xFA17 + idx as u64),
    }
}

fn registry() -> &'static Mutex<[PointState; N_FAILPOINTS]> {
    static REGISTRY: OnceLock<Mutex<[PointState; N_FAILPOINTS]>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(std::array::from_fn(fresh_state)))
}

/// Arms (or disarms, with [`FireMode::Off`]) a failpoint, resetting its
/// hit/fire counts and its random stream. The global enabled flag follows:
/// it is set while at least one failpoint is armed.
pub fn configure(p: Failpoint, mode: FireMode) {
    configure_with_arg(p, mode, None);
}

/// [`configure`] with an explicit payload (milliseconds for
/// `solve.stall`); `None` keeps the point's default.
pub fn configure_with_arg(p: Failpoint, mode: FireMode, arg: Option<u64>) {
    let mut reg = registry().lock().unwrap();
    let mut st = fresh_state(p as usize);
    st.mode = mode;
    if let Some(a) = arg {
        st.arg = a;
    }
    reg[p as usize] = st;
    let any = reg.iter().any(|s| s.mode != FireMode::Off);
    ENABLED.store(any, Ordering::Relaxed);
}

/// Disarms every failpoint and clears all counts; the disabled fast path
/// is restored (one relaxed load per probe).
pub fn reset() {
    let mut reg = registry().lock().unwrap();
    for (i, st) in reg.iter_mut().enumerate() {
        *st = fresh_state(i);
    }
    ENABLED.store(false, Ordering::Relaxed);
}

/// Should this failpoint fire now? The disabled cost is one relaxed load.
#[inline]
pub fn fire(p: Failpoint) -> bool {
    if !enabled() {
        return false;
    }
    fire_slow(p).is_some()
}

/// Like [`fire`], returning the configured payload when firing (used by
/// `solve.stall` for its delay).
#[inline]
pub fn fire_arg(p: Failpoint) -> Option<u64> {
    if !enabled() {
        return None;
    }
    fire_slow(p)
}

/// Sleeps for the configured payload milliseconds when the failpoint
/// fires; no-op otherwise.
#[inline]
pub fn sleep_if(p: Failpoint) {
    if let Some(ms) = fire_arg(p) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

#[cold]
fn fire_slow(p: Failpoint) -> Option<u64> {
    let mut reg = registry().lock().unwrap();
    let st = &mut reg[p as usize];
    st.hits += 1;
    let firing = match st.mode {
        FireMode::Off => false,
        FireMode::Once => st.hits == 1,
        FireMode::EveryN(n) => n > 0 && st.hits.is_multiple_of(n),
        FireMode::Prob(prob) => st.rng.gen_bool(prob),
    };
    if firing {
        st.fires += 1;
        Some(st.arg)
    } else {
        None
    }
}

/// Per-failpoint evaluation statistics: `(name, evaluations, fires)`.
pub fn stats() -> Vec<(&'static str, u64, u64)> {
    let reg = registry().lock().unwrap();
    ALL_FAILPOINTS
        .iter()
        .map(|&p| {
            let st = &reg[p as usize];
            (p.name(), st.hits, st.fires)
        })
        .collect()
}

/// A one-line-per-armed-failpoint human-readable summary (empty string
/// when nothing is armed and nothing fired).
pub fn summary() -> String {
    use std::fmt::Write as _;
    let reg = registry().lock().unwrap();
    let mut s = String::new();
    for &p in &ALL_FAILPOINTS {
        let st = &reg[p as usize];
        if st.mode == FireMode::Off && st.hits == 0 {
            continue;
        }
        writeln!(
            s,
            "  {:<20} {:?}: {} evaluations, {} fired",
            p.name(),
            st.mode,
            st.hits,
            st.fires
        )
        .unwrap();
    }
    s
}

/// Parses and applies a fault spec: comma- or semicolon-separated
/// `name=mode` entries, where `mode` is `off`, `once`, `always`,
/// `every:N`, or `prob:P`, optionally followed by `/MS` to set the
/// payload (the `solve.stall` delay). Examples:
///
/// ```text
/// pool.worker_panic=once
/// solve.no_converge=every:3,solve.stall=always/50
/// load.bitflip=prob:0.25
/// ```
///
/// # Errors
///
/// Returns a description of the first malformed entry; earlier entries in
/// the spec stay applied.
pub fn configure_spec(spec: &str) -> Result<(), String> {
    for entry in spec.split([',', ';']).map(str::trim).filter(|e| !e.is_empty()) {
        let (name, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("fault spec entry '{entry}' is missing '='"))?;
        let point = Failpoint::from_name(name.trim()).ok_or_else(|| {
            format!("unknown failpoint '{}' (known: {})", name.trim(), FAILPOINT_NAMES.join(", "))
        })?;
        let (mode_str, arg) = match rest.split_once('/') {
            Some((m, a)) => {
                let ms = a
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("malformed payload '{a}' in '{entry}'"))?;
                (m.trim(), Some(ms))
            }
            None => (rest.trim(), None),
        };
        let mode = if mode_str == "off" {
            FireMode::Off
        } else if mode_str == "once" {
            FireMode::Once
        } else if mode_str == "always" {
            FireMode::EveryN(1)
        } else if let Some(n) = mode_str.strip_prefix("every:") {
            FireMode::EveryN(
                n.parse::<u64>().map_err(|_| format!("malformed count '{n}' in '{entry}'"))?,
            )
        } else if let Some(prob) = mode_str.strip_prefix("prob:") {
            let prob = prob
                .parse::<f64>()
                .map_err(|_| format!("malformed probability '{prob}' in '{entry}'"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probability {prob} out of [0, 1] in '{entry}'"));
            }
            FireMode::Prob(prob)
        } else {
            return Err(format!(
                "unknown mode '{mode_str}' in '{entry}' (expected off, once, always, every:N, prob:P)"
            ));
        };
        configure_with_arg(point, mode, arg);
    }
    Ok(())
}

/// Environment variable read by [`init_from_env`].
pub const ENV_VAR: &str = "SUBSPARSE_FAULTS";

/// Applies the spec in `SUBSPARSE_FAULTS`, if set. Returns whether the
/// variable was present.
///
/// # Errors
///
/// Propagates [`configure_spec`] parse errors.
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) => configure_spec(&spec).map(|()| true),
        Err(_) => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; every test must leave it clean and
    /// they must not interleave. One test fn keeps cargo's parallel test
    /// runner away from the shared state.
    #[test]
    fn failpoint_modes_spec_and_stats() {
        reset();
        assert!(!enabled());
        assert!(!fire(Failpoint::LoadTruncate));

        // once: first evaluation only
        configure(Failpoint::LoadTruncate, FireMode::Once);
        assert!(enabled());
        assert!(fire(Failpoint::LoadTruncate));
        assert!(!fire(Failpoint::LoadTruncate));

        // every:3 fires on evaluations 3, 6, ...
        configure(Failpoint::SolveNoConverge, FireMode::EveryN(3));
        let fired: Vec<bool> = (0..6).map(|_| fire(Failpoint::SolveNoConverge)).collect();
        assert_eq!(fired, [false, false, true, false, false, true]);

        // prob is deterministic per configure() and roughly calibrated
        configure(Failpoint::LoadBitflip, FireMode::Prob(0.25));
        let a: Vec<bool> = (0..64).map(|_| fire(Failpoint::LoadBitflip)).collect();
        configure(Failpoint::LoadBitflip, FireMode::Prob(0.25));
        let b: Vec<bool> = (0..64).map(|_| fire(Failpoint::LoadBitflip)).collect();
        assert_eq!(a, b, "probabilistic schedule must replay identically");
        let hits = a.iter().filter(|&&f| f).count();
        assert!((4..32).contains(&hits), "p=0.25 fired {hits}/64 times");

        // spec parsing round-trips modes and payloads
        configure_spec("solve.stall=always/50, pool.worker_panic=every:2").unwrap();
        assert_eq!(fire_arg(Failpoint::SolveStall), Some(50));
        assert!(!fire(Failpoint::PoolWorkerPanic));
        assert!(fire(Failpoint::PoolWorkerPanic));
        // stall default payload applies without /ms
        configure_spec("solve.stall=once").unwrap();
        assert_eq!(fire_arg(Failpoint::SolveStall), Some(DEFAULT_STALL_MS));

        // malformed specs are typed errors, not panics
        assert!(configure_spec("nope=once").is_err());
        assert!(configure_spec("load.truncate:once").is_err());
        assert!(configure_spec("load.truncate=sometimes").is_err());
        assert!(configure_spec("load.truncate=prob:1.5").is_err());
        assert!(configure_spec("solve.stall=once/ten").is_err());

        // stats name every point and count evaluations and fires
        reset();
        configure(Failpoint::PoolWorkerPanic, FireMode::Once);
        let _ = fire(Failpoint::PoolWorkerPanic);
        let _ = fire(Failpoint::PoolWorkerPanic);
        let row = stats()
            .into_iter()
            .find(|(name, _, _)| *name == "pool.worker_panic")
            .expect("stats must list every failpoint");
        assert_eq!((row.1, row.2), (2, 1));
        assert!(summary().contains("pool.worker_panic"));

        reset();
        assert!(!enabled());
    }
}
