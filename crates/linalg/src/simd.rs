//! Run-time instruction-set tiers for the lane-batched kernels.
//!
//! The build assumes only the target's baseline — on x86-64 that is SSE2,
//! two `f64` per register — yet the machines the solvers and the serving
//! layer run on usually report AVX2 (four) or AVX-512F (eight). The lane
//! kernels ([`Fft::butterflies`](crate::fft::Fft::butterflies), the DCT
//! kernel, the CSR and FWT lane tiles, the eigen solver's staged operator
//! and block-Jacobi apply) are written as plain loops over independent
//! lanes, so all they need to use the wider registers is to be compiled
//! for them. [`tiered!`] does that for one function: it compiles the
//! function's body once per [`Tier`] — an `avx512f` and an `avx2`
//! `#[target_feature]` copy of the same `#[inline(always)]` body beside the
//! baseline one — and dispatches each call to the widest tier the CPU
//! reports ([`is_x86_feature_detected!`]). On every other architecture
//! only the baseline body exists. There is no option, environment
//! variable or Cargo feature: the tier is a property of the CPU.
//!
//! # Why the bits do not change
//!
//! A tier changes how many lanes one instruction carries, never the
//! operations a lane sees. The kernels' order contracts are per lane and
//! lanes never mix; IEEE 754 addition, subtraction, multiplication and
//! division round the same way in SSE2, AVX2 and AVX-512 registers; and
//! the wide tiers never enable `fma`, while rustc never contracts
//! `a * b + c` into a fused multiply-add on any tier. So every tier
//! produces the baseline bits, and the bit-identity suites run every tier
//! the host supports against the baseline (see [`each_tier`]).
//!
//! # Where it is not used
//!
//! The lane kernels run at width 1 for one vector (`Csr::matvec_into`,
//! the per-vector FWT, the dense column kernel) and for the ragged tail
//! columns of a block. Those calls reach the `#[inline(always)]` kernels
//! directly, not through [`tiered!`], and stay baseline: a whole-program
//! AVX2 build made the single-vector serving latency worse, and their
//! latency chains gain nothing from wider registers.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// An instruction-set tier a [`tiered!`] function is compiled for, in
/// increasing width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// What the build assumes: SSE2 on x86-64, the target baseline
    /// elsewhere.
    Base,
    /// AVX2: 256-bit registers, four `f64` (x86-64 only).
    Avx2,
    /// AVX-512F: 512-bit registers, eight `f64` (x86-64 only).
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    const ALL: [Tier; 3] = [Tier::Base, Tier::Avx2, Tier::Avx512];
}

/// The widest tier this CPU (and its OS) reports.
fn widest() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Tier::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    Tier::Base
}

/// Every tier this CPU supports, narrowest (the baseline) first.
fn supported() -> Vec<Tier> {
    let top = widest();
    Tier::ALL.into_iter().filter(|&t| t <= top).collect()
}

/// The tier [`active`] returns, plus one; `0` until the first call.
/// Never holds a tier above [`widest`]: that is what makes the
/// `#[target_feature]` calls of [`tiered!`] sound. It publishes no other
/// data, so every access is `Relaxed`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Serializes [`each_tier`] callers, so one suite's pinned tier is not
/// moved by another's while it runs. It guards no data, so a guard
/// poisoned by a failing suite is taken over as is.
static PIN: Mutex<()> = Mutex::new(());

fn tier_of(code: u8) -> Tier {
    Tier::ALL[usize::from(code - 1)]
}

/// The tier [`tiered!`] functions run at: the widest the CPU reports,
/// unless [`each_tier`] has pinned a narrower one. One relaxed atomic
/// load once detection has run.
#[inline]
pub fn active() -> Tier {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let top = widest();
            // a pin stored meanwhile wins; it is never above `top`
            let _ = ACTIVE.compare_exchange(0, top as u8 + 1, Ordering::Relaxed, Ordering::Relaxed);
            tier_of(ACTIVE.load(Ordering::Relaxed))
        }
        code => tier_of(code),
    }
}

/// Restores the widest tier when an [`each_tier`] pass ends, by return or
/// by panic.
struct Unpin;

impl Drop for Unpin {
    fn drop(&mut self) {
        ACTIVE.store(widest() as u8 + 1, Ordering::Relaxed);
    }
}

/// Runs `f` once per tier this CPU supports, baseline first, with every
/// [`tiered!`] dispatch in the process pinned to that tier (worker
/// threads included), and returns the tiers run. The bit-identity suites
/// wrap their bodies in it, so each check covers every tier the host can
/// execute rather than only the one dispatch picks. Calls are serialized
/// process-wide; dispatches that run meanwhile outside `f` take the
/// pinned tier too, which changes no result because every tier carries
/// the baseline bits.
pub fn each_tier(mut f: impl FnMut(Tier)) -> Vec<Tier> {
    let _serial = PIN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _unpin = Unpin;
    let tiers = supported();
    for &tier in &tiers {
        ACTIVE.store(tier as u8 + 1, Ordering::Relaxed);
        f(tier);
    }
    tiers
}

/// Compiles a function once per [`Tier`] and dispatches each call to
/// [`active`]`()`.
///
/// ```
/// subsparse_linalg::simd::tiered! {
///     /// `y[i] += a * x[i]`, at the widest tier.
///     fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
///         for (yi, xi) in y.iter_mut().zip(x) {
///             *yi += a * xi;
///         }
///     }
/// }
/// let mut y = [1.0, 2.0];
/// axpy(0.5, &[2.0, 4.0], &mut y);
/// assert_eq!(y, [2.0, 4.0]);
/// ```
///
/// The body becomes one `#[inline(always)]` function; on x86-64 an
/// `avx512f` and an `avx2` `#[target_feature]` variant inline it, so it and
/// everything it inlines (mark the kernels it calls `#[inline(always)]`)
/// is compiled at each width. The body cannot name `Self` or the
/// enclosing function's generics (it is a nested item), parameters are
/// plain identifiers, generic parameters take one trait bound each, and
/// the function is private to its module.
#[macro_export]
#[doc(hidden)]
macro_rules! __simd_tiered {
    (
        $(#[$attr:meta])*
        fn $name:ident $(<$($g:ident: $bound:path),+ $(,)?>)?
        ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        $body:block
    ) => {
        $(#[$attr])*
        fn $name $(<$($g: $bound),+>)? ($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body $(<$($g: $bound),+>)? ($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn avx512 $(<$($g: $bound),+>)? ($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2 $(<$($g: $bound),+>)? ($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            match $crate::simd::active() {
                // SAFETY: `active` never returns a tier above `widest`,
                // which reports only features the CPU and the OS enable
                #[cfg(target_arch = "x86_64")]
                $crate::simd::Tier::Avx512 => unsafe { avx512($($arg),*) },
                // SAFETY: as above; AVX2 was reported by the CPU
                #[cfg(target_arch = "x86_64")]
                $crate::simd::Tier::Avx2 => unsafe { avx2($($arg),*) },
                _ => body($($arg),*),
            }
        }
    };
}

#[doc(inline)]
pub use crate::__simd_tiered as tiered;

#[cfg(test)]
mod tests {
    use super::*;

    tiered! {
        fn probe() -> bool {
            true
        }
    }

    #[test]
    fn dispatch_selects_the_widest_reported_tier() {
        #[cfg(target_arch = "x86_64")]
        let want = if is_x86_feature_detected!("avx512f") {
            Tier::Avx512
        } else if is_x86_feature_detected!("avx2") {
            Tier::Avx2
        } else {
            Tier::Base
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = Tier::Base;
        assert_eq!(widest(), want);
        // hold the pin lock so no suite's pinned tier is read instead
        let _serial = PIN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        assert_eq!(active(), want);
        assert!(probe());
    }

    #[test]
    fn each_tier_runs_every_supported_tier_and_restores_the_widest() {
        let mut seen = Vec::new();
        let tiers = each_tier(|t| {
            assert_eq!(active(), t);
            assert!(probe());
            seen.push(t);
        });
        assert_eq!(seen, tiers);
        assert_eq!(tiers, supported());
        assert_eq!(tiers[0], Tier::Base);
        assert_eq!(*tiers.last().unwrap(), widest());
        let _serial = PIN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        assert_eq!(active(), widest());
        println!("simd tiers exercised: {tiers:?}");
    }

    #[test]
    fn a_panicking_pass_restores_the_widest_tier() {
        let caught =
            std::panic::catch_unwind(|| each_tier(|_| panic!("a deliberately failing pass")));
        assert!(caught.is_err());
        let _serial = PIN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        assert_eq!(active(), widest());
    }
}
