//! Scoped runtime settings: pool size, SIMD tier and buffer recycling
//! as one [`Runtime`] value per thread, read by every kernel through
//! [`pool::num_threads`](crate::pool::num_threads),
//! [`simd::active_tier`](crate::simd::active_tier) and
//! [`recycler::enabled`](crate::recycler::enabled).
//!
//! A thread uses the scope it entered with [`Runtime::enter`], else the
//! process default: `MATGNN_THREADS`, `MATGNN_SIMD` and
//! `MATGNN_RECYCLER`, read once over [`Runtime::hardware`], with the
//! thread count replaced by [`set_thread_override`] when that is set.
//! Threads the library spawns to run kernels for a caller (pool jobs,
//! prefetch, ranks, serving workers) capture [`scope_raw`] where they are
//! spawned and enter it, as they do the telemetry rank.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::simd::{detected_tier, SimdTier};

/// Hard ceiling on pool size, guarding against pathological settings.
const MAX_THREADS: usize = 256;

/// The settings every kernel on a thread runs under. Results are bitwise
/// identical for every `threads`, `simd` and `recycler` (see
/// [`crate::simd`]); the settings change only speed and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    /// Pool size kernels split work for (1: serial on the calling
    /// thread). May exceed the core count.
    pub threads: usize,
    /// Instruction-set tier the kernels dispatch to.
    pub simd: SimdTier,
    /// Whether tensor buffers go through the [`crate::recycler`].
    pub recycler: bool,
}

thread_local! {
    /// The current thread's scope; `None` follows the process default.
    static SCOPE: Cell<Option<Runtime>> = const { Cell::new(None) };
}

/// The process default's thread count, when set; 0 means unset.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process default's pool size (0: back to `MATGNN_THREADS` or
/// the core count); threads in a scope are unaffected. Only `perf` calls
/// this: it times rank threads it spawns itself, which no library code
/// hands a scope to. Everything else enters a [`Runtime`] scope.
pub fn set_thread_override(n: usize) {
    DEFAULT_THREADS.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

fn process_default() -> Runtime {
    static FROM_ENV: OnceLock<Runtime> = OnceLock::new();
    let rt = *FROM_ENV.get_or_init(|| {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        let (rt, warnings) = parse_env(
            var("MATGNN_THREADS").as_deref(),
            var("MATGNN_SIMD").as_deref(),
            var("MATGNN_RECYCLER").as_deref(),
            Runtime::hardware(),
        );
        warnings.iter().for_each(|w| eprintln!("{w}"));
        rt
    });
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => rt,
        threads => Runtime { threads, ..rt },
    }
}

impl Runtime {
    /// What the hardware offers: every available core, the best SIMD
    /// tier the CPU supports, recycling on.
    pub fn hardware() -> Runtime {
        Runtime {
            threads: std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .min(MAX_THREADS),
            simd: detected_tier(),
            recycler: true,
        }
    }

    /// The settings in effect on the current thread: its scope if it
    /// entered one, otherwise the process default.
    #[inline]
    pub fn current() -> Runtime {
        SCOPE.with(Cell::get).unwrap_or_else(process_default)
    }

    /// These settings with `threads` replaced.
    pub fn with_threads(self, threads: usize) -> Runtime {
        Runtime { threads, ..self }
    }

    /// These settings with `simd` replaced.
    pub fn with_simd(self, simd: SimdTier) -> Runtime {
        Runtime { simd, ..self }
    }

    /// These settings with `recycler` replaced.
    pub fn with_recycler(self, recycler: bool) -> Runtime {
        Runtime { recycler, ..self }
    }

    /// Installs these settings on the current thread until the guard
    /// drops. `threads` is clamped to `1..=256` and `simd` to the best
    /// tier this CPU runs, so no kernel dispatches an instruction the
    /// hardware lacks.
    pub fn enter(self) -> RuntimeScope {
        let rt = Runtime {
            threads: self.threads.clamp(1, MAX_THREADS),
            simd: self.simd.min(detected_tier()),
            ..self
        };
        RuntimeScope {
            prev: SCOPE.with(|s| s.replace(Some(rt))),
        }
    }
}

/// The current thread's scope, to carry to a thread it spawns (which
/// enters it); `None` when it follows the process default.
pub fn scope_raw() -> Option<Runtime> {
    SCOPE.with(Cell::get)
}

/// Guard for a scope from [`Runtime::enter`]; restores the thread's
/// previous scope when dropped.
#[must_use = "the scope ends when the guard drops"]
pub struct RuntimeScope {
    prev: Option<Runtime>,
}

impl Drop for RuntimeScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Resolves `MATGNN_THREADS`, `MATGNN_SIMD` and `MATGNN_RECYCLER` values
/// over the defaults `hw`, plus one warning line per value not used as
/// given. Unset or blank keeps `hw`'s setting. Accepted: a positive
/// count; `auto`/`on`, `off`/`scalar`/`0`, `avx2`, `avx512` (above
/// `hw.simd` falls back to it); `on`/`1`/`true`, `off`/`0`/`false`.
fn parse_env(
    threads: Option<&str>,
    simd: Option<&str>,
    recycler: Option<&str>,
    hw: Runtime,
) -> (Runtime, Vec<String>) {
    let (mut rt, mut warn) = (hw, Vec::new());
    rt.threads = setting("THREADS", threads, hw.threads, &mut warn, |v| {
        let n: usize = v.parse().ok()?;
        (n >= 1).then_some(n.min(MAX_THREADS))
    });
    rt.simd = setting("SIMD", simd, hw.simd, &mut warn, |v| match v {
        "auto" | "on" => Some(hw.simd),
        "off" | "scalar" | "0" => Some(SimdTier::Scalar),
        "avx2" => Some(SimdTier::Avx2),
        "avx512" => Some(SimdTier::Avx512),
        _ => None,
    });
    if rt.simd > hw.simd {
        warn.push(format!(
            "matgnn: MATGNN_SIMD={} requested but not supported by this CPU; \
             falling back to the {} tier",
            rt.simd, hw.simd
        ));
        rt.simd = hw.simd;
    }
    rt.recycler = setting("RECYCLER", recycler, hw.recycler, &mut warn, |v| match v {
        "on" | "1" | "true" => Some(true),
        "off" | "0" | "false" => Some(false),
        _ => None,
    });
    (rt, warn)
}

/// One variable `MATGNN_{var}` of [`parse_env`]: `default` when unset or
/// blank, else what `parse` makes of it, else `default` and the warning.
fn setting<T>(
    var: &str,
    value: Option<&str>,
    default: T,
    warn: &mut Vec<String>,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    match value.map(str::trim) {
        None | Some("") => default,
        Some(v) => parse(v).unwrap_or_else(|| {
            warn.push(format!(
                "matgnn: unrecognised MATGNN_{var}={v:?}; using the default"
            ));
            default
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_with_uniform_warnings() {
        use SimdTier::{Avx2, Scalar};
        let hw = Runtime {
            threads: 8,
            simd: Avx2,
            recycler: true,
        };
        // (THREADS, SIMD, RECYCLER) → settings, and whether the one set
        // value draws a warning (one line, naming it).
        let cases = [
            ([None, None, None], hw, false),
            ([Some(""), Some(" "), Some("")], hw, false),
            ([Some(" 2 "), None, None], hw.with_threads(2), false),
            ([Some("100000"), None, None], hw.with_threads(256), false),
            ([Some("0"), None, None], hw, true),
            ([Some("abc"), None, None], hw, true),
            ([Some("-2"), None, None], hw, true),
            ([None, Some("auto"), None], hw, false),
            ([None, Some("off"), None], hw.with_simd(Scalar), false),
            ([None, Some("scalar"), None], hw.with_simd(Scalar), false),
            ([None, Some("0"), None], hw.with_simd(Scalar), false),
            ([None, Some("avx2"), None], hw, false),
            // Recognised but beyond the hardware: falls back and says so.
            ([None, Some("avx512"), None], hw, true),
            ([None, Some("fast"), None], hw, true),
            ([None, None, Some("off")], hw.with_recycler(false), false),
            ([None, None, Some("0")], hw.with_recycler(false), false),
            ([None, None, Some("false")], hw.with_recycler(false), false),
            ([None, None, Some("on")], hw, false),
            ([None, None, Some("of")], hw, true),
        ];
        for ([threads, simd, recycler], want, warned) in cases {
            let (got, warnings) = parse_env(threads, simd, recycler, hw);
            let value = threads.or(simd).or(recycler);
            assert_eq!(got, want, "{value:?}");
            assert_eq!(
                warnings.len(),
                usize::from(warned),
                "{value:?}: {warnings:?}"
            );
            for w in &warnings {
                assert!(value.is_some_and(|v| w.contains(v)), "{w}");
                assert!(!w.contains('\n'), "{w}");
            }
        }
        let (got, warnings) = parse_env(Some("3"), Some("off"), Some("off"), hw);
        assert_eq!(
            got,
            hw.with_threads(3).with_simd(Scalar).with_recycler(false)
        );
        assert!(warnings.is_empty());
        // Every unrecognised value gets the same line.
        let (_, warnings) = parse_env(Some("abc"), Some("abc"), Some("abc"), hw);
        assert_eq!(
            warnings,
            ["THREADS", "SIMD", "RECYCLER"]
                .map(|v| format!("matgnn: unrecognised MATGNN_{v}=\"abc\"; using the default"))
        );
    }

    #[test]
    fn scopes_nest_restore_and_clamp() {
        assert_eq!(scope_raw(), None, "a fresh thread follows the default");
        let outer = Runtime {
            threads: 3,
            simd: SimdTier::Scalar,
            recycler: false,
        };
        {
            let _outer = outer.enter();
            {
                let _inner = outer.with_threads(0).with_recycler(true).enter();
                assert_eq!(crate::pool::num_threads(), 1, "clamped up");
                assert!(crate::recycler::enabled());
                let _big = outer.with_threads(10_000).enter();
                assert_eq!(crate::pool::num_threads(), MAX_THREADS, "clamped down");
            }
            assert_eq!(Runtime::current(), outer, "inner guards restore the outer");
        }
        assert_eq!(scope_raw(), None, "outer guard restores the default");
    }
}
