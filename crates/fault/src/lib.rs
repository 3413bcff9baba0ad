//! # `eid-fault` — deterministic fault injection
//!
//! A tiny, dependency-free harness that lets tests drive every
//! failure path of the matching runtime reproducibly: worker panics
//! at task *k*, CSV read errors at row *l*, interner poisoning,
//! transient spill I/O failures (`sink/spill_open`,
//! `sink/spill_write`, `sink/spill_read` — each armed clause fails
//! one attempt; the sinks retry with backoff, so forcing retry
//! exhaustion takes more clauses than retries), forced memory-budget
//! trips (`runtime/budget`), and so on. Production code sprinkles
//! named *sites*
//! ([`hit`]/[`maybe_panic`] calls); tests arm a *plan* (via
//! [`install`] or the `EID_FAULT`/`EID_FAULT_SEED` environment
//! variables) that says which site fires at which call count.
//!
//! **Compile-time-off in release**: [`ENABLED`] is `false` unless the
//! crate is built with `debug_assertions` (the test profile) or the
//! `force-on` feature. Every entry point checks `ENABLED` first, so
//! the release-mode hot path folds to nothing — the benchmarks pay
//! zero overhead for the instrumentation.
//!
//! ## Plan syntax
//!
//! A plan is a `;`-separated list of `site@trigger` clauses:
//!
//! ```text
//! engine/worker@3              # fire on the 3rd call at that site
//! engine/worker@s8             # seed-driven: k = splitmix64(seed) % 8 + 1
//! engine/worker@2;csv/read@5   # several independent triggers
//! ```
//!
//! Each clause fires exactly **once** (at its trigger count); call
//! counts keep advancing across retries, so a plan with two clauses
//! for one site can hit both a first attempt and its degraded rerun.
//! Determinism: with a fixed plan and seed, the k-th call at a site
//! is the same call in every run.
//!
//! ## Tests share one lock per binary
//!
//! The plan and its call counts are process-wide, and a test binary
//! runs its tests on concurrent threads. A call at an armed site from
//! *any* thread advances the count, so a concurrent test can use up a
//! trigger meant for another. Every test in a binary that passes
//! through an armed site must therefore hold that binary's shared
//! lock for its whole body — not just the tests that arm a plan.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Whether fault injection is compiled in at all. `false` in plain
/// release builds — every public function is a no-op there.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "force-on"));

/// One armed trigger: fire the `trigger`-th call at `site`.
#[derive(Debug, Clone)]
struct Clause {
    site: String,
    trigger: u64,
    fired: bool,
}

#[derive(Debug, Default)]
struct Plan {
    clauses: Vec<Clause>,
    /// Calls seen per site since the plan was installed.
    counts: HashMap<String, u64>,
}

fn state() -> &'static Mutex<Option<Plan>> {
    static STATE: OnceLock<Mutex<Option<Plan>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(if ENABLED { plan_from_env() } else { None }))
}

/// Reads `EID_FAULT` (+ optional `EID_FAULT_SEED`) once at first use.
fn plan_from_env() -> Option<Plan> {
    let spec = std::env::var("EID_FAULT").ok()?;
    let seed = std::env::var("EID_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    parse_plan(&spec, seed).ok()
}

/// SplitMix64 — the standard seed scrambler; good enough to spread
/// small seeds over trigger space deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn parse_plan(spec: &str, seed: u64) -> Result<Plan, String> {
    let mut plan = Plan::default();
    for (n, clause) in spec.split(';').enumerate() {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, trig) = clause
            .split_once('@')
            .ok_or_else(|| format!("fault clause `{clause}` is missing `@trigger`"))?;
        let trigger = if let Some(m) = trig.strip_prefix('s') {
            let modulus: u64 = m
                .parse()
                .map_err(|_| format!("bad seed modulus in `{clause}`"))?;
            if modulus == 0 {
                return Err(format!("seed modulus must be nonzero in `{clause}`"));
            }
            // Mix the clause index in so two seed-driven clauses for
            // one site land on different triggers.
            splitmix64(seed.wrapping_add(n as u64)) % modulus + 1
        } else {
            let k: u64 = trig
                .parse()
                .map_err(|_| format!("bad trigger count in `{clause}`"))?;
            if k == 0 {
                return Err(format!("trigger count must be nonzero in `{clause}`"));
            }
            k
        };
        plan.clauses.push(Clause {
            site: site.trim().to_string(),
            trigger,
            fired: false,
        });
    }
    Ok(plan)
}

/// Installs a fault plan for this process, replacing any previous
/// plan (and any plan read from the environment). Call counts start
/// from zero. No-op (always `Ok`) when [`ENABLED`] is `false`.
pub fn install(spec: &str, seed: u64) -> Result<(), String> {
    if !ENABLED {
        return Ok(());
    }
    let plan = parse_plan(spec, seed)?;
    *state().lock().expect("fault state poisoned") = Some(plan);
    Ok(())
}

/// Disarms all faults and resets call counts.
pub fn clear() {
    if !ENABLED {
        return;
    }
    *state().lock().expect("fault state poisoned") = None;
}

/// Whether any fault plan is currently armed.
pub fn armed() -> bool {
    if !ENABLED {
        return false;
    }
    state()
        .lock()
        .expect("fault state poisoned")
        .as_ref()
        .is_some_and(|p| p.clauses.iter().any(|c| !c.fired))
}

/// Registers one call at `site`; returns `true` when an armed clause
/// fires on this call. Always `false` when [`ENABLED`] is off (the
/// call folds away in release builds).
pub fn hit(site: &str) -> bool {
    if !ENABLED {
        return false;
    }
    let mut guard = state().lock().expect("fault state poisoned");
    let Some(plan) = guard.as_mut() else {
        return false;
    };
    let count = plan.counts.entry(site.to_string()).or_insert(0);
    *count += 1;
    let now = *count;
    let mut fire = false;
    for c in &mut plan.clauses {
        if !c.fired && c.site == site && c.trigger == now {
            c.fired = true;
            fire = true;
        }
    }
    fire
}

/// Panics with a recognizable payload when an armed clause fires at
/// `site`. The payload starts with `eid-fault:` so panic isolation
/// layers (and [`quiet_panics`]) can tell injected panics apart.
pub fn maybe_panic(site: &str) {
    if ENABLED && hit(site) {
        panic!("eid-fault: injected panic at {site}");
    }
}

/// Installs a process-wide panic hook that suppresses the default
/// stderr backtrace for *injected* panics only (payloads starting
/// with `eid-fault:`). Real panics keep the default report. Tests
/// that arm panic faults call this once to keep their output clean.
pub fn quiet_panics() {
    if !ENABLED {
        return;
    }
    static HOOKED: OnceLock<()> = OnceLock::new();
    HOOKED.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.starts_with("eid-fault:"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.starts_with("eid-fault:"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global plan is process state; tests serialize on it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn fires_exactly_once_at_the_trigger_count() {
        let _l = lock();
        install("a/b@3", 0).unwrap();
        assert!(!hit("a/b"));
        assert!(!hit("a/b"));
        assert!(hit("a/b"));
        assert!(!hit("a/b"));
        assert!(!armed());
        clear();
    }

    #[test]
    fn sites_are_independent() {
        let _l = lock();
        install("x@1;y@2", 0).unwrap();
        assert!(!hit("y"));
        assert!(hit("x"));
        assert!(hit("y"));
        clear();
    }

    #[test]
    fn seed_driven_triggers_are_deterministic_and_in_range() {
        let _l = lock();
        for seed in [0u64, 1, 42, u64::MAX] {
            let p1 = parse_plan("s@s8", seed).unwrap();
            let p2 = parse_plan("s@s8", seed).unwrap();
            assert_eq!(p1.clauses[0].trigger, p2.clauses[0].trigger);
            assert!((1..=8).contains(&p1.clauses[0].trigger));
        }
        // Two seed clauses for one site get distinct mixing.
        let p = parse_plan("s@s1000000007;s@s1000000007", 7).unwrap();
        assert_ne!(p.clauses[0].trigger, p.clauses[1].trigger);
        clear();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _l = lock();
        assert!(parse_plan("no-trigger", 0).is_err());
        assert!(parse_plan("x@0", 0).is_err());
        assert!(parse_plan("x@s0", 0).is_err());
        assert!(parse_plan("x@nope", 0).is_err());
        assert!(parse_plan("", 0).unwrap().clauses.is_empty());
        clear();
    }

    #[test]
    fn maybe_panic_panics_with_recognizable_payload() {
        let _l = lock();
        quiet_panics();
        install("boom@1", 0).unwrap();
        let err = std::panic::catch_unwind(|| maybe_panic("boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("eid-fault:"), "{msg}");
        clear();
    }

    #[test]
    fn clear_disarms() {
        let _l = lock();
        install("z@1", 0).unwrap();
        clear();
        assert!(!hit("z"));
        assert!(!armed());
    }
}
