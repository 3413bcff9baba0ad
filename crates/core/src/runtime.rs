//! The hardened matching runtime: cooperative cancellation,
//! wall-clock deadlines, and resource budgets.
//!
//! The paper's setting is integration of *autonomous* databases —
//! sources the integrator does not control, feeding data of unknown
//! size and quality. A production engine therefore needs runs that
//! are **bounded** (a runaway pair explosion trips a budget instead
//! of exhausting memory), **interruptible** (a caller can cancel and
//! get a typed error with partial statistics), and
//! **degrade-gracefully** (a poisoned worker falls back down the
//! `blocked_parallel → blocked → nested-loop` ladder — expressed
//! since the plan-IR refactor as match-plan rewrites: the parallel
//! plan's serial twin, then its index-free twin — instead of taking
//! the process down; see `DESIGN.md` §9–10).
//!
//! The contract is cooperative: the engine, matcher, and incremental
//! matcher call [`RunGuard::checkpoint`] at *chunk boundaries* (task
//! starts, outer-loop rows, stage transitions), never inside the pair
//! loop. A tripped guard surfaces as
//! [`CoreError::Aborted`](crate::CoreError::Aborted) carrying the
//! [`AbortReason`] and a [`PartialStats`] snapshot. Aborts never
//! leave half-applied state: the incremental matcher stages every
//! event and commits only on success (§3.3 monotonicity is preserved
//! across a cancel-then-resume), and an aborted engine run never
//! flushes a half-task into the recorder.
//!
//! An unlimited guard's checkpoint is two relaxed atomic loads — the
//! fault-free fast path costs nothing measurable.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Resource limits for one matching run. `None` everywhere (the
/// [`Default`]) means unlimited.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline in milliseconds from guard creation.
    pub timeout_ms: Option<u64>,
    /// Maximum candidate pairs the run may visit (engine tasks are
    /// pre-charged with their exact candidate weight, so the trip
    /// happens *before* the work, not after).
    pub max_candidate_pairs: Option<u64>,
    /// Maximum resident pair-list bytes (raw engine output before
    /// dedup, 8 bytes per `(u32, u32)` pair). Also caps the blocked
    /// index: when the estimated index footprint alone exceeds this,
    /// the executor rewrites the plan index-free (the nested-loop
    /// arm) rather than building indexes it cannot afford.
    pub max_pair_bytes: Option<u64>,
}

impl RunBudget {
    /// The unlimited budget.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Whether every limit is absent.
    pub fn is_unlimited(&self) -> bool {
        self.timeout_ms.is_none()
            && self.max_candidate_pairs.is_none()
            && self.max_pair_bytes.is_none()
    }
}

/// Why a run was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// The caller cancelled via [`RunGuard::cancel`].
    Cancelled,
    /// The wall-clock deadline expired.
    DeadlineExceeded {
        /// The configured timeout.
        timeout_ms: u64,
    },
    /// The candidate-pair budget was exceeded.
    PairBudgetExceeded {
        /// The configured limit.
        limit: u64,
        /// Pairs charged when the trip was detected.
        observed: u64,
    },
    /// The pair-list / index memory budget was exceeded.
    MemBudgetExceeded {
        /// The configured limit in bytes.
        limit: u64,
        /// Bytes charged (or estimated) when the trip was detected.
        observed: u64,
    },
}

impl AbortReason {
    /// A short machine-readable code for labels and exit-code
    /// mapping: `cancelled`, `deadline`, `max_pairs`, or `max_mem`.
    pub fn code(&self) -> &'static str {
        match self {
            AbortReason::Cancelled => "cancelled",
            AbortReason::DeadlineExceeded { .. } => "deadline",
            AbortReason::PairBudgetExceeded { .. } => "max_pairs",
            AbortReason::MemBudgetExceeded { .. } => "max_mem",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Cancelled => write!(f, "cancelled by caller"),
            AbortReason::DeadlineExceeded { timeout_ms } => {
                write!(f, "deadline exceeded ({timeout_ms} ms)")
            }
            AbortReason::PairBudgetExceeded { limit, observed } => {
                write!(f, "candidate-pair budget exceeded ({observed} > {limit})")
            }
            AbortReason::MemBudgetExceeded { limit, observed } => {
                write!(f, "memory budget exceeded ({observed} > {limit} bytes)")
            }
        }
    }
}

/// What an aborted run had accomplished when it tripped — enough to
/// size a retry budget or report progress, *not* a usable result (an
/// aborted run returns no tables; §3.3 forbids publishing partial
/// decisions that a resumed run might not reproduce).
///
/// The three meter fields are frozen at the guard's *first* trip:
/// work that other workers charge between the trip and the abort
/// (a task pre-charged but never run) is not counted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartialStats {
    /// Wall milliseconds from guard creation to the first trip.
    pub elapsed_ms: u64,
    /// Candidate pairs charged at the first trip — for
    /// [`AbortReason::PairBudgetExceeded`], exactly its `observed`.
    pub pairs_charged: u64,
    /// Pair-list bytes charged at the first trip — for
    /// [`AbortReason::MemBudgetExceeded`], exactly its `observed`.
    pub bytes_charged: u64,
    /// Engine tasks that had completed.
    pub tasks_completed: u64,
    /// Engine tasks planned in total (0 when the run aborted before
    /// planning).
    pub tasks_total: u64,
    /// Matching pairs found before the trip (discarded, not
    /// published).
    pub matching: u64,
    /// Refuted pairs found before the trip (discarded).
    pub negative: u64,
}

impl fmt::Display for PartialStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ms elapsed, {} pairs charged, {}/{} tasks, {} matching / {} negative discarded",
            self.elapsed_ms,
            self.pairs_charged,
            self.tasks_completed,
            self.tasks_total,
            self.matching,
            self.negative
        )
    }
}

/// The first trip: its reason and the meters frozen with it.
#[derive(Debug, Clone)]
struct Trip {
    reason: AbortReason,
    elapsed_ms: u64,
    pairs: u64,
    bytes: u64,
}

#[derive(Debug)]
struct GuardInner {
    cancelled: AtomicBool,
    /// Fast-path flag mirroring `trip`'s occupancy.
    tripped: AtomicBool,
    trip: Mutex<Option<Trip>>,
    started: Instant,
    deadline: Option<Instant>,
    timeout_ms: Option<u64>,
    pairs: AtomicU64,
    bytes: AtomicU64,
    max_pairs: Option<u64>,
    max_bytes: Option<u64>,
    /// Whether any limit exists at all (skips the limit checks on the
    /// unlimited fast path).
    limited: bool,
}

/// A cooperative cancellation token + budget meter, shared by every
/// stage of one run. Clones share state ([`Arc`] inside), so the
/// guard can be handed to the engine, kept by the caller for
/// [`RunGuard::cancel`], and polled from worker drain loops.
#[derive(Debug, Clone)]
pub struct RunGuard {
    inner: Arc<GuardInner>,
}

impl Default for RunGuard {
    fn default() -> Self {
        RunGuard::unlimited()
    }
}

impl RunGuard {
    /// A guard with no limits: checkpoints only observe
    /// [`RunGuard::cancel`].
    pub fn unlimited() -> RunGuard {
        RunGuard::new(&RunBudget::unlimited())
    }

    /// A guard enforcing `budget`, with the deadline armed now.
    pub fn new(budget: &RunBudget) -> RunGuard {
        let started = Instant::now();
        RunGuard {
            inner: Arc::new(GuardInner {
                cancelled: AtomicBool::new(false),
                tripped: AtomicBool::new(false),
                trip: Mutex::new(None),
                started,
                deadline: budget
                    .timeout_ms
                    .map(|ms| started + Duration::from_millis(ms)),
                timeout_ms: budget.timeout_ms,
                pairs: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                max_pairs: budget.max_candidate_pairs,
                max_bytes: budget.max_pair_bytes,
                limited: !budget.is_unlimited(),
            }),
        }
    }

    /// Requests cancellation; the next checkpoint trips with
    /// [`AbortReason::Cancelled`]. Safe from any thread.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Records `reason` as this run's abort cause (first trip wins)
    /// and returns the winning reason. The first trip also freezes
    /// the meters that [`RunGuard::partial_stats`] reports; a budget
    /// reason's `observed` is the frozen value of its own meter.
    pub fn trip(&self, reason: AbortReason) -> AbortReason {
        let mut slot = self.lock_trip();
        let first = slot.get_or_insert_with(|| Trip {
            elapsed_ms: self.elapsed_ms(),
            pairs: match reason {
                AbortReason::PairBudgetExceeded { observed, .. } => observed,
                _ => self.pairs_charged(),
            },
            bytes: match reason {
                AbortReason::MemBudgetExceeded { observed, .. } => observed,
                _ => self.bytes_charged(),
            },
            reason,
        });
        let winner = first.reason.clone();
        self.inner.tripped.store(true, Ordering::Release);
        winner
    }

    fn lock_trip(&self) -> std::sync::MutexGuard<'_, Option<Trip>> {
        self.inner.trip.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the guard has tripped (cheap: one atomic load).
    pub fn is_tripped(&self) -> bool {
        self.inner.tripped.load(Ordering::Acquire)
    }

    /// The abort reason, if the guard has tripped.
    pub fn tripped_reason(&self) -> Option<AbortReason> {
        if !self.is_tripped() {
            return None;
        }
        self.lock_trip().as_ref().map(|t| t.reason.clone())
    }

    /// Charges `n` candidate pairs against the budget. Checked at the
    /// next [`RunGuard::checkpoint`].
    pub fn charge_pairs(&self, n: u64) {
        self.inner.pairs.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges `n` resident pair-list bytes against the budget.
    pub fn charge_bytes(&self, n: u64) {
        self.inner.bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns `n` bytes to the budget — the spill path's accounting
    /// twin of [`RunGuard::charge_bytes`]: shard bytes flushed to
    /// disk are no longer resident, so `--max-mem-mb` measures what
    /// is actually in memory and spilling *prevents* the trip instead
    /// of merely delaying it. Saturates at zero.
    pub fn uncharge_bytes(&self, n: u64) {
        let bytes = &self.inner.bytes;
        let mut cur = bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match bytes.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Candidate pairs charged so far.
    pub fn pairs_charged(&self) -> u64 {
        self.inner.pairs.load(Ordering::Relaxed)
    }

    /// Pair-list bytes charged so far.
    pub fn bytes_charged(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// The memory limit in bytes, if one is set (the engine consults
    /// this before building blocked indexes).
    pub fn mem_limit(&self) -> Option<u64> {
        self.inner.max_bytes
    }

    /// Wall milliseconds since the guard was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.inner
            .started
            .elapsed()
            .as_millis()
            .min(u64::MAX as u128) as u64
    }

    /// The cooperative cancellation point. Returns `Err` with the
    /// abort reason when the run must stop: already tripped,
    /// cancelled, past the deadline, or over a budget. Unlimited,
    /// uncancelled guards take the two-atomic-load fast path.
    pub fn checkpoint(&self) -> Result<(), AbortReason> {
        if self.is_tripped() {
            // Already tripped — repeat the canonical reason.
            return Err(self.tripped_reason().unwrap_or(AbortReason::Cancelled));
        }
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(self.trip(AbortReason::Cancelled));
        }
        // Fault hook for budget-trip *timing* tests: `budget@k` trips
        // the memory budget at exactly the k-th checkpoint of the
        // process, wherever that lands in the pipeline. Compiled out
        // of release builds along with the rest of eid-fault.
        if eid_fault::ENABLED && eid_fault::hit("runtime/budget") {
            return Err(self.trip(AbortReason::MemBudgetExceeded {
                limit: self.inner.max_bytes.unwrap_or(0),
                observed: self.bytes_charged().max(1),
            }));
        }
        if !self.inner.limited {
            return Ok(());
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(AbortReason::DeadlineExceeded {
                    timeout_ms: self.inner.timeout_ms.unwrap_or(0),
                }));
            }
        }
        if let Some(limit) = self.inner.max_pairs {
            let observed = self.pairs_charged();
            if observed > limit {
                return Err(self.trip(AbortReason::PairBudgetExceeded { limit, observed }));
            }
        }
        if let Some(limit) = self.inner.max_bytes {
            let observed = self.bytes_charged();
            if observed > limit {
                return Err(self.trip(AbortReason::MemBudgetExceeded { limit, observed }));
            }
        }
        Ok(())
    }

    /// A [`PartialStats`] snapshot of this guard's meters — frozen at
    /// the first trip once the guard has tripped, live before that;
    /// the caller fills in the task/table fields it knows.
    pub fn partial_stats(&self) -> PartialStats {
        if let Some(t) = self.lock_trip().as_ref() {
            return PartialStats {
                elapsed_ms: t.elapsed_ms,
                pairs_charged: t.pairs,
                bytes_charged: t.bytes,
                ..PartialStats::default()
            };
        }
        PartialStats {
            elapsed_ms: self.elapsed_ms(),
            pairs_charged: self.pairs_charged(),
            bytes_charged: self.bytes_charged(),
            ..PartialStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = RunGuard::unlimited();
        g.charge_pairs(u64::MAX / 2);
        g.charge_bytes(u64::MAX / 2);
        assert!(g.checkpoint().is_ok());
        assert!(!g.is_tripped());
    }

    #[test]
    fn cancel_trips_the_next_checkpoint_from_any_clone() {
        let g = RunGuard::unlimited();
        let h = g.clone();
        h.cancel();
        assert_eq!(g.checkpoint(), Err(AbortReason::Cancelled));
        assert!(g.is_tripped());
        // Subsequent checkpoints repeat the same reason.
        assert_eq!(g.checkpoint(), Err(AbortReason::Cancelled));
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let g = RunGuard::new(&RunBudget {
            timeout_ms: Some(0),
            ..RunBudget::default()
        });
        assert!(matches!(
            g.checkpoint(),
            Err(AbortReason::DeadlineExceeded { timeout_ms: 0 })
        ));
    }

    #[test]
    fn pair_budget_trips_after_overcharge() {
        let g = RunGuard::new(&RunBudget {
            max_candidate_pairs: Some(100),
            ..RunBudget::default()
        });
        g.charge_pairs(100);
        assert!(g.checkpoint().is_ok(), "at the limit is fine");
        g.charge_pairs(1);
        assert!(matches!(
            g.checkpoint(),
            Err(AbortReason::PairBudgetExceeded {
                limit: 100,
                observed: 101
            })
        ));
    }

    #[test]
    fn byte_budget_trips() {
        let g = RunGuard::new(&RunBudget {
            max_pair_bytes: Some(64),
            ..RunBudget::default()
        });
        g.charge_bytes(65);
        assert!(matches!(
            g.checkpoint(),
            Err(AbortReason::MemBudgetExceeded { limit: 64, .. })
        ));
    }

    #[test]
    fn uncharge_returns_bytes_and_saturates() {
        let g = RunGuard::new(&RunBudget {
            max_pair_bytes: Some(100),
            ..RunBudget::default()
        });
        g.charge_bytes(90);
        g.uncharge_bytes(50);
        assert_eq!(g.bytes_charged(), 40);
        g.charge_bytes(60);
        assert!(
            g.checkpoint().is_ok(),
            "spill accounting must avert the trip"
        );
        g.uncharge_bytes(10_000);
        assert_eq!(g.bytes_charged(), 0, "uncharge saturates at zero");
    }

    #[test]
    fn first_trip_wins() {
        let g = RunGuard::unlimited();
        let first = g.trip(AbortReason::DeadlineExceeded { timeout_ms: 7 });
        let second = g.trip(AbortReason::Cancelled);
        assert_eq!(first, second);
        assert_eq!(
            g.tripped_reason(),
            Some(AbortReason::DeadlineExceeded { timeout_ms: 7 })
        );
    }

    #[test]
    fn partial_stats_snapshot_meters() {
        let g = RunGuard::unlimited();
        g.charge_pairs(5);
        g.charge_bytes(40);
        let p = g.partial_stats();
        assert_eq!(p.pairs_charged, 5);
        assert_eq!(p.bytes_charged, 40);
        assert_eq!(p.tasks_total, 0);
    }

    #[test]
    fn partial_stats_freeze_at_the_first_trip() {
        let g = RunGuard::new(&RunBudget {
            max_candidate_pairs: Some(10),
            ..RunBudget::default()
        });
        g.charge_pairs(11);
        g.charge_bytes(8);
        let observed = match g.checkpoint() {
            Err(AbortReason::PairBudgetExceeded { observed, .. }) => observed,
            other => panic!("expected a pair-budget trip, got {other:?}"),
        };
        let at_trip = g.partial_stats();
        // A worker charges a task after the trip; a later trip loses.
        g.charge_pairs(500);
        g.charge_bytes(64);
        g.trip(AbortReason::Cancelled);
        std::thread::sleep(Duration::from_millis(5));
        let p = g.partial_stats();
        assert_eq!(p.pairs_charged, observed);
        assert_eq!(p.bytes_charged, 8);
        assert_eq!(
            p.elapsed_ms, at_trip.elapsed_ms,
            "elapsed ran past the trip"
        );
        // The live meters still move; only the snapshot is frozen.
        assert_eq!(g.pairs_charged(), 511);
    }

    #[test]
    fn mem_trip_freezes_its_observed_bytes() {
        let g = RunGuard::unlimited();
        g.charge_bytes(3);
        g.trip(AbortReason::MemBudgetExceeded {
            limit: 1,
            observed: 2,
        });
        g.charge_bytes(100);
        assert_eq!(g.partial_stats().bytes_charged, 2);
    }

    #[test]
    fn reasons_display() {
        assert!(AbortReason::Cancelled.to_string().contains("cancelled"));
        let d = AbortReason::DeadlineExceeded { timeout_ms: 9 };
        assert!(d.to_string().contains("9 ms"));
        let p = AbortReason::PairBudgetExceeded {
            limit: 1,
            observed: 2,
        };
        assert!(p.to_string().contains("2 > 1"));
        let m = AbortReason::MemBudgetExceeded {
            limit: 3,
            observed: 4,
        };
        assert!(m.to_string().contains("bytes"));
        let s = PartialStats::default().to_string();
        assert!(s.contains("0/0 tasks"));
    }
}
