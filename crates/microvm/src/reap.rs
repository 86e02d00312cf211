//! REAP-style working-set recording and prefetching (Ustiugov et al.,
//! ASPLOS '21), the snapshot-loading optimisation the paper names as
//! complementary to Fireworks (§7: "FIREWORKS can also employ REAP's
//! prefetching to further reduce the overhead for reading snapshots from
//! disk").
//!
//! When a snapshot's pages are *not* resident in the host page cache
//! (cold storage, or thousands of functions competing for cache), every
//! first touch after restore is a major fault: a random read from the
//! snapshot file. REAP records the set of pages an invocation actually
//! touches (the working set) and, on later restores, loads exactly those
//! pages with one sequential read — turning many random major faults into
//! one bulk prefetch.

use std::collections::BTreeSet;

use fireworks_guestmem::SnapshotFile;
use fireworks_obs::{cat, BatchedCounter, Obs};
use fireworks_sim::cost::MemCosts;
use fireworks_sim::fault::{FaultSite, SharedInjector};
use fireworks_sim::Clock;

use crate::error::VmError;

/// Operating mode of the REAP mechanism for one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReapMode {
    /// No recording, no prefetching: every first touch of a non-resident
    /// snapshot page is a random major fault.
    Off,
    /// Record the pages touched by this invocation (the first invocation
    /// after deploying to cold storage).
    Record,
    /// Prefetch the recorded working set before resuming; accesses outside
    /// the recorded set still fault individually.
    Prefetch,
}

/// The recorded working set of one function's invocations.
#[derive(Debug, Clone, Default)]
pub struct WorkingSet {
    pages: BTreeSet<usize>,
}

impl WorkingSet {
    /// Creates an empty working set.
    pub fn new() -> Self {
        WorkingSet::default()
    }

    /// Records a touched page.
    pub fn record(&mut self, page: usize) {
        self.pages.insert(page);
    }

    /// Records a contiguous page range.
    pub fn record_range(&mut self, first: usize, count: usize) {
        for p in first..first + count {
            self.pages.insert(p);
        }
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether a page is in the set.
    pub fn contains(&self, page: usize) -> bool {
        self.pages.contains(&page)
    }
}

/// Tracks paging state of one restored VM whose snapshot lives in cold
/// storage, charging faults or prefetches on the clock.
#[derive(Debug)]
pub struct ReapSession {
    mode: ReapMode,
    costs: MemCosts,
    touched: WorkingSet,
    resident: BTreeSet<usize>,
    major_faults: u64,
    prefetched_pages: u64,
    /// Write-buffered fault/hit counters: `touch` runs once per guest
    /// page, so increments batch locally and flush when the session
    /// drops (or on [`ReapSession::flush_metrics`]).
    fault_ctr: Option<BatchedCounter>,
    hit_ctr: Option<BatchedCounter>,
}

impl ReapSession {
    /// Starts a session charging the host's paging `costs`. In
    /// [`ReapMode::Prefetch`], `working_set` is the set recorded by an
    /// earlier [`ReapMode::Record`] session.
    pub fn start(clock: &Clock, mode: ReapMode, costs: &MemCosts, working_set: WorkingSet) -> Self {
        match Self::start_with_faults(clock, mode, costs, working_set, None, None) {
            Ok(session) => session,
            Err(_) => unreachable!("no fault sources supplied"),
        }
    }

    /// Starts a session like [`ReapSession::start`], but the prefetch bulk
    /// read consults a fault injector ([`FaultSite::SnapshotRead`] — the
    /// read from cold storage can fail transiently) and, when the backing
    /// [`SnapshotFile`] is supplied, re-checksums each working-set page as
    /// it is read, so stored-page corruption is caught at prefetch time
    /// rather than when the guest executes the page.
    ///
    /// On failure the fixed prefetch-issue cost has already been charged;
    /// the per-page read cost is only charged when the read succeeds.
    pub fn start_with_faults(
        clock: &Clock,
        mode: ReapMode,
        costs: &MemCosts,
        working_set: WorkingSet,
        injector: Option<&SharedInjector>,
        snapshot: Option<&SnapshotFile>,
    ) -> Result<Self, VmError> {
        Self::start_observed(clock, mode, costs, working_set, injector, snapshot, None)
    }

    /// Starts a session like [`ReapSession::start_with_faults`] and, when
    /// an observability plane is supplied, records the prefetch bulk read
    /// as a span (category `prefetch`) plus prefetch/fault counters:
    /// `microvm.reap.prefetched_pages`, `microvm.reap.prefetch_hits`,
    /// `microvm.reap.major_faults`, and `microvm.reap.prefetch_failures`.
    #[allow(clippy::too_many_arguments)]
    pub fn start_observed(
        clock: &Clock,
        mode: ReapMode,
        costs: &MemCosts,
        working_set: WorkingSet,
        injector: Option<&SharedInjector>,
        snapshot: Option<&SnapshotFile>,
        obs: Option<&Obs>,
    ) -> Result<Self, VmError> {
        let mut resident = BTreeSet::new();
        let mut prefetched_pages = 0;
        if mode == ReapMode::Prefetch && !working_set.is_empty() {
            let span = obs.map(|o| {
                let id = o.recorder().start("reap_prefetch", cat::PREFETCH);
                o.recorder().attr(id, "pages", working_set.len());
                id
            });
            let end_span = |failed: bool| {
                if let (Some(o), Some(id)) = (obs, span) {
                    if failed {
                        o.recorder().attr(id, "failed", true);
                        o.metrics().inc("microvm.reap.prefetch_failures", &[]);
                    }
                    o.recorder().end(id);
                }
            };
            clock.advance(costs.prefetch_base);
            let read_fails = injector
                .map(|inj| inj.borrow_mut().should_fail(FaultSite::SnapshotRead))
                .unwrap_or(false);
            if read_fails {
                end_span(true);
                return Err(VmError::SnapshotRead);
            }
            // One bulk sequential read of the whole working set.
            clock.advance(costs.sequential_read_per_page * working_set.len() as u64);
            if let Some(snap) = snapshot {
                for page in &working_set.pages {
                    if let Err(err) = snap.verify_guest_page(*page) {
                        end_span(true);
                        return Err(err.into());
                    }
                }
            }
            resident.extend(working_set.pages.iter().copied());
            prefetched_pages = working_set.len() as u64;
            if let Some(o) = obs {
                o.metrics()
                    .add("microvm.reap.prefetched_pages", &[], prefetched_pages);
            }
            end_span(false);
        }
        Ok(ReapSession {
            mode,
            costs: costs.clone(),
            touched: WorkingSet::new(),
            resident,
            major_faults: 0,
            prefetched_pages,
            fault_ctr: obs.map(|o| {
                o.metrics()
                    .counter("microvm.reap.major_faults", &[])
                    .batched()
            }),
            hit_ctr: obs.map(|o| {
                o.metrics()
                    .counter("microvm.reap.prefetch_hits", &[])
                    .batched()
            }),
        })
    }

    /// Notes that the guest touched `page` of the snapshot file, charging
    /// a major fault if it is not resident yet.
    pub fn touch(&mut self, clock: &Clock, page: usize) {
        self.touched.record(page);
        if self.resident.insert(page) {
            clock.advance(self.costs.major_fault);
            self.major_faults += 1;
            if let Some(c) = &self.fault_ctr {
                c.inc();
            }
        } else if let Some(c) = &self.hit_ctr {
            c.inc();
        }
    }

    /// Pushes buffered fault/hit increments to the shared registry so a
    /// metrics snapshot taken mid-session sees them; dropping the
    /// session flushes the tail automatically.
    pub fn flush_metrics(&self) {
        if let Some(c) = &self.fault_ctr {
            c.flush();
        }
        if let Some(c) = &self.hit_ctr {
            c.flush();
        }
    }

    /// Notes a touched page range.
    pub fn touch_range(&mut self, clock: &Clock, first: usize, count: usize) {
        for p in first..first + count {
            self.touch(clock, p);
        }
    }

    /// Finishes the session; in [`ReapMode::Record`] returns the recorded
    /// working set for future prefetching.
    pub fn finish(self) -> Option<WorkingSet> {
        match self.mode {
            ReapMode::Record => Some(self.touched),
            _ => None,
        }
    }

    /// Major faults taken so far.
    pub fn major_faults(&self) -> u64 {
        self.major_faults
    }

    /// Pages loaded by the upfront prefetch.
    pub fn prefetched_pages(&self) -> u64 {
        self.prefetched_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch_workload(session: &mut ReapSession, clock: &Clock) {
        // A working set of 3 ranges, 700 pages total.
        session.touch_range(clock, 0, 200);
        session.touch_range(clock, 10_000, 400);
        session.touch_range(clock, 40_000, 100);
    }

    #[test]
    fn off_mode_pays_one_major_fault_per_page() {
        let clock = Clock::new();
        let mut s = ReapSession::start(
            &clock,
            ReapMode::Off,
            &MemCosts::default(),
            WorkingSet::new(),
        );
        touch_workload(&mut s, &clock);
        assert_eq!(s.major_faults(), 700);
        let expected = MemCosts::default().major_fault * 700;
        assert_eq!(clock.now(), expected);
        assert!(s.finish().is_none());
    }

    #[test]
    fn repeated_touches_fault_once() {
        let clock = Clock::new();
        let mut s = ReapSession::start(
            &clock,
            ReapMode::Off,
            &MemCosts::default(),
            WorkingSet::new(),
        );
        s.touch(&clock, 42);
        s.touch(&clock, 42);
        s.touch(&clock, 42);
        assert_eq!(s.major_faults(), 1);
    }

    #[test]
    fn record_mode_captures_the_working_set() {
        let clock = Clock::new();
        let mut s = ReapSession::start(
            &clock,
            ReapMode::Record,
            &MemCosts::default(),
            WorkingSet::new(),
        );
        touch_workload(&mut s, &clock);
        let ws = s.finish().expect("record mode returns a set");
        assert_eq!(ws.len(), 700);
        assert!(ws.contains(0) && ws.contains(10_399) && ws.contains(40_099));
        assert!(!ws.contains(500));
    }

    #[test]
    fn prefetch_is_much_cheaper_than_faulting() {
        let costs = MemCosts::default();

        // Record pass.
        let clock = Clock::new();
        let mut rec = ReapSession::start(&clock, ReapMode::Record, &costs, WorkingSet::new());
        touch_workload(&mut rec, &clock);
        let faulting_time = clock.now();
        let ws = rec.finish().expect("working set");

        // Prefetch pass: same accesses, no major faults.
        let clock2 = Clock::new();
        let mut pre = ReapSession::start(&clock2, ReapMode::Prefetch, &costs, ws);
        let after_prefetch = clock2.now();
        touch_workload(&mut pre, &clock2);
        assert_eq!(pre.major_faults(), 0, "all accesses hit the prefetched set");
        assert_eq!(clock2.now(), after_prefetch, "no further paging cost");
        assert_eq!(pre.prefetched_pages(), 700);
        // REAP's headline effect: bulk sequential read ≪ random faults.
        assert!(
            clock2.now().as_nanos() * 5 < faulting_time.as_nanos(),
            "prefetch {} vs faulting {}",
            clock2.now(),
            faulting_time
        );
    }

    #[test]
    fn accesses_outside_the_recorded_set_still_fault() {
        let clock = Clock::new();
        let mut ws = WorkingSet::new();
        ws.record_range(0, 10);
        let mut s = ReapSession::start(&clock, ReapMode::Prefetch, &MemCosts::default(), ws);
        s.touch(&clock, 5); // In set: free.
        assert_eq!(s.major_faults(), 0);
        s.touch(&clock, 99_999); // Outside: major fault.
        assert_eq!(s.major_faults(), 1);
    }

    #[test]
    fn prefetch_read_fault_aborts_after_issue_cost() {
        use fireworks_sim::fault::{self, FaultInjector, FaultPlan};
        let clock = Clock::new();
        let costs = MemCosts::default();
        let inj = fault::shared(FaultInjector::new(
            FaultPlan::new(5).nth(FaultSite::SnapshotRead, 1),
        ));
        let mut ws = WorkingSet::new();
        ws.record_range(0, 100);
        let err = ReapSession::start_with_faults(
            &clock,
            ReapMode::Prefetch,
            &costs,
            ws.clone(),
            Some(&inj),
            None,
        )
        .expect_err("bulk read fails");
        assert_eq!(err, VmError::SnapshotRead);
        // Only the fixed issue cost was charged, not the per-page read.
        assert_eq!(clock.now(), costs.prefetch_base);
        // The retry succeeds (nth-trigger already fired).
        let s = ReapSession::start_with_faults(
            &clock,
            ReapMode::Prefetch,
            &costs,
            ws,
            Some(&inj),
            None,
        )
        .expect("retry succeeds");
        assert_eq!(s.prefetched_pages(), 100);
    }

    #[test]
    fn prefetch_detects_corrupt_working_set_pages() {
        use fireworks_guestmem::{AddressSpace, HostMemory, PAGE_SIZE};
        let clock = Clock::new();
        let host = HostMemory::new(clock.clone(), 1 << 30, 60);
        let mut space = AddressSpace::new(host.clone(), 1 << 20);
        space.write(0, &[7u8; 4 * PAGE_SIZE]);
        let snap = SnapshotFile::capture(&space, Vec::new());
        snap.corrupt_page(2); // Guest page 2 — inside the working set.

        let mut ws = WorkingSet::new();
        ws.record_range(0, 4);
        let err = ReapSession::start_with_faults(
            &clock,
            ReapMode::Prefetch,
            &MemCosts::default(),
            ws,
            None,
            Some(&snap),
        )
        .expect_err("prefetch reads the bad page");
        assert!(matches!(err, VmError::Corrupt(detail) if detail.page == 2));

        // Pages outside the snapshot or outside the damage verify fine.
        let mut clean = WorkingSet::new();
        clean.record(0);
        clean.record(50_000); // Not in the snapshot: nothing to verify.
        ReapSession::start_with_faults(
            &clock,
            ReapMode::Prefetch,
            &MemCosts::default(),
            clean,
            None,
            Some(&snap),
        )
        .expect("clean pages prefetch");
    }
}
