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
use fireworks_obs::{cat, Counter, Obs};
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

/// The observability plane [`ReapSession`]s record to, with the series
/// every session updates resolved once: a host keeps one and hands it to
/// each session, which then looks no name up.
#[derive(Debug, Clone)]
pub struct ReapMetrics {
    obs: Obs,
    major_faults: Counter,
    prefetch_hits: Counter,
    prefetched_pages: Counter,
}

impl ReapMetrics {
    /// Resolves the per-session counters of `obs`.
    pub fn new(obs: &Obs) -> Self {
        let metrics = obs.metrics();
        ReapMetrics {
            obs: obs.clone(),
            major_faults: metrics.counter("microvm.reap.major_faults", &[]),
            prefetch_hits: metrics.counter("microvm.reap.prefetch_hits", &[]),
            prefetched_pages: metrics.counter("microvm.reap.prefetched_pages", &[]),
        }
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
    /// Fault/hit counters, shared with the host's [`ReapMetrics`]:
    /// `touch` runs once per guest page.
    fault_ctr: Counter,
    hit_ctr: Counter,
}

impl ReapSession {
    /// Starts a session charging the host's paging `costs`. In
    /// [`ReapMode::Prefetch`], `working_set` is the set recorded by an
    /// earlier [`ReapMode::Record`] session, and it is loaded with one
    /// bulk read of `snapshot` that consults `injector`
    /// ([`FaultSite::SnapshotRead`] — the read from cold storage can fail
    /// transiently) and re-checksums each working-set page as it is
    /// read, so stored-page corruption is caught at prefetch time rather
    /// than when the guest executes the page.
    ///
    /// On failure the fixed prefetch-issue cost has already been charged;
    /// the per-page read cost is only charged when the read succeeds.
    ///
    /// `metrics` records the prefetch bulk read as a span (category
    /// `prefetch`) plus prefetch/fault counters:
    /// `microvm.reap.prefetched_pages`, `microvm.reap.prefetch_hits`,
    /// `microvm.reap.major_faults`, and `microvm.reap.prefetch_failures`.
    pub fn start(
        clock: &Clock,
        mode: ReapMode,
        costs: &MemCosts,
        working_set: WorkingSet,
        injector: &SharedInjector,
        snapshot: &SnapshotFile,
        metrics: &ReapMetrics,
    ) -> Result<Self, VmError> {
        let obs = &metrics.obs;
        // Every session exports its fault and hit counts, 0 included.
        metrics.major_faults.add(0);
        metrics.prefetch_hits.add(0);
        let mut resident = BTreeSet::new();
        let mut prefetched_pages = 0;
        if mode == ReapMode::Prefetch && !working_set.is_empty() {
            let rec = obs.recorder();
            let span = rec.start("reap_prefetch", cat::PREFETCH);
            rec.attr(span, "pages", working_set.len());
            let end_span = |failed: bool| {
                if failed {
                    rec.attr(span, "failed", true);
                    obs.metrics().inc("microvm.reap.prefetch_failures", &[]);
                }
                rec.end(span);
            };
            clock.advance(costs.prefetch_base);
            if injector.borrow_mut().should_fail(FaultSite::SnapshotRead) {
                end_span(true);
                return Err(VmError::SnapshotRead);
            }
            // One bulk sequential read of the whole working set.
            clock.advance(costs.sequential_read_per_page * working_set.len() as u64);
            for page in &working_set.pages {
                if let Err(err) = snapshot.verify_guest_page(*page) {
                    end_span(true);
                    return Err(err.into());
                }
            }
            resident.extend(working_set.pages.iter().copied());
            prefetched_pages = working_set.len() as u64;
            metrics.prefetched_pages.add(prefetched_pages);
            end_span(false);
        }
        Ok(ReapSession {
            mode,
            costs: costs.clone(),
            touched: WorkingSet::new(),
            resident,
            major_faults: 0,
            prefetched_pages,
            fault_ctr: metrics.major_faults.clone(),
            hit_ctr: metrics.prefetch_hits.clone(),
        })
    }

    /// Notes that the guest touched `page` of the snapshot file, charging
    /// a major fault if it is not resident yet.
    pub fn touch(&mut self, clock: &Clock, page: usize) {
        self.touched.record(page);
        if self.resident.insert(page) {
            clock.advance(self.costs.major_fault);
            self.major_faults += 1;
            self.fault_ctr.inc();
        } else {
            self.hit_ctr.inc();
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
    use fireworks_guestmem::{AddressSpace, HostMemory, PAGE_SIZE};
    use fireworks_sim::fault::{self, FaultInjector, FaultPlan};

    /// A snapshot of a space with `data_pages` written pages, on a host
    /// with its own clock (capturing it charges none of the test's).
    fn snapshot(data_pages: usize) -> SnapshotFile {
        let host = HostMemory::new(Clock::new(), 1 << 30);
        let mut space = AddressSpace::new(host, 1 << 20);
        space.write(0, &vec![7u8; data_pages * PAGE_SIZE]);
        SnapshotFile::capture(&space, Vec::new())
    }

    /// Starts a session that reads `snapshot` through `injector`.
    fn start_on(
        clock: &Clock,
        mode: ReapMode,
        ws: WorkingSet,
        injector: &SharedInjector,
        snapshot: &SnapshotFile,
    ) -> Result<ReapSession, VmError> {
        let metrics = ReapMetrics::new(&Obs::new(clock.clone()));
        let costs = MemCosts::default();
        ReapSession::start(clock, mode, &costs, ws, injector, snapshot, &metrics)
    }

    /// Starts a session with nothing that fails: no armed fault, an
    /// empty snapshot.
    fn session(clock: &Clock, mode: ReapMode, ws: WorkingSet) -> ReapSession {
        let injector = fault::shared(FaultInjector::disabled());
        start_on(clock, mode, ws, &injector, &snapshot(0)).expect("nothing fails")
    }

    fn touch_workload(session: &mut ReapSession, clock: &Clock) {
        // A working set of 3 ranges, 700 pages total.
        session.touch_range(clock, 0, 200);
        session.touch_range(clock, 10_000, 400);
        session.touch_range(clock, 40_000, 100);
    }

    #[test]
    fn off_mode_pays_one_major_fault_per_page() {
        let clock = Clock::new();
        let mut s = session(&clock, ReapMode::Off, WorkingSet::new());
        touch_workload(&mut s, &clock);
        assert_eq!(s.major_faults(), 700);
        let expected = MemCosts::default().major_fault * 700;
        assert_eq!(clock.now(), expected);
        assert!(s.finish().is_none());
    }

    #[test]
    fn repeated_touches_fault_once() {
        let clock = Clock::new();
        let mut s = session(&clock, ReapMode::Off, WorkingSet::new());
        s.touch(&clock, 42);
        s.touch(&clock, 42);
        s.touch(&clock, 42);
        assert_eq!(s.major_faults(), 1);
    }

    #[test]
    fn record_mode_captures_the_working_set() {
        let clock = Clock::new();
        let mut s = session(&clock, ReapMode::Record, WorkingSet::new());
        touch_workload(&mut s, &clock);
        let ws = s.finish().expect("record mode returns a set");
        assert_eq!(ws.len(), 700);
        assert!(ws.contains(0) && ws.contains(10_399) && ws.contains(40_099));
        assert!(!ws.contains(500));
    }

    #[test]
    fn prefetch_is_much_cheaper_than_faulting() {
        // Record pass.
        let clock = Clock::new();
        let mut rec = session(&clock, ReapMode::Record, WorkingSet::new());
        touch_workload(&mut rec, &clock);
        let faulting_time = clock.now();
        let ws = rec.finish().expect("working set");

        // Prefetch pass: same accesses, no major faults.
        let clock2 = Clock::new();
        let mut pre = session(&clock2, ReapMode::Prefetch, ws);
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
        let mut s = session(&clock, ReapMode::Prefetch, ws);
        s.touch(&clock, 5); // In set: free.
        assert_eq!(s.major_faults(), 0);
        s.touch(&clock, 99_999); // Outside: major fault.
        assert_eq!(s.major_faults(), 1);
    }

    #[test]
    fn prefetch_read_fault_aborts_after_issue_cost() {
        let clock = Clock::new();
        let inj = fault::shared(FaultInjector::new(
            FaultPlan::new(5).nth(FaultSite::SnapshotRead, 1),
        ));
        let snap = snapshot(0);
        let mut ws = WorkingSet::new();
        ws.record_range(0, 100);
        let err = start_on(&clock, ReapMode::Prefetch, ws.clone(), &inj, &snap)
            .expect_err("bulk read fails");
        assert_eq!(err, VmError::SnapshotRead);
        // Only the fixed issue cost was charged, not the per-page read.
        assert_eq!(clock.now(), MemCosts::default().prefetch_base);
        // The retry succeeds (nth-trigger already fired).
        let s = start_on(&clock, ReapMode::Prefetch, ws, &inj, &snap).expect("retry succeeds");
        assert_eq!(s.prefetched_pages(), 100);
    }

    #[test]
    fn prefetch_detects_corrupt_working_set_pages() {
        let clock = Clock::new();
        let inj = fault::shared(FaultInjector::disabled());
        let snap = snapshot(4);
        snap.corrupt_page(2); // Guest page 2 — inside the working set.

        let mut ws = WorkingSet::new();
        ws.record_range(0, 4);
        let err = start_on(&clock, ReapMode::Prefetch, ws, &inj, &snap)
            .expect_err("prefetch reads the bad page");
        assert!(matches!(err, VmError::Corrupt(detail) if detail.page == 2));

        // Pages outside the snapshot or outside the damage verify fine.
        let mut clean = WorkingSet::new();
        clean.record(0);
        clean.record(50_000); // Not in the snapshot: nothing to verify.
        start_on(&clock, ReapMode::Prefetch, clean, &inj, &snap).expect("clean pages prefetch");
    }
}
