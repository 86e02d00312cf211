//! A snapshot image's page list: runs of consecutive guest pages on
//! consecutive frames of one frame-table entry.

use std::ops::Range;

use crate::host::{Extent, FrameId};

/// A snapshot's immutable page list, shared by the file and every clone
/// restored from it. A VM image is a handful of regions, each a few runs,
/// so finding a page or a position is a search over runs, and nothing
/// here grows with the pages.
#[derive(Debug)]
pub(crate) struct Image {
    /// (position of its first page in the list, extent), ascending by
    /// page; an extent that continues the one before is part of it.
    runs: Vec<(usize, Extent)>,
    pages: usize,
}

impl Image {
    pub(crate) fn new(extents: impl IntoIterator<Item = Extent>) -> Self {
        let (mut runs, mut pages) = (Vec::<(usize, Extent)>::new(), 0);
        for e in extents.into_iter().filter(|e| e.len > 0) {
            match runs.last_mut() {
                Some((_, last)) if last.continued_by(&e) => last.len += e.len,
                _ => runs.push((pages, e)),
            }
            pages += e.len;
        }
        Image { runs, pages }
    }

    /// The runs, as (position of the first page, extent).
    pub(crate) fn runs(&self) -> &[(usize, Extent)] {
        &self.runs
    }

    /// Pages listed.
    pub(crate) fn pages(&self) -> usize {
        self.pages
    }

    /// The run of guest pages around `page` that the image maps on
    /// consecutive frames, with the position and frame of its first page
    /// — or the maximal gap around `page`, with the position just after.
    // Out of line: the page-fault loop calls it once per run of pages.
    #[inline(never)]
    pub(crate) fn span(&self, page: usize) -> (Range<usize>, Result<(usize, FrameId), usize>) {
        let after = self.runs.partition_point(|(_, e)| e.page <= page);
        let next = self.runs.get(after).map_or(usize::MAX, |(_, e)| e.page);
        match after.checked_sub(1).map(|before| self.runs[before]) {
            Some((at, e)) if page < e.page + e.len => (e.page..e.page + e.len, Ok((at, e.frame))),
            Some((at, e)) => (e.page + e.len..next, Err(at + e.len)),
            None => (0..next, Err(0)),
        }
    }

    /// The position and frame of guest page `page`, or (as
    /// `binary_search` would) the position it would be inserted at.
    pub(crate) fn locate(&self, page: usize) -> Result<(usize, FrameId), usize> {
        let (span, first) = self.span(page);
        let k = page - span.start;
        first.map(|(at, frame)| (at + k, frame.add(k)))
    }

    /// The run holding position `idx`.
    pub(crate) fn run_at(&self, idx: usize) -> (usize, Extent) {
        self.runs[self.runs.partition_point(|(at, _)| *at <= idx) - 1]
    }

    /// The frame at position `idx`.
    pub(crate) fn frame_at(&self, idx: usize) -> FrameId {
        let (at, e) = self.run_at(idx);
        e.frame.add(idx - at)
    }
}
