//! A snapshot image's page list: the frames in guest-page order plus the
//! few contiguous runs they form.

use std::ops::Range;

use crate::host::FrameId;

/// A snapshot's immutable page list, shared by the file and every clone
/// restored from it.
#[derive(Debug)]
pub(crate) struct Image {
    /// (guest page, host frame), ascending by page.
    pub(crate) frames: Vec<(usize, FrameId)>,
    /// Maximal runs of consecutive guest pages as (first page, position
    /// of that page in `frames`, length). A VM image is a handful of
    /// regions, so finding a page is a search over a few runs, not over
    /// the frame list.
    runs: Vec<(usize, usize, usize)>,
}

impl Image {
    pub(crate) fn new(frames: Vec<(usize, FrameId)>) -> Self {
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        let mut expect = usize::MAX;
        for (at, &(page, _)) in frames.iter().enumerate() {
            if page != expect {
                runs.push((page, at, 0));
            }
            expect = page + 1;
        }
        // Each run ends where the next begins.
        let mut end = frames.len();
        for (_, at, len) in runs.iter_mut().rev() {
            (*len, end) = (end - *at, *at);
        }
        Image { frames, runs }
    }

    /// The maximal range of guest pages around `page` that the image
    /// maps all of or none of, with the position of the range's first
    /// page — or, for a gap, `Err` of the position just after it.
    // Out of line: the page-fault loop calls it once per run of pages.
    #[inline(never)]
    pub(crate) fn span(&self, page: usize) -> (Range<usize>, Result<usize, usize>) {
        let after = self.runs.partition_point(|(first, _, _)| *first <= page);
        let next = self
            .runs
            .get(after)
            .map_or(usize::MAX, |(first, _, _)| *first);
        match after.checked_sub(1).map(|before| self.runs[before]) {
            Some((first, at, len)) if page < first + len => (first..first + len, Ok(at)),
            Some((first, at, len)) => (first + len..next, Err(at + len)),
            None => (0..next, Err(0)),
        }
    }

    /// The position of guest page `page`, or (as `binary_search` would)
    /// the position it would be inserted at.
    pub(crate) fn locate(&self, page: usize) -> Result<usize, usize> {
        let (span, first) = self.span(page);
        first.map(|at| at + page - span.start)
    }
}
