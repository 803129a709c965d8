//! Entry-point coverage feedback from the window engine.
//!
//! Each tile's translation cache records the pcs where translated
//! windows started and jumps landed; the set of `(tile, entry pc)`
//! pairs is therefore a cheap, deterministic proxy for "control-flow
//! paths this input reached". The fuzzer keeps inputs that light up
//! entries no earlier input reached and mutates them preferentially —
//! classic coverage-guided feedback without any instrumentation beyond
//! what the simulator already maintains.

use std::collections::BTreeSet;
use stitch_sim::Chip;

/// Accumulated `(tile index, entry pc)` coverage across a run.
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    seen: BTreeSet<(usize, u32)>,
}

impl CoverageMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a finished chip's translation coverage into the map,
    /// returning how many entries were new.
    pub fn absorb(&mut self, chip: &Chip) -> usize {
        let mut fresh = 0;
        for entry in chip.translation_coverage() {
            if self.seen.insert(entry) {
                fresh += 1;
            }
        }
        fresh
    }

    /// Entries covered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been covered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// True if `chip` covered at least one entry absent from this map,
    /// without mutating the map (used by the corpus minimizer).
    #[must_use]
    pub fn would_grow(&self, chip: &Chip) -> bool {
        chip.translation_coverage()
            .iter()
            .any(|e| !self.seen.contains(e))
    }
}
