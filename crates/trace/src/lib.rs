//! Chip-wide observability for the Stitch simulator.
//!
//! The simulator's hot loops call [`Tracer::emit`] at every state
//! transition worth observing. A disabled tracer (the default) costs a
//! single branch on a `None` — the event closure is never built — so an
//! untraced run pays essentially nothing. An enabled tracer fans each
//! event out to up to three consumers:
//!
//! 1. a [`RingSink`] holding the most recent events of the classes
//!    selected by [`TraceConfig::ring_mask`] (dense classes like
//!    `Retire`/`FlitHop` are usually masked out of the ring and viewed
//!    through the windows instead);
//! 2. an optional [`MetricsCollector`] integrating **every** event —
//!    mask-independent — into fixed cycle windows of per-tile
//!    utilization, stall breakdowns, and a NoC link heatmap;
//! 3. an optional caller-supplied extra [`TraceSink`].
//!
//! The captured stream exports to Chrome-trace-event JSON via
//! [`to_chrome_trace`] and loads directly in `ui.perfetto.dev`.
//!
//! Both simulator engines (`Chip::run` and `Chip::run_reference`) emit
//! bit-identical event streams: events only mark transitions that both
//! engines execute on the same cycle, and the fast path's skippable
//! windows are event-free by construction (see `crates/trace/src/event.rs`).

#![warn(missing_docs)]

mod event;
mod json;
mod metrics;
mod perfetto;
mod sink;

pub use event::{EventKind, EventMask, TraceEvent, NO_PARTNER};
pub use json::{JsonValue, MAX_DEPTH as JSON_MAX_DEPTH, MAX_INPUT_BYTES as JSON_MAX_INPUT_BYTES};
pub use metrics::{MetricsCollector, TileWindow, TraceWindows, WindowMetrics};
pub use perfetto::to_chrome_trace;
pub use sink::{RingSink, TraceCapture, TraceSink};

/// How a [`Tracer`] is set up.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events.
    pub ring_capacity: usize,
    /// Event classes retained in the ring (the windowed metrics always
    /// see every event regardless).
    pub ring_mask: EventMask,
    /// Window length in cycles for the windowed metrics, or `None` to
    /// skip collecting them.
    pub window: Option<u64>,
    /// Number of tiles on the chip being traced.
    pub tiles: usize,
}

impl TraceConfig {
    /// A practical default for application traces on a `tiles`-tile
    /// chip: a 1 Mi-event ring of control-plane events (dense
    /// `Retire`/`CacheMiss`/`FlitHop` masked out) and 10 k-cycle metric
    /// windows.
    #[must_use]
    pub fn new(tiles: usize) -> TraceConfig {
        TraceConfig {
            ring_capacity: 1 << 20,
            ring_mask: EventMask::control(),
            window: Some(10_000),
            tiles,
        }
    }

    /// Keep every event class in the ring (short runs / tests).
    #[must_use]
    pub fn full(tiles: usize) -> TraceConfig {
        TraceConfig {
            ring_mask: EventMask::ALL,
            ..TraceConfig::new(tiles)
        }
    }

    /// Replace the window length.
    #[must_use]
    pub fn with_window(mut self, window: Option<u64>) -> TraceConfig {
        self.window = window;
        self
    }
}

struct TraceCore {
    ring: RingSink,
    mask: EventMask,
    metrics: Option<MetricsCollector>,
    extra: Option<Box<dyn TraceSink + Send>>,
    /// Events emitted over the tracer's lifetime (counted before any
    /// ring eviction, so it is the true production count, not the
    /// retained count). The simulator's trace-event budget reads this.
    emitted: u64,
}

/// The per-chip event recorder. Disabled by default; the simulator
/// threads one of these through its hot loops and calls
/// [`Tracer::emit`] with a closure that builds the event only when
/// tracing is on.
#[derive(Default)]
pub struct Tracer {
    core: Option<Box<TraceCore>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            None => f.write_str("Tracer(disabled)"),
            Some(core) => f
                .debug_struct("Tracer")
                .field("ring_len", &core.ring.len())
                .field("ring_dropped", &core.ring.dropped())
                .field("windowed", &core.metrics.is_some())
                .finish(),
        }
    }
}

impl Tracer {
    /// The no-op tracer: `emit` is a single branch.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer { core: None }
    }

    /// An enabled tracer per `cfg`.
    #[must_use]
    pub fn new(cfg: &TraceConfig) -> Tracer {
        Tracer {
            core: Some(Box::new(TraceCore {
                ring: RingSink::new(cfg.ring_capacity),
                mask: cfg.ring_mask,
                metrics: cfg.window.map(|w| MetricsCollector::new(w, cfg.tiles)),
                extra: None,
                emitted: 0,
            })),
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Attach an extra sink that receives every event (no-op if the
    /// tracer is disabled).
    pub fn set_extra_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        if let Some(core) = &mut self.core {
            core.extra = Some(sink);
        }
    }

    /// Record the event built by `f`, if tracing is enabled. `f` runs
    /// only when it is — keep event construction inside the closure.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(core) = &mut self.core {
            let ev = f();
            core.emitted += 1;
            if let Some(m) = &mut core.metrics {
                m.record(&ev);
            }
            if core.mask.contains(ev.kind()) {
                core.ring.record(&ev);
            }
            if let Some(x) = &mut core.extra {
                x.record(&ev);
            }
        }
    }

    /// Total events emitted since the tracer was enabled (0 when
    /// disabled). Monotonic; unaffected by ring eviction.
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.emitted)
    }

    /// The windowed metrics closed at `end_cycle`, if collected.
    /// Non-destructive.
    #[must_use]
    pub fn windows_snapshot(&self, end_cycle: u64) -> Option<TraceWindows> {
        self.core
            .as_ref()
            .and_then(|c| c.metrics.as_ref())
            .map(|m| m.snapshot(end_cycle))
    }

    /// Tear the tracer down (leaving it disabled) and return the ring's
    /// contents, or `None` if it was disabled.
    pub fn take_capture(&mut self) -> Option<TraceCapture> {
        self.core.take().map(|c| c.ring.into_capture())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let built = Cell::new(false);
        let mut t = Tracer::disabled();
        t.emit(|| {
            built.set(true);
            TraceEvent::Checkpoint { cycle: 0 }
        });
        assert!(!built.get());
        assert!(!t.is_enabled());
        assert_eq!(t.take_capture(), None);
    }

    #[test]
    fn mask_filters_ring_but_not_metrics() {
        let cfg = TraceConfig {
            ring_capacity: 16,
            ring_mask: EventMask::control(),
            window: Some(100),
            tiles: 2,
        };
        let mut t = Tracer::new(&cfg);
        t.emit(|| TraceEvent::Retire {
            cycle: 1,
            tile: 0,
            cost: 4,
        });
        t.emit(|| TraceEvent::Demote {
            cycle: 2,
            tile: 1,
            to_software: true,
        });
        let w = t.windows_snapshot(100).expect("windowed");
        assert_eq!(w.tile_totals()[0].busy_cycles, 4);
        assert_eq!(w.tile_totals()[1].demotions, 1);
        let cap = t.take_capture().expect("enabled");
        // Retire is masked out of the ring; Demote is retained.
        assert_eq!(cap.events.len(), 1);
        assert!(matches!(cap.events[0], TraceEvent::Demote { .. }));
    }

    #[test]
    fn extra_sink_sees_everything() {
        struct Count(usize);
        impl TraceSink for Count {
            fn record(&mut self, _: &TraceEvent) {
                self.0 += 1;
            }
        }
        let mut t = Tracer::new(&TraceConfig::full(1).with_window(None));
        t.set_extra_sink(Box::new(Count(0)));
        t.emit(|| TraceEvent::Checkpoint { cycle: 1 });
        t.emit(|| TraceEvent::Checkpoint { cycle: 2 });
        let cap = t.take_capture().unwrap();
        assert_eq!(cap.events.len(), 2);
    }
}
