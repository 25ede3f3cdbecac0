//! The [`Tracer`] trait and its stock implementations.
//!
//! `vc-model` threads a `Tracer` through every execution and `vc-engine`
//! through every sweep chunk. The trait has one hook, [`Tracer::on`],
//! taking a [`TraceEvent`] and with an empty default body, so the
//! zero-sized [`NoopTracer`] implements nothing at all, letting the
//! untraced hot path monomorphize every emission away.

use crate::event::TraceEvent;

/// Receiver of the typed execution/sweep events of [`TraceEvent`].
///
/// Emitters build the event value at the call site and hand it to
/// [`Tracer::on`]. Events carry only primitives, so when the hook is the
/// empty inlined default the compiler deletes the construction along
/// with the call — which is what makes tracing free when disabled.
pub trait Tracer {
    /// Observe one event. Defaults to a no-op.
    #[inline]
    fn on(&mut self, _ev: TraceEvent) {}
}

/// Forward events through mutable references, so a long-lived tracer
/// can be lent to each execution of a sweep (`run_from_traced` takes the
/// tracer by value; passing `&mut metrics` keeps ownership with the
/// sweep loop).
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn on(&mut self, ev: TraceEvent) {
        (**self).on(ev);
    }
}

/// The disabled tracer: a zero-sized type whose hook is the empty
/// default. Instantiating the execution loop with `NoopTracer` produces
/// the same machine code as not tracing at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// A tracer aggregated per task by the sharded engine and merged in
/// start order (chunk order, then task order).
///
/// Implementations must make `absorb` order-compatible with serial
/// accumulation: folding events task by task and absorbing the task
/// partials in start order must equal folding the whole sweep into one
/// tracer. Purely integral state (counters, histograms, integer
/// sums) satisfies this for free.
pub trait MergeTracer: Tracer + Default + Send {
    /// Whether the engine should wall-clock each task and emit
    /// [`TraceEvent::ChunkTimed`]. `false` for [`NoopTracer`] so the
    /// untraced sharded path performs no clock reads at all.
    const TIMED: bool = true;

    /// Folds another tracer's state (a later task's partial) into this
    /// one.
    fn absorb(&mut self, other: Self);
}

impl MergeTracer for NoopTracer {
    const TIMED: bool = false;

    #[inline]
    fn absorb(&mut self, _other: Self) {}
}

/// A tracer that records the full typed event log — the "per-problem
/// query trace" view used by `examples/trace_report.rs` and the audit
/// transparency tests.
///
/// Recording every event of a large sweep would allocate without bound,
/// so a capacity can be set: once `cap` events are stored, later events
/// are counted in [`RecordingTracer::dropped`] instead of stored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordingTracer {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Maximum number of events to store (`None` = unbounded).
    pub cap: Option<usize>,
    /// Events dropped after the capacity was reached.
    pub dropped: u64,
}

impl RecordingTracer {
    /// An unbounded recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that stores at most `cap` events.
    pub fn with_capacity_limit(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap: Some(cap),
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.cap.is_some_and(|c| self.events.len() >= c) {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }
}

/// The sharded engine appends its partials in merge order, so a sweep
/// records the same log at every thread count. Untimed: a wall-clock
/// `ChunkTimed` event would make two recordings of one sweep differ.
impl MergeTracer for RecordingTracer {
    const TIMED: bool = false;

    fn absorb(&mut self, other: Self) {
        for event in other.events {
            self.push(event);
        }
        self.dropped += other.dropped;
    }
}

impl Tracer for RecordingTracer {
    fn on(&mut self, ev: TraceEvent) {
        self.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
    }

    #[test]
    fn recording_tracer_stores_events_in_order() {
        let events = [
            TraceEvent::QueryIssued { from: 0, port: 1 },
            TraceEvent::NodeRevealed { node: 1, depth: 1 },
            TraceEvent::FrontierAdvanced { depth: 1 },
            TraceEvent::AnswerFinalized {
                root: 0,
                volume: 2,
                distance_upper: 1,
                queries: 1,
                completed: true,
            },
        ];
        let mut t = RecordingTracer::new();
        for ev in events {
            t.on(ev);
        }
        assert_eq!(t.events, events);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn recording_tracer_caps_and_counts_drops() {
        let mut t = RecordingTracer::with_capacity_limit(2);
        for from in 0..5 {
            t.on(TraceEvent::QueryIssued { from, port: 1 });
        }
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn recording_tracer_absorbs_in_order_under_its_cap() {
        let claimed = TraceEvent::ChunkClaimed {
            chunk: 0,
            starts: 64,
        };
        let queries: Vec<TraceEvent> = (0..3)
            .map(|from| TraceEvent::QueryIssued { from, port: 1 })
            .collect();
        let mut merged = RecordingTracer::with_capacity_limit(3);
        merged.on(claimed);
        let mut part = RecordingTracer::new();
        for &ev in &queries {
            part.on(ev);
        }
        merged.absorb(part);
        assert_eq!(merged.events, [claimed, queries[0], queries[1]]);
        assert_eq!(merged.dropped, 1);
    }

    #[test]
    fn mut_reference_forwards_every_variant() {
        // Drive through a generic bound so the `&mut T` forwarding impl
        // (the one sweep loops rely on) is the impl actually exercised.
        fn drive<T: Tracer>(mut t: T, events: &[TraceEvent]) {
            for &ev in events {
                t.on(ev);
            }
        }
        let events = crate::event::one_of_each();
        let mut inner = RecordingTracer::new();
        drive(&mut inner, &events);
        assert_eq!(inner.events, events);
    }
}
