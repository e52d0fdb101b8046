//! Always-on flight recorder: a fixed-size ring of compact structured
//! events, kept even when tracing is disabled.
//!
//! Where the [`trace`](crate::trace) layer is an opt-in fold of every
//! observation into aggregates, the [`FlightRecorder`] is the black box: it
//! is always on, costs O(1) per event (one slot write in a pre-allocated
//! ring, no heap traffic), and retains only the last N events. When
//! something goes wrong — a platform error surfaces, or a state audit finds
//! a violation — the ring is dumped as JSON so every failure ships the
//! operations that led up to it.
//!
//! Events are deliberately [`Copy`]-compact: a static operation name, a
//! domain id, the virtual timestamp, a static outcome tag and one numeric
//! argument. Anything richer belongs in the trace sink.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

/// Ring capacity (events retained) of [`FlightRecorder::default`], the
/// platform's recorder.
pub const DEFAULT_FLIGHTREC_CAPACITY: usize = 256;

/// One compact flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Operation tag (static taxonomy, e.g. `clone`, `destroy`, `audit`).
    pub op: &'static str,
    /// Domain the operation concerns (0 for host-wide events).
    pub dom: u32,
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// Outcome tag (e.g. `ok`, `err`, `violation`).
    pub outcome: &'static str,
    /// One free-form numeric argument (child id, frame number, count...).
    pub arg: u64,
}

#[derive(Debug)]
struct Ring {
    slots: Vec<FlightEvent>,
    capacity: usize,
    /// Index of the next slot to write.
    next: usize,
    /// Total events ever recorded (>= slots.len()).
    recorded: u64,
}

/// A shareable handle onto a flight-recorder ring; see the
/// [module docs](self). Cloning yields another handle onto the same ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Ring>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHTREC_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Rc::new(RefCell::new(Ring {
                slots: Vec::with_capacity(capacity),
                capacity,
                next: 0,
                recorded: 0,
            })),
        }
    }

    /// Records one event. O(1): overwrites the oldest slot once the ring
    /// is full.
    pub fn record(&self, ev: FlightEvent) {
        let mut r = self.inner.borrow_mut();
        if r.slots.len() < r.capacity {
            r.slots.push(ev);
        } else {
            let at = r.next;
            r.slots[at] = ev;
        }
        r.next = (r.next + 1) % r.capacity;
        r.recorded += 1;
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    /// Whether no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().slots.is_empty()
    }

    /// Ring capacity (events retained).
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorded
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let r = self.inner.borrow();
        if r.slots.len() < r.capacity {
            r.slots.clone()
        } else {
            let mut out = Vec::with_capacity(r.capacity);
            out.extend_from_slice(&r.slots[r.next..]);
            out.extend_from_slice(&r.slots[..r.next]);
            out
        }
    }

    /// Discards all retained events (the total recorded count is kept).
    pub fn clear(&self) {
        let mut r = self.inner.borrow_mut();
        r.slots.clear();
        r.next = 0;
    }

    /// Serializes the ring as JSON: a `context` string, the ring geometry,
    /// and the retained events oldest-first. Byte-stable for identical
    /// recordings.
    pub fn to_json(&self, context: &str) -> String {
        let mut events = String::new();
        for ev in self.events() {
            if !events.is_empty() {
                events.push(',');
            }
            events.push_str(&format!(
                "{{\"op\":{},\"dom\":{},\"at_ns\":{},\"outcome\":{},\"arg\":{}}}",
                json_str(ev.op),
                ev.dom,
                ev.at_ns,
                json_str(ev.outcome),
                ev.arg
            ));
        }
        let r = self.inner.borrow();
        format!(
            "{{\"context\":{},\"capacity\":{},\"recorded\":{},\"events\":[{}]}}\n",
            json_str(context),
            r.capacity,
            r.recorded,
            events
        )
    }

    /// Writes [`to_json`](Self::to_json) to `path`, creating parent
    /// directories as needed.
    pub fn dump(&self, path: impl AsRef<Path>, context: &str) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json(context))
    }
}

/// JSON string literal with the characters the taxonomy can contain escaped.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str, arg: u64) -> FlightEvent {
        FlightEvent {
            op,
            dom: 1,
            at_ns: arg * 10,
            outcome: "ok",
            arg,
        }
    }

    #[test]
    fn retains_last_n_in_order() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.record(ev("op", i));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.recorded(), 5);
        let args: Vec<u64> = fr.events().iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![2, 3, 4], "oldest first, oldest two evicted");
    }

    #[test]
    fn partial_ring_keeps_insertion_order() {
        let fr = FlightRecorder::with_capacity(8);
        fr.record(ev("a", 1));
        fr.record(ev("b", 2));
        let ops: Vec<&str> = fr.events().iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["a", "b"]);
    }

    #[test]
    fn shared_handles_write_one_ring() {
        let fr = FlightRecorder::with_capacity(4);
        let other = fr.clone();
        fr.record(ev("x", 1));
        other.record(ev("y", 2));
        assert_eq!(fr.len(), 2);
        assert_eq!(other.recorded(), 2);
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let run = || {
            let fr = FlightRecorder::with_capacity(2);
            fr.record(ev("clone", 7));
            fr.record(FlightEvent {
                op: "destroy",
                dom: 3,
                at_ns: 99,
                outcome: "err",
                arg: 0,
            });
            fr.to_json("unit-test")
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"context\":\"unit-test\""));
        assert!(a.contains("\"op\":\"destroy\""));
        assert!(a.contains("\"outcome\":\"err\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn clear_keeps_recorded_total() {
        let fr = FlightRecorder::with_capacity(2);
        fr.record(ev("a", 1));
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.recorded(), 1);
    }
}
