//! Trace sinks: where engines send their [`ObsEvent`] streams.
//!
//! The contract is built for hot paths: engines hold an
//! `Option<&mut dyn TraceSink>` and call [`emit`], which constructs the
//! event **only** when a sink is present and [`TraceSink::enabled`] — with
//! [`NullSink`] (or no sink at all) the closure never runs, so the
//! instrumented and un-instrumented paths execute the same arithmetic and
//! results stay bit-identical (pinned by the transparency suite in
//! `tests/robustness.rs`).

use crate::event::ObsEvent;
use std::io::Write;

/// A consumer of engine events. Implementations must not affect simulation
/// state — sinks observe, they never steer.
pub trait TraceSink {
    /// Cheap gate the engines check before building an event. Sinks that
    /// discard everything return `false` so event construction is skipped
    /// entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn record(&mut self, event: &ObsEvent);
}

/// Build and record an event only when a sink is attached and enabled. This
/// is the one emission path the engines use; `make` runs lazily so the
/// disabled path costs a branch and nothing else.
#[inline]
pub fn emit(sink: &mut Option<&mut dyn TraceSink>, make: impl FnOnce() -> ObsEvent) {
    if let Some(s) = sink {
        if s.enabled() {
            let event = make();
            s.record(&event);
        }
    }
}

/// The zero-cost default: disabled, discards everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &ObsEvent) {}
}

/// An in-memory sink that keeps every event — for tests and programmatic
/// consumers that want the typed stream rather than JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySink {
    events: Vec<ObsEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every event recorded so far, in emission order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// How many recorded events satisfy `pred`.
    pub fn count(&self, pred: impl Fn(&ObsEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Drop the recorded events and return them.
    pub fn take(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &ObsEvent) {
        self.events.push(event.clone());
    }
}

/// Streams events as JSON Lines — one [`ObsEvent::to_json`] object per line
/// — into any [`Write`] (a `BufWriter<File>`, a `Vec<u8>` in tests, …).
///
/// I/O errors never panic the simulation: the first failure latches
/// [`Self::had_error`] and further writes are skipped.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: u64,
    failed: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            lines: 0,
            failed: false,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Whether any write failed (subsequent events were dropped).
    pub fn had_error(&self) -> bool {
        self.failed
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Unwrap the writer (callers flush/close it themselves).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &ObsEvent) {
        if self.failed {
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(_) => self.failed = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsEvent {
        ObsEvent::Serve {
            minute: 3,
            func: 1,
            requests: 4,
            cold_starts: 1,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_emit_skips_construction() {
        assert!(!NullSink.enabled());
        let mut built = false;
        let mut null = NullSink;
        let mut sink: Option<&mut dyn TraceSink> = Some(&mut null);
        emit(&mut sink, || {
            built = true;
            sample()
        });
        assert!(!built, "NullSink must not construct events");
        let mut none: Option<&mut dyn TraceSink> = None;
        emit(&mut none, || {
            built = true;
            sample()
        });
        assert!(!built, "absent sink must not construct events");
    }

    #[test]
    fn memory_sink_keeps_order_and_counts() {
        let mut mem = MemorySink::new();
        {
            let mut sink: Option<&mut dyn TraceSink> = Some(&mut mem);
            emit(&mut sink, sample);
            emit(&mut sink, || ObsEvent::Reap { at_ms: 9, func: 0 });
        }
        assert_eq!(mem.events().len(), 2);
        assert_eq!(mem.count(|e| e.kind() == "reap"), 1);
        assert_eq!(mem.take().len(), 2);
        assert!(mem.events().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&sample());
        sink.record(&ObsEvent::RunStart {
            label: "t".to_string(),
        });
        assert_eq!(sink.lines(), 2);
        assert!(!sink.had_error());
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(ObsEvent::from_json(lines[0]).unwrap(), sample());
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.record(&sample());
        sink.record(&sample());
        assert_eq!(sink.lines(), 0);
        assert!(sink.had_error());
    }
}
