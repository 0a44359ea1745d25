//! The write-ahead journal: crash-consistent event logging with embedded
//! snapshots.
//!
//! A journal is an ordinary [`crate::JsonlSink`] stream with two extra
//! record kinds threaded through it:
//!
//! * [`crate::ObsEvent::JournalEpoch`] headers — epoch 0 opens the file,
//!   and every checkpoint closes the current epoch and opens the next;
//! * [`crate::ObsEvent::Checkpoint`] records — an engine checkpoint (the
//!   one-line header an engine restores from by replay), flushed to the OS
//!   before the epoch advances.
//!
//! Recovery reads the journal back with [`replay_journal`], restores the
//! last intact snapshot, and replays the run from there; the *tail* (the
//! events recorded after that snapshot) is what the uninterrupted run
//! emitted between the checkpoint and the kill, so a resumed run must
//! re-emit exactly that sequence — [`first_divergence`] pinpoints the first
//! event where it does not.
//!
//! A process killed mid-write leaves a torn final line; replay tolerates it
//! (the event was not durably recorded, so it simply is not part of the
//! journal) and reports it via [`JournalReplay::torn_tail`]. A malformed
//! line *before* the end is real corruption and fails with a typed
//! [`JournalError`].

use crate::event::ObsEvent;
use crate::sink::{JsonlSink, TraceSink};
use std::fmt;
use std::io::Write;

/// Why a journal could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// A line other than the final one failed to parse — the journal is
    /// corrupt beyond a torn tail.
    Corrupt {
        /// 1-based line number of the first malformed line.
        line: usize,
        /// The parse failure.
        message: String,
    },
    /// The journal contains no epoch header — it is not a journal stream.
    MissingHeader,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            Self::MissingHeader => write!(f, "journal has no epoch header"),
        }
    }
}

impl std::error::Error for JournalError {}

/// A [`TraceSink`] that writes a write-ahead journal: the wrapped JSONL
/// stream plus epoch headers and checkpoint records.
///
/// The epoch-0 header is written on construction; [`Self::checkpoint`]
/// appends a snapshot record, flushes, and opens the next epoch. I/O errors
/// follow [`JsonlSink`] semantics: the first failure latches and later
/// writes are dropped rather than panicking the run.
#[derive(Debug)]
pub struct JournalSink<W: Write> {
    inner: JsonlSink<W>,
    epoch: u64,
    checkpoints: u64,
}

impl<W: Write> JournalSink<W> {
    /// Wrap a writer and emit the epoch-0 header.
    pub fn new(writer: W) -> Self {
        let mut inner = JsonlSink::new(writer);
        inner.record(&ObsEvent::JournalEpoch { epoch: 0 });
        Self {
            inner,
            epoch: 0,
            checkpoints: 0,
        }
    }

    /// The epoch currently being written.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Checkpoints written so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Lines successfully written so far (headers and checkpoints included).
    pub fn lines(&self) -> u64 {
        self.inner.lines()
    }

    /// Whether any write failed (subsequent records were dropped).
    pub fn had_error(&self) -> bool {
        self.inner.had_error()
    }

    /// Append a checkpoint: the snapshot record, an explicit flush (the
    /// durability point — everything up to and including the snapshot is
    /// handed to the OS), then the next epoch's header.
    pub fn checkpoint(&mut self, snapshot: &str) {
        self.inner.record(&ObsEvent::Checkpoint {
            seq: self.checkpoints,
            snapshot: snapshot.to_string(),
        });
        self.checkpoints += 1;
        let _ = self.inner.flush();
        self.epoch += 1;
        self.inner
            .record(&ObsEvent::JournalEpoch { epoch: self.epoch });
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    /// Unwrap the writer (callers flush/close it themselves).
    pub fn into_inner(self) -> W {
        self.inner.into_inner()
    }
}

impl<W: Write> TraceSink for JournalSink<W> {
    fn record(&mut self, event: &ObsEvent) {
        self.inner.record(event);
    }
}

/// The parsed content of a journal, as recovered by [`replay_journal`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplay {
    /// Epoch headers seen, in order.
    pub epochs: Vec<u64>,
    /// The last intact checkpoint, if any: `(seq, snapshot document)`.
    pub last_checkpoint: Option<(u64, String)>,
    /// Events recorded *after* the last checkpoint (or from the start when
    /// no checkpoint exists), epoch headers excluded — the tail a resumed
    /// run must re-emit.
    pub tail: Vec<ObsEvent>,
    /// Whether the final line was torn (truncated mid-write) and dropped.
    pub torn_tail: bool,
}

/// Parse a journal stream back. The final line may be torn — a process
/// killed mid-write never durably recorded that event, so it is dropped and
/// flagged; any earlier malformed line is corruption and fails typed.
pub fn replay_journal(text: &str) -> Result<JournalReplay, JournalError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut epochs = Vec::new();
    let mut last_checkpoint = None;
    let mut tail = Vec::new();
    let mut torn_tail = false;
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match ObsEvent::from_json(line) {
            Ok(ObsEvent::JournalEpoch { epoch }) => epochs.push(epoch),
            Ok(ObsEvent::Checkpoint { seq, snapshot }) => {
                last_checkpoint = Some((seq, snapshot));
                tail.clear();
            }
            Ok(ev) => tail.push(ev),
            Err(e) if i == last => {
                // Torn final line: the write never completed, so the event
                // was never durably part of the journal.
                let _ = e;
                torn_tail = true;
            }
            Err(e) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    message: e.message,
                })
            }
        }
    }
    if epochs.is_empty() {
        return Err(JournalError::MissingHeader);
    }
    Ok(JournalReplay {
        epochs,
        last_checkpoint,
        tail,
        torn_tail,
    })
}

/// The first position where a resumed run's event stream differs from the
/// journal tail it must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based index of the first mismatch.
    pub index: usize,
    /// What the journal recorded there (`None` when the resumed run emitted
    /// extra events past the recorded tail).
    pub expected: Option<ObsEvent>,
    /// What the resumed run emitted there (`None` when it stopped short).
    pub actual: Option<ObsEvent>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first divergence at event {}: expected {:?}, got {:?}",
            self.index, self.expected, self.actual
        )
    }
}

/// Compare a recorded event stream against a re-emitted one and report the
/// first mismatch, or `None` when they are identical.
pub fn first_divergence(expected: &[ObsEvent], actual: &[ObsEvent]) -> Option<Divergence> {
    let n = expected.len().max(actual.len());
    for i in 0..n {
        if expected.get(i) != actual.get(i) {
            return Some(Divergence {
                index: i,
                expected: expected.get(i).cloned(),
                actual: actual.get(i).cloned(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(minute: u64) -> ObsEvent {
        ObsEvent::Bill {
            minute,
            keepalive_mb: 100.0,
            cost_usd: 1.0e-6,
        }
    }

    #[test]
    fn journal_opens_with_epoch_zero_and_checkpoints_advance_epochs() {
        let mut j = JournalSink::new(Vec::new());
        j.record(&ev(0));
        j.checkpoint("{\"type\":\"snap\"}");
        j.record(&ev(1));
        assert_eq!(j.epoch(), 1);
        assert_eq!(j.checkpoints(), 1);
        assert!(!j.had_error());
        let text = String::from_utf8(j.into_inner()).unwrap();
        let replay = replay_journal(&text).unwrap();
        assert_eq!(replay.epochs, vec![0, 1]);
        assert_eq!(
            replay.last_checkpoint,
            Some((0, "{\"type\":\"snap\"}".to_string()))
        );
        assert_eq!(replay.tail, vec![ev(1)]);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn tail_without_checkpoint_is_the_whole_stream() {
        let mut j = JournalSink::new(Vec::new());
        j.record(&ev(0));
        j.record(&ev(1));
        let text = String::from_utf8(j.into_inner()).unwrap();
        let replay = replay_journal(&text).unwrap();
        assert_eq!(replay.last_checkpoint, None);
        assert_eq!(replay.tail, vec![ev(0), ev(1)]);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_flagged() {
        let mut j = JournalSink::new(Vec::new());
        j.record(&ev(0));
        j.checkpoint("{\"type\":\"snap\"}");
        j.record(&ev(1));
        j.record(&ev(2));
        let mut text = String::from_utf8(j.into_inner()).unwrap();
        // Simulate a crash mid-write: truncate the last line in half.
        let keep = text.len() - 20;
        text.truncate(keep);
        let replay = replay_journal(&text).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.tail, vec![ev(1)]);
        assert_eq!(replay.last_checkpoint.unwrap().0, 0);
    }

    #[test]
    fn mid_stream_corruption_is_a_typed_error() {
        let mut j = JournalSink::new(Vec::new());
        j.record(&ev(0));
        let mut text = String::from_utf8(j.into_inner()).unwrap();
        text = text.replacen("\"type\":\"bill\"", "\"type\":\"???\"", 1);
        text.push_str(&format!("{}\n", ev(1).to_json()));
        let err = replay_journal(&text).unwrap_err();
        match err {
            JournalError::Corrupt { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error {other:?}"),
        }
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn missing_header_is_a_typed_error() {
        let text = format!("{}\n", ev(0).to_json());
        assert_eq!(
            replay_journal(&text).unwrap_err(),
            JournalError::MissingHeader
        );
    }

    #[test]
    fn later_checkpoints_supersede_earlier_ones() {
        let mut j = JournalSink::new(Vec::new());
        j.record(&ev(0));
        j.checkpoint("first");
        j.record(&ev(1));
        j.checkpoint("second");
        j.record(&ev(2));
        let text = String::from_utf8(j.into_inner()).unwrap();
        let replay = replay_journal(&text).unwrap();
        assert_eq!(replay.last_checkpoint, Some((1, "second".to_string())));
        assert_eq!(replay.tail, vec![ev(2)]);
        assert_eq!(replay.epochs, vec![0, 1, 2]);
    }

    #[test]
    fn divergence_detector_reports_first_mismatch() {
        let a = vec![ev(0), ev(1), ev(2)];
        assert_eq!(first_divergence(&a, &a), None);

        let b = vec![ev(0), ev(9), ev(2)];
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.expected, Some(ev(1)));
        assert_eq!(d.actual, Some(ev(9)));

        // Short stream: mismatch at the missing position.
        let d = first_divergence(&a, &a[..2]).unwrap();
        assert_eq!(d.index, 2);
        assert_eq!(d.expected, Some(ev(2)));
        assert_eq!(d.actual, None);

        // Long stream: extra events flagged.
        let mut c = a.clone();
        c.push(ev(3));
        let d = first_divergence(&a, &c).unwrap();
        assert_eq!(d.index, 3);
        assert_eq!(d.expected, None);
        assert!(d.to_string().contains("first divergence at event 3"));
    }
}
