//! A public flat-record codec for checkpoint headers.
//!
//! A checkpoint is one flat record — a JSON object on one line with a
//! `"type"` discriminator, the same wire shape as [`crate::ObsEvent`] but
//! open-schema: the engines define their own fields (fingerprints, cursor)
//! without this crate knowing them. [`RecordBuilder`] writes a record,
//! [`Record`] parses one back with typed field access.

use crate::json::{parse_object, push_json_str, Fields, ParseError};
use std::fmt::Write as _;

/// Builds one flat record line (`{"type":"...",...}`, no trailing newline).
#[derive(Debug)]
pub struct RecordBuilder {
    out: String,
}

impl RecordBuilder {
    /// Start a record with the given `"type"` discriminator.
    pub fn new(kind: &str) -> Self {
        let mut out = String::with_capacity(64);
        out.push_str("{\"type\":");
        push_json_str(&mut out, kind);
        Self { out }
    }

    /// Append a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_json_str(&mut self.out, value);
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Finish the record and return the line.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }

    fn key(&mut self, key: &str) {
        self.out.push(',');
        push_json_str(&mut self.out, key);
        self.out.push(':');
    }
}

/// One parsed flat record with typed field access.
#[derive(Debug)]
pub struct Record {
    kind: String,
    fields: Fields,
}

impl Record {
    /// Parse one record line. Fails when the line is not a flat JSON object
    /// or lacks a string `"type"` field.
    pub fn parse(line: &str) -> Result<Self, ParseError> {
        let fields = Fields(parse_object(line)?);
        let kind = fields.str("type")?.to_string();
        Ok(Self { kind, fields })
    }

    /// The record's `"type"` discriminator.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<&str, ParseError> {
        self.fields.str(key)
    }

    /// An unsigned integer field.
    pub fn u64(&self, key: &str) -> Result<u64, ParseError> {
        self.fields.u64(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let line = RecordBuilder::new("probe")
            .str("name", "a \"b\"\nc")
            .u64("count", 42)
            .u64("max", u64::MAX)
            .finish();
        let rec = Record::parse(&line).unwrap();
        assert_eq!(rec.kind(), "probe");
        assert_eq!(rec.str("name").unwrap(), "a \"b\"\nc");
        assert_eq!(rec.u64("count").unwrap(), 42);
        assert_eq!(rec.u64("max").unwrap(), u64::MAX);
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        assert!(Record::parse("not json").is_err());
        assert!(Record::parse("{\"minute\":3}").is_err(), "missing type");
        let rec = Record::parse("{\"type\":\"t\",\"n\":\"x\"}").unwrap();
        assert!(rec.u64("n").is_err());
        assert!(rec.u64("missing").is_err());
        assert!(rec.str("missing").is_err());
    }

    #[test]
    fn records_nest_inside_event_strings() {
        // A checkpoint line survives embedding in a Checkpoint event.
        let line = RecordBuilder::new("snapshot").u64("next", 7).finish();
        let ev = crate::ObsEvent::Checkpoint {
            seq: 0,
            snapshot: line.clone(),
        };
        match crate::ObsEvent::from_json(&ev.to_json()).unwrap() {
            crate::ObsEvent::Checkpoint { snapshot, .. } => {
                assert_eq!(snapshot, line);
                assert_eq!(Record::parse(&snapshot).unwrap().u64("next").unwrap(), 7);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
