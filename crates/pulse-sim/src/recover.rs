//! Crash-consistent recovery support shared by both engines.
//!
//! Every engine here is deterministic: the same workload, fault plan and
//! fleet, driven with a policy built from the same arguments (seeds
//! included), run the same way event for event. So a **checkpoint** carries
//! no run state. It is one flat-record line (the
//! [`pulse_obs::RecordBuilder`] wire shape): the format version, the engine
//! tag, fingerprints of the inputs the restore call must supply again, the
//! policy name, and a cursor into the run (the simulator's next minute; the
//! runtime's count of events stepped and the time of the last one).
//!
//! Restoring checks the header, builds a fresh session from the supplied
//! inputs and re-drives it, untraced, to the cursor. Every failure is a
//! typed [`RecoverError`], never a panic, so a stale or foreign checkpoint
//! can always be rejected softly. The price is time: a restore replays the
//! prefix, so it costs what running that prefix costs.
//!
//! This module owns the pieces both engines share: the error type, the
//! configuration fingerprint and the header codec. The engine-specific
//! capture/restore entry points live next to each engine
//! ([`crate::SimSession::snapshot`] and the runtime crate's equivalent).

use pulse_obs::{Record, RecordBuilder};

/// Version stamped into every checkpoint header; restore rejects any other
/// value with [`RecoverError::VersionSkew`]. Version 5 is the replay
/// cursor; versions up to 4 serialized the run state.
pub const SNAPSHOT_VERSION: u64 = 5;

/// Why a checkpoint could not be restored. Every failure mode is typed and
/// soft: restore never panics on foreign input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The checkpoint was written by a different format version.
    VersionSkew {
        /// Version found in the header.
        found: u64,
        /// Version this build understands.
        supported: u64,
    },
    /// The checkpoint text is malformed, or its cursor does not fit the
    /// run that replay rebuilds.
    Corrupt {
        /// What failed to parse or validate.
        message: String,
    },
    /// The checkpoint was captured under a different policy.
    PolicyMismatch {
        /// Policy name recorded in the checkpoint.
        expected: String,
        /// Policy name offered at restore.
        found: String,
    },
    /// The checkpoint was captured against a different workload, fault
    /// plan, fleet, or runtime configuration.
    ConfigMismatch {
        /// Which configuration fingerprint disagreed.
        what: &'static str,
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the configuration offered at restore.
        found: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::VersionSkew { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            Self::Corrupt { message } => write!(f, "corrupt snapshot: {message}"),
            Self::PolicyMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot was taken under policy {expected:?}, not {found:?}"
                )
            }
            Self::ConfigMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "snapshot {what} fingerprint {expected:#018x} does not match {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl RecoverError {
    /// Wrap any displayable parse/validation failure as
    /// [`RecoverError::Corrupt`].
    pub fn corrupt(message: impl std::fmt::Display) -> Self {
        Self::Corrupt {
            message: message.to_string(),
        }
    }
}

/// FNV-1a fingerprint of an arbitrary string — the configuration-identity
/// check both engines stamp into checkpoint headers (the `Debug` form of
/// the trace, families, fault plan and fleet is hashed, not serialized, so
/// the header stays one line).
pub fn fingerprint(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a `Debug`-printable configuration value.
pub fn fingerprint_of(value: &impl std::fmt::Debug) -> u64 {
    fingerprint(&format!("{value:?}"))
}

/// Check one fingerprint from a checkpoint header against the live
/// configuration.
pub fn check_fingerprint(
    what: &'static str,
    expected: u64,
    found: u64,
) -> Result<(), RecoverError> {
    if expected == found {
        Ok(())
    } else {
        Err(RecoverError::ConfigMismatch {
            what,
            expected,
            found,
        })
    }
}

/// The checkpoint of a run by `engine` under `policy`: one header line with
/// the format version, the engine tag, each `(field, value)` of
/// `fingerprints`, the policy name and each `(field, value)` of `cursor`.
pub fn write_header(
    engine: &str,
    fingerprints: &[(&'static str, u64)],
    policy: &str,
    cursor: &[(&'static str, u64)],
) -> String {
    let head = RecordBuilder::new("snapshot")
        .u64("version", SNAPSHOT_VERSION)
        .str("engine", engine);
    let head = fingerprints
        .iter()
        .fold(head, |b, &(what, fp)| b.u64(what, fp))
        .str("policy", policy);
    cursor
        .iter()
        .fold(head, |b, &(what, v)| b.u64(what, v))
        .finish()
}

/// Parse and check a checkpoint written by [`write_header`] for `engine`
/// under `policy`: the `snapshot` kind, the format version, the engine tag,
/// each `(field, live value)` of `fingerprints` in order, then the policy
/// name. The checks run in that order, so the first disagreement decides
/// the error. A checkpoint is exactly one non-blank line. Returns the
/// header record, from which the engine reads its cursor.
pub fn read_header(
    snapshot: &str,
    engine: &str,
    fingerprints: &[(&'static str, u64)],
    policy: &str,
) -> Result<Record, RecoverError> {
    let c = RecoverError::corrupt;
    let mut lines = snapshot.lines().filter(|l| !l.trim().is_empty());
    let head = lines
        .next()
        .ok_or_else(|| RecoverError::corrupt("empty snapshot"))?;
    let head = Record::parse(head).map_err(c)?;
    if head.kind() != "snapshot" {
        return Err(RecoverError::corrupt(format!(
            "expected a snapshot header, got {:?}",
            head.kind()
        )));
    }
    let version = head.u64("version").map_err(c)?;
    if version != SNAPSHOT_VERSION {
        return Err(RecoverError::VersionSkew {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let found = head.str("engine").map_err(c)?;
    if found != engine {
        return Err(RecoverError::corrupt(format!(
            "snapshot is for the {found:?} engine, not {engine:?}"
        )));
    }
    for &(what, live) in fingerprints {
        check_fingerprint(what, head.u64(what).map_err(c)?, live)?;
    }
    let expected = head.str("policy").map_err(c)?;
    if expected != policy {
        return Err(RecoverError::PolicyMismatch {
            expected: expected.to_string(),
            found: policy.to_string(),
        });
    }
    if lines.next().is_some() {
        return Err(RecoverError::corrupt(
            "a snapshot is one header line, but rows follow it",
        ));
    }
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert!(check_fingerprint("plan", 1, 1).is_ok());
        assert!(matches!(
            check_fingerprint("plan", 1, 2),
            Err(RecoverError::ConfigMismatch { what: "plan", .. })
        ));
    }

    #[test]
    fn header_round_trips_and_checks_in_order() {
        let doc = write_header(
            "rt",
            &[("workload", 7), ("plan", 8)],
            "pulse",
            &[("now", 9)],
        );
        assert_eq!(doc.lines().count(), 1);
        let fps = [("workload", 7), ("plan", 8)];
        let head = read_header(&doc, "rt", &fps, "pulse").unwrap();
        assert_eq!(head.u64("now").unwrap(), 9);
        assert!(matches!(
            read_header(&doc, "rt", &[("workload", 7), ("plan", 1)], "other"),
            Err(RecoverError::ConfigMismatch { what: "plan", .. })
        ));
        assert!(matches!(
            read_header(&doc, "rt", &fps, "other"),
            Err(RecoverError::PolicyMismatch { .. })
        ));
        assert!(matches!(
            read_header(&doc, "sim", &fps, "pulse"),
            Err(RecoverError::Corrupt { .. })
        ));
        // A version-4 document (header plus state rows) is skew, not rows.
        let v4 = doc.replacen("\"version\":5", "\"version\":4", 1) + "\n{\"type\":\"metrics\"}";
        assert!(matches!(
            read_header(&v4, "rt", &fps, "pulse"),
            Err(RecoverError::VersionSkew { found: 4, .. })
        ));
        let trailing = format!("{doc}\n{{\"type\":\"metrics\"}}");
        assert!(matches!(
            read_header(&trailing, "rt", &fps, "pulse"),
            Err(RecoverError::Corrupt { .. })
        ));
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = RecoverError::VersionSkew {
            found: 9,
            supported: SNAPSHOT_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
        let e = RecoverError::PolicyMismatch {
            expected: "pulse".into(),
            found: "openwhisk-fixed".into(),
        };
        assert!(e.to_string().contains("pulse"));
        assert!(RecoverError::corrupt("bad row")
            .to_string()
            .contains("bad row"));
    }
}
