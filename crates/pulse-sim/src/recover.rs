//! Crash-consistent recovery support shared by both engines.
//!
//! A **snapshot** is a versioned multi-line document of flat records (the
//! [`pulse_obs::RecordBuilder`] wire shape): one header line carrying the
//! format version and configuration fingerprints, followed by typed state
//! rows. Restoring checks the version and fingerprints first and fails with
//! a typed [`RecoverError`] — never a panic — on skew, corruption, or a
//! mismatched workload/policy, so a stale or foreign snapshot can always be
//! rejected softly.
//!
//! This module owns the pieces both engines share: the error type, the
//! configuration fingerprint, and the codecs for the
//! [`ScheduleLedger`] and
//! [`RunMetrics`] state rows. The engine-specific capture/restore entry
//! points live next to each engine ([`crate::SimSession::snapshot`] and the
//! runtime crate's equivalent).

use crate::metrics::RunMetrics;
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::schedule::{ScheduleLedger, Slot};
use pulse_models::ModelFamily;
use pulse_obs::{Record, RecordBuilder};

/// Version stamped into every snapshot header; restore rejects any other
/// value with [`RecoverError::VersionSkew`].
pub const SNAPSHOT_VERSION: u64 = 4;

/// Why a snapshot could not be restored. Every failure mode is typed and
/// soft: restore never panics on foreign input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The snapshot was written by a different format version.
    VersionSkew {
        /// Version found in the header.
        found: u64,
        /// Version this build understands.
        supported: u64,
    },
    /// The snapshot text is malformed or internally inconsistent.
    Corrupt {
        /// What failed to parse or validate.
        message: String,
    },
    /// The snapshot was captured under a different policy.
    PolicyMismatch {
        /// Policy name recorded in the snapshot.
        expected: String,
        /// Policy name offered at restore.
        found: String,
    },
    /// The snapshot was captured against a different workload, fault plan,
    /// fleet, or runtime configuration.
    ConfigMismatch {
        /// Which configuration fingerprint disagreed.
        what: &'static str,
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the configuration offered at restore.
        found: u64,
    },
    /// The policy cannot produce (or accept) checkpoint state.
    NotCheckpointable {
        /// The offending policy's name.
        policy: String,
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
            Self::NotCheckpointable { policy } => {
                write!(f, "policy {policy:?} does not support checkpointing")
            }
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
/// check both engines stamp into snapshot headers (the `Debug` form of the
/// trace, families, fault plan and fleet is hashed, not serialized, so the
/// header stays one line).
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

/// Check one fingerprint from a snapshot header against the live
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

/// Parse and check the header line of a snapshot taken by `engine` under
/// `policy`: the `snapshot` kind, the format version, the engine tag, each
/// `(field, live value)` of `fingerprints` in order, then the policy name.
/// The checks run in that order, so the first disagreement decides the
/// error. Returns the header record and the snapshot's remaining non-blank
/// rows.
pub fn read_header<'s>(
    snapshot: &'s str,
    engine: &str,
    fingerprints: &[(&'static str, u64)],
    policy: &str,
) -> Result<(Record, impl Iterator<Item = &'s str>), RecoverError> {
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
    Ok((head, lines))
}

/// In-plan encoding of [`Slot::Hole`] inside a packed slot list (variants
/// are small ladder indices, so the sentinel can never collide).
const HOLE_SLOT: u64 = u64::MAX;

/// Append one `"sched"` row per installed schedule of `ledger` to `doc`
/// (functions without a schedule are omitted; restore starts from an empty
/// ledger of the same width).
pub fn encode_ledger(doc: &mut String, ledger: &ScheduleLedger) {
    for f in 0..ledger.n_functions() {
        let Some(s) = ledger.schedule(f) else {
            continue;
        };
        let slots: Vec<u64> = (1..=u64::from(s.window()))
            .map(|m| match s.slot_at_offset(m) {
                Some(Slot::Alive(v)) => v as u64,
                _ => HOLE_SLOT,
            })
            .collect();
        doc.push('\n');
        doc.push_str(
            &RecordBuilder::new("sched")
                .usize("func", f)
                .u64("at", s.invoked_at)
                .u64_list("slots", &slots)
                .finish(),
        );
    }
}

/// Apply one `"sched"` row to `ledger`, whose function `f` serves
/// `families[f]`: every alive slot must name a rung of that ladder.
pub fn decode_ledger_row(
    ledger: &mut ScheduleLedger,
    families: &[ModelFamily],
    rec: &Record,
) -> Result<(), RecoverError> {
    let f = rec.usize("func").map_err(RecoverError::corrupt)?;
    let n = ledger.n_functions().min(families.len());
    if f >= n {
        return Err(RecoverError::corrupt(format!(
            "sched row targets function {f} of {n}"
        )));
    }
    let rungs = families[f].variants.len();
    let at = rec.u64("at").map_err(RecoverError::corrupt)?;
    let slots = rec
        .u64_list("slots")
        .map_err(RecoverError::corrupt)?
        .into_iter()
        .map(|v| {
            if v == HOLE_SLOT {
                return Ok(Slot::Hole);
            }
            usize::try_from(v)
                .ok()
                .filter(|&v| v < rungs)
                .map(Slot::Alive)
                .ok_or_else(|| {
                    RecoverError::corrupt(format!(
                        "sched row of function {f} names variant {v} of {rungs}"
                    ))
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    ledger.replace(f, KeepAliveSchedule::from_slots(at, slots));
    Ok(())
}

/// Encode accumulated [`RunMetrics`] as one `"metrics"` row (bit-exact f64
/// series via the shortest-round-trip packing).
pub fn encode_metrics(m: &RunMetrics) -> String {
    RecordBuilder::new("metrics")
        .str("policy", &m.policy)
        .f64("service_time_s", m.service_time_s)
        .f64("keepalive_cost_usd", m.keepalive_cost_usd)
        .f64("accuracy_sum_pct", m.accuracy_sum_pct)
        .u64("warm_starts", m.warm_starts)
        .u64("cold_starts", m.cold_starts)
        .u64("downgrades", m.downgrades)
        .f64_list("memory_series_mb", &m.memory_series_mb)
        .f64_list("cost_series_usd", &m.cost_series_usd)
        .finish()
}

/// Decode a `"metrics"` row written by [`encode_metrics`].
pub fn decode_metrics(rec: &Record) -> Result<RunMetrics, RecoverError> {
    let c = RecoverError::corrupt;
    Ok(RunMetrics {
        policy: rec.str("policy").map_err(c)?.to_string(),
        service_time_s: rec.f64("service_time_s").map_err(c)?,
        keepalive_cost_usd: rec.f64("keepalive_cost_usd").map_err(c)?,
        accuracy_sum_pct: rec.f64("accuracy_sum_pct").map_err(c)?,
        warm_starts: rec.u64("warm_starts").map_err(c)?,
        cold_starts: rec.u64("cold_starts").map_err(c)?,
        downgrades: rec.u64("downgrades").map_err(c)?,
        memory_series_mb: rec.f64_list("memory_series_mb").map_err(c)?,
        cost_series_usd: rec.f64_list("cost_series_usd").map_err(c)?,
    })
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
    fn ledger_round_trips_including_holes() {
        let mut ledger = ScheduleLedger::new(3);
        ledger.replace(0, KeepAliveSchedule::constant(5, 2, 10));
        ledger.replace(2, KeepAliveSchedule::constant(1, 0, 4));
        ledger.apply_eviction(0, 8);
        ledger.apply_downgrade(0, 7, 1);

        let mut doc = String::new();
        encode_ledger(&mut doc, &ledger);
        let mut back = ScheduleLedger::new(3);
        let fams = vec![pulse_models::zoo::gpt(); 3];
        for line in doc.lines().filter(|l| !l.is_empty()) {
            let rec = Record::parse(line).map_err(RecoverError::corrupt).unwrap();
            assert_eq!(rec.kind(), "sched");
            decode_ledger_row(&mut back, &fams, &rec).unwrap();
        }
        for f in 0..3 {
            for t in 0..20 {
                assert_eq!(ledger.slot_at(f, t), back.slot_at(f, t), "f={f} t={t}");
            }
        }
        assert!(back.schedule(1).is_none());
    }

    #[test]
    fn ledger_row_out_of_range_is_typed() {
        let fams = vec![pulse_models::zoo::bert(); 2];
        let mut ledger = ScheduleLedger::new(2);
        // A function past the ledger, and a variant past BERT's 2 rungs.
        for row in [
            "{\"type\":\"sched\",\"func\":9,\"at\":0,\"slots\":\"1\"}",
            "{\"type\":\"sched\",\"func\":1,\"at\":0,\"slots\":\"1,2\"}",
        ] {
            let rec = Record::parse(row).unwrap();
            assert!(matches!(
                decode_ledger_row(&mut ledger, &fams, &rec),
                Err(RecoverError::Corrupt { .. })
            ));
        }
        assert!(
            ledger.schedule(1).is_none(),
            "a rejected row installs nothing"
        );
    }

    #[test]
    fn metrics_round_trip_is_bit_exact() {
        let mut m = RunMetrics::new("probe", 3);
        m.service_time_s = 0.1 + 0.2;
        m.keepalive_cost_usd = 1.0 / 3.0;
        m.accuracy_sum_pct = 3.0 * 80.1; // non-terminating binary fraction
        m.warm_starts = 7;
        m.cold_starts = 2;
        m.downgrades = 5;
        m.memory_series_mb = vec![0.0, 1536.5, 2.0f64.powi(-40)];
        m.cost_series_usd = vec![0.0, 1e-9];
        let rec = Record::parse(&encode_metrics(&m)).unwrap();
        let back = decode_metrics(&rec).unwrap();
        assert_eq!(back.policy, m.policy);
        assert_eq!(back.service_time_s.to_bits(), m.service_time_s.to_bits());
        assert_eq!(
            back.keepalive_cost_usd.to_bits(),
            m.keepalive_cost_usd.to_bits()
        );
        assert_eq!(back.memory_series_mb.len(), 3);
        for (a, b) in back.memory_series_mb.iter().zip(m.memory_series_mb.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.warm_starts, 7);
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
        let e = RecoverError::NotCheckpointable {
            policy: "mystery".into(),
        };
        assert!(e.to_string().contains("mystery"));
        assert!(RecoverError::corrupt("bad row")
            .to_string()
            .contains("bad row"));
    }
}
