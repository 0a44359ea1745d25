//! Trace (de)serialization.
//!
//! Two formats are supported, both hand-rolled (no CSV dependency):
//!
//! * **Simple format** — one header line `function,0,1,2,…`, then one row per
//!   function: `name,c0,c1,…`. Used for fixtures and for persisting synthetic
//!   workloads.
//! * **Azure day-file schema** — the format of the public Azure Functions
//!   trace (Shahrad et al., ATC'20): columns `HashOwner,HashApp,HashFunction,
//!   Trigger,1,2,…,1440`, one file per day. [`parse_azure_day`] reads one
//!   day; [`merge_azure_days`] concatenates consecutive days into a
//!   two-week [`Trace`], so the real trace can be dropped into the
//!   reproduction when available.
//!
//! Both parsers are **strict by default**: the first malformed row aborts
//! the parse with a [`ParseError`]. Real production dumps are messier than
//! fixtures, so each has a `_lenient` twin ([`from_simple_csv_lenient`],
//! [`parse_azure_day_lenient`]) that *quarantines* malformed rows — ragged
//! column counts, unparsable/negative/NaN count cells — into a
//! [`QuarantineReport`] and parses everything else, failing only when no
//! usable row survives.

use crate::trace::{FunctionTrace, Trace};
use crate::MINUTES_PER_DAY;
use std::collections::BTreeMap;

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input had no data rows.
    Empty,
    /// A row had the wrong number of columns.
    ColumnCount {
        /// 1-based line number.
        line: usize,
        /// Columns found.
        got: usize,
        /// Columns expected.
        want: usize,
    },
    /// A count cell failed to parse as an integer.
    BadCount {
        /// 1-based line number.
        line: usize,
        /// Offending cell contents.
        cell: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "no data rows"),
            ParseError::ColumnCount { line, got, want } => {
                write!(f, "line {line}: expected {want} columns, got {got}")
            }
            ParseError::BadCount { line, cell } => {
                write!(f, "line {line}: bad invocation count {cell:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// One row set aside by a lenient parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// The row's function name / key as far as it could be read (first
    /// cell(s)); empty when even that was missing.
    pub name: String,
    /// Why the row was quarantined.
    pub reason: ParseError,
}

/// Max quarantined rows retained in [`QuarantineReport::rows`]. Past this,
/// only the total is counted — a multi-GB trace where *every* row is corrupt
/// must not balloon the report into a second copy of the input.
pub const QUARANTINE_SAMPLE_CAP: usize = 64;

/// The malformed rows a lenient parse set aside instead of aborting on.
///
/// Holds at most [`QUARANTINE_SAMPLE_CAP`] sample rows; [`Self::quarantined`]
/// always reports the *total* count, which can be larger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// The first [`QUARANTINE_SAMPLE_CAP`] quarantined rows, in input order.
    pub rows: Vec<QuarantinedRow>,
    /// Rows that parsed cleanly.
    pub accepted: usize,
    /// Total quarantined rows, including those beyond the retained sample.
    total: usize,
}

impl QuarantineReport {
    /// True when every row parsed cleanly.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Total number of quarantined rows (may exceed `rows.len()` once the
    /// sample cap is hit).
    pub fn quarantined(&self) -> usize {
        self.total
    }

    /// Record one quarantined row, retaining it only while the sample has
    /// room.
    fn note(&mut self, row: QuarantinedRow) {
        self.total += 1;
        if self.rows.len() < QUARANTINE_SAMPLE_CAP {
            self.rows.push(row);
        }
    }
}

impl std::fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} row(s) accepted, {} quarantined",
            self.accepted,
            self.quarantined()
        )?;
        for r in &self.rows {
            writeln!(f, "  line {}: {:?}: {}", r.line, r.name, r.reason)?;
        }
        let unsampled = self.total - self.rows.len();
        if unsampled > 0 {
            writeln!(f, "  … and {unsampled} more (sample capped)")?;
        }
        Ok(())
    }
}

/// Serialize a workload in the simple one-row-per-function format.
pub fn to_simple_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.n_functions() * trace.minutes() * 2);
    out.push_str("function");
    for t in 0..trace.minutes() {
        out.push(',');
        out.push_str(&t.to_string());
    }
    out.push('\n');
    for f in trace.functions() {
        out.push_str(&f.name);
        for &c in &f.per_minute {
            out.push(',');
            out.push_str(&c.to_string());
        }
        out.push('\n');
    }
    out
}

/// Validate a simple-format header line, returning its column count: a
/// name column and at least one minute (a trace covers at least one minute,
/// so a one-column header could only yield rows no trace can hold).
fn simple_header_width(header: &str) -> Result<usize, ParseError> {
    let want = header.split(',').count();
    if want < 2 {
        return Err(ParseError::ColumnCount {
            line: 1,
            got: want,
            want: 2,
        });
    }
    Ok(want)
}

/// Parse one data row of the simple format (`name,c0,c1,…`).
fn parse_simple_row(line: &str, lineno: usize, want: usize) -> Result<FunctionTrace, ParseError> {
    let mut cells = line.split(',');
    let name = cells.next().unwrap_or("").to_string();
    let counts: Vec<u32> = cells
        .map(|c| {
            c.trim().parse::<u32>().map_err(|_| ParseError::BadCount {
                line: lineno,
                cell: c.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    if counts.len() + 1 != want {
        return Err(ParseError::ColumnCount {
            line: lineno,
            got: counts.len() + 1,
            want,
        });
    }
    Ok(FunctionTrace::new(name, counts))
}

/// Parse the simple one-row-per-function format, aborting on the first
/// malformed row. See [`from_simple_csv_lenient`] for the quarantining twin.
pub fn from_simple_csv(s: &str) -> Result<Trace, ParseError> {
    let mut lines = s.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseError::Empty)?;
    let want = simple_header_width(header)?;
    let mut functions = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        functions.push(parse_simple_row(line, i + 1, want)?);
    }
    if functions.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok(Trace::new(functions))
}

/// Parse the simple format, quarantining malformed rows (ragged columns,
/// unparsable / negative / NaN count cells) instead of aborting. Errors only
/// when the input has no header or no row parses; the report records every
/// row that was set aside.
pub fn from_simple_csv_lenient(s: &str) -> Result<(Trace, QuarantineReport), ParseError> {
    let mut lines = s.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseError::Empty)?;
    let want = simple_header_width(header)?;
    let mut functions = Vec::new();
    let mut report = QuarantineReport::default();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_simple_row(line, i + 1, want) {
            Ok(f) => {
                report.accepted += 1;
                functions.push(f);
            }
            Err(reason) => report.note(QuarantinedRow {
                line: i + 1,
                name: line.split(',').next().unwrap_or("").to_string(),
                reason,
            }),
        }
    }
    if functions.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok((Trace::new(functions), report))
}

/// Serialize one day of a workload in the Azure schema
/// (`HashOwner,HashApp,HashFunction,Trigger,1,…,N`). Function names that
/// already contain `owner/app/function` keys are split back into the three
/// hash columns; bare names get `owner0/app0` defaults. `day` selects which
/// [`MINUTES_PER_DAY`]-sized window of the trace to write (clamped to the
/// horizon).
pub fn to_azure_day_csv(trace: &Trace, day: usize) -> String {
    let from = day * MINUTES_PER_DAY;
    let to = ((day + 1) * MINUTES_PER_DAY).min(trace.minutes());
    let n_minutes = to.saturating_sub(from);
    let mut out = String::from("HashOwner,HashApp,HashFunction,Trigger");
    for m in 1..=n_minutes {
        out.push(',');
        out.push_str(&m.to_string());
    }
    out.push('\n');
    for f in trace.functions() {
        let mut parts = f.name.splitn(3, '/');
        let (owner, app, func) = match (parts.next(), parts.next(), parts.next()) {
            (Some(o), Some(a), Some(fu)) => (o.to_string(), a.to_string(), fu.to_string()),
            _ => ("owner0".into(), "app0".into(), f.name.clone()),
        };
        out.push_str(&format!("{owner},{app},{func},http"));
        for t in from..to {
            out.push(',');
            out.push_str(&f.per_minute[t].to_string());
        }
        out.push('\n');
    }
    out
}

/// One parsed Azure day file: function key → 1440 per-minute counts.
/// The key is `HashOwner/HashApp/HashFunction`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AzureDay {
    /// Function key → that day's 1440 counts.
    pub functions: BTreeMap<String, Vec<u32>>,
}

/// Parse one Azure data row into `(key, counts)`.
fn parse_azure_row(
    line: &str,
    lineno: usize,
    want: usize,
) -> Result<(String, Vec<u32>), ParseError> {
    let cells: Vec<&str> = line.split(',').collect();
    if cells.len() != want {
        return Err(ParseError::ColumnCount {
            line: lineno,
            got: cells.len(),
            want,
        });
    }
    let key = format!("{}/{}/{}", cells[0], cells[1], cells[2]);
    let counts: Vec<u32> = cells[4..]
        .iter()
        .map(|c| {
            c.trim().parse::<u32>().map_err(|_| ParseError::BadCount {
                line: lineno,
                cell: c.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((key, counts))
}

/// Validate an Azure header line, returning its column count.
fn azure_header_width(header: &str) -> Result<usize, ParseError> {
    let want = header.split(',').count();
    if want < 5 {
        return Err(ParseError::ColumnCount {
            line: 1,
            got: want,
            want: 4 + MINUTES_PER_DAY,
        });
    }
    Ok(want)
}

/// Parse one Azure day file (`HashOwner,HashApp,HashFunction,Trigger,1..1440`),
/// aborting on the first malformed row. See [`parse_azure_day_lenient`] for
/// the quarantining twin.
pub fn parse_azure_day(s: &str) -> Result<AzureDay, ParseError> {
    let mut lines = s.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseError::Empty)?;
    let want = azure_header_width(header)?;
    let mut functions = BTreeMap::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (key, counts) = parse_azure_row(line, i + 1, want)?;
        functions.insert(key, counts);
    }
    if functions.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok(AzureDay { functions })
}

/// Parse one Azure day file, quarantining malformed rows instead of
/// aborting. The header must still be well-formed (a broken header means the
/// file is not this format at all), and at least one row must parse.
pub fn parse_azure_day_lenient(s: &str) -> Result<(AzureDay, QuarantineReport), ParseError> {
    let mut lines = s.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseError::Empty)?;
    let want = azure_header_width(header)?;
    let mut functions = BTreeMap::new();
    let mut report = QuarantineReport::default();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_azure_row(line, i + 1, want) {
            Ok((key, counts)) => {
                report.accepted += 1;
                functions.insert(key, counts);
            }
            Err(reason) => report.note(QuarantinedRow {
                line: i + 1,
                name: {
                    let c: Vec<&str> = line.splitn(4, ',').collect();
                    match c.as_slice() {
                        [o, a, f, ..] => format!("{o}/{a}/{f}"),
                        _ => line.split(',').next().unwrap_or("").to_string(),
                    }
                },
                reason,
            }),
        }
    }
    if functions.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok((AzureDay { functions }, report))
}

/// Concatenate consecutive Azure day files into one workload. Functions
/// missing from a day contribute zeros for that day (functions come and go
/// in the production trace).
pub fn merge_azure_days(days: &[AzureDay]) -> Result<Trace, ParseError> {
    if days.is_empty() {
        return Err(ParseError::Empty);
    }
    let day_len: Vec<usize> = days
        .iter()
        .map(|d| d.functions.values().next().map_or(0, |v| v.len()))
        .collect();
    let mut keys: Vec<String> = days
        .iter()
        .flat_map(|d| d.functions.keys().cloned())
        .collect();
    keys.sort();
    keys.dedup();
    let functions = keys
        .into_iter()
        .map(|key| {
            let mut counts = Vec::new();
            for (d, day) in days.iter().enumerate() {
                match day.functions.get(&key) {
                    Some(v) => counts.extend_from_slice(v),
                    None => counts.extend(std::iter::repeat_n(0, day_len[d])),
                }
            }
            FunctionTrace::new(key, counts)
        })
        .collect();
    Ok(Trace::new(functions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        Trace::new(vec![
            FunctionTrace::new("fa", vec![1, 0, 2, 0]),
            FunctionTrace::new("fb", vec![0, 3, 0, 1]),
        ])
    }

    #[test]
    fn simple_round_trip() {
        let t = small_trace();
        let csv = to_simple_csv(&t);
        let back = from_simple_csv(&csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn simple_header_shape() {
        let csv = to_simple_csv(&small_trace());
        let header = csv.lines().next().unwrap();
        assert_eq!(header, "function,0,1,2,3");
    }

    #[test]
    fn simple_rejects_bad_count() {
        let err = from_simple_csv("function,0,1\nfa,1,x\n").unwrap_err();
        assert!(matches!(err, ParseError::BadCount { line: 2, .. }));
    }

    #[test]
    fn simple_rejects_ragged_rows() {
        let err = from_simple_csv("function,0,1\nfa,1\n").unwrap_err();
        assert!(matches!(err, ParseError::ColumnCount { line: 2, .. }));
        // A header without minutes would admit rows with no counts, which
        // no trace can hold: both parsers reject it before reading a row.
        let err = ParseError::ColumnCount {
            line: 1,
            got: 1,
            want: 2,
        };
        assert_eq!(from_simple_csv("a\nb\n").unwrap_err(), err);
        assert_eq!(from_simple_csv_lenient("a\nb\n").unwrap_err(), err);
    }

    #[test]
    fn simple_rejects_empty() {
        assert_eq!(from_simple_csv("").unwrap_err(), ParseError::Empty);
        assert_eq!(
            from_simple_csv("function,0,1\n").unwrap_err(),
            ParseError::Empty
        );
    }

    #[test]
    fn simple_skips_blank_lines() {
        let t = from_simple_csv("function,0,1\nfa,1,2\n\n").unwrap();
        assert_eq!(t.n_functions(), 1);
    }

    #[test]
    fn lenient_quarantines_bad_rows_and_keeps_good_ones() {
        // Row 3 has a negative count (unparsable as u32), row 4 is ragged,
        // row 5 has a NaN-ish cell; rows 2 and 6 are clean.
        let csv = "function,0,1\nfa,1,2\nfb,-1,2\nfc,1\nfd,NaN,0\nfe,0,9\n";
        let (t, report) = from_simple_csv_lenient(csv).unwrap();
        assert_eq!(t.n_functions(), 2);
        assert!(t.by_name("fa").is_some());
        assert!(t.by_name("fe").is_some());
        assert_eq!(report.accepted, 2);
        assert_eq!(report.quarantined(), 3);
        assert!(!report.is_clean());
        assert_eq!(report.rows[0].line, 3);
        assert_eq!(report.rows[0].name, "fb");
        assert!(matches!(report.rows[0].reason, ParseError::BadCount { .. }));
        assert!(matches!(
            report.rows[1].reason,
            ParseError::ColumnCount {
                line: 4,
                got: 2,
                want: 3
            }
        ));
        // Strict mode aborts on the same input.
        assert!(from_simple_csv(csv).is_err());
        // The report prints one line per quarantined row.
        assert_eq!(report.to_string().lines().count(), 4);
    }

    #[test]
    fn lenient_clean_input_matches_strict() {
        let csv = to_simple_csv(&small_trace());
        let (t, report) = from_simple_csv_lenient(&csv).unwrap();
        assert_eq!(t, from_simple_csv(&csv).unwrap());
        assert!(report.is_clean());
        assert_eq!(report.accepted, 2);
    }

    #[test]
    fn quarantine_sample_is_capped_but_the_count_is_not() {
        // 200 corrupt rows + 1 clean one: the report keeps only the first
        // QUARANTINE_SAMPLE_CAP rows but still counts all 200.
        let mut csv = String::from("function,0,1\nok,1,2\n");
        for i in 0..200 {
            csv.push_str(&format!("bad{i},x,y\n"));
        }
        let (t, report) = from_simple_csv_lenient(&csv).unwrap();
        assert_eq!(t.n_functions(), 1);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.quarantined(), 200);
        assert_eq!(report.rows.len(), QUARANTINE_SAMPLE_CAP);
        assert!(!report.is_clean());
        // The sample holds the *first* offenders, in input order.
        assert_eq!(report.rows[0].name, "bad0");
        assert_eq!(report.rows[QUARANTINE_SAMPLE_CAP - 1].name, "bad63");
        // Display stays bounded and says how much it elided.
        let shown = report.to_string();
        assert_eq!(shown.lines().count(), 1 + QUARANTINE_SAMPLE_CAP + 1);
        assert!(shown.contains("200 quarantined"));
        assert!(shown.contains("136 more"));
    }

    #[test]
    fn lenient_errors_when_nothing_survives() {
        assert_eq!(from_simple_csv_lenient("").unwrap_err(), ParseError::Empty);
        assert_eq!(
            from_simple_csv_lenient("function,0\nfa,x\n").unwrap_err(),
            ParseError::Empty
        );
    }

    fn azure_line(owner: &str, app: &str, func: &str, counts: &[u32]) -> String {
        let mut s = format!("{owner},{app},{func},http");
        for c in counts {
            s.push(',');
            s.push_str(&c.to_string());
        }
        s
    }

    fn azure_file(rows: &[String], n_minutes: usize) -> String {
        let mut header = "HashOwner,HashApp,HashFunction,Trigger".to_string();
        for m in 1..=n_minutes {
            header.push(',');
            header.push_str(&m.to_string());
        }
        let mut out = header;
        out.push('\n');
        for r in rows {
            out.push_str(r);
            out.push('\n');
        }
        out
    }

    #[test]
    fn azure_day_parses() {
        let file = azure_file(
            &[
                azure_line("o1", "a1", "f1", &[1, 0, 2]),
                azure_line("o1", "a1", "f2", &[0, 0, 5]),
            ],
            3,
        );
        let day = parse_azure_day(&file).unwrap();
        assert_eq!(day.functions.len(), 2);
        assert_eq!(day.functions["o1/a1/f1"], vec![1, 0, 2]);
    }

    #[test]
    fn azure_merge_concatenates_days() {
        let d1 = parse_azure_day(&azure_file(&[azure_line("o", "a", "f1", &[1, 2])], 2)).unwrap();
        let d2 = parse_azure_day(&azure_file(
            &[
                azure_line("o", "a", "f1", &[3, 4]),
                azure_line("o", "a", "f2", &[9, 9]),
            ],
            2,
        ))
        .unwrap();
        let t = merge_azure_days(&[d1, d2]).unwrap();
        assert_eq!(t.minutes(), 4);
        assert_eq!(t.by_name("o/a/f1").unwrap().per_minute, vec![1, 2, 3, 4]);
        // f2 was absent on day 1 → zero-padded.
        assert_eq!(t.by_name("o/a/f2").unwrap().per_minute, vec![0, 0, 9, 9]);
    }

    #[test]
    fn azure_rejects_truncated_header() {
        assert!(parse_azure_day("a,b,c\n").is_err());
    }

    #[test]
    fn azure_rejects_bad_cell() {
        let file = azure_file(&[azure_line("o", "a", "f", &[1]).replace('1', "?")], 1);
        assert!(matches!(
            parse_azure_day(&file),
            Err(ParseError::BadCount { .. })
        ));
    }

    #[test]
    fn azure_lenient_quarantines_and_still_merges() {
        let good = azure_line("o", "a", "f1", &[1, 2]);
        let bad = azure_line("o", "a", "f2", &[1, 2]).replace('1', "-7");
        let ragged = "o,a,f3,http,5".to_string();
        let file = azure_file(&[good, bad, ragged], 2);
        let (day, report) = parse_azure_day_lenient(&file).unwrap();
        assert_eq!(day.functions.len(), 1);
        assert_eq!(day.functions["o/a/f1"], vec![1, 2]);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.quarantined(), 2);
        assert_eq!(report.rows[0].name, "o/a/f2");
        assert_eq!(report.rows[1].name, "o/a/f3");
        // Strict mode aborts on the same file; the lenient day still merges.
        assert!(parse_azure_day(&file).is_err());
        let t = merge_azure_days(&[day]).unwrap();
        assert_eq!(t.n_functions(), 1);
    }

    #[test]
    fn azure_lenient_still_requires_valid_header() {
        assert!(parse_azure_day_lenient("a,b,c\n").is_err());
    }

    #[test]
    fn merge_empty_is_error() {
        assert_eq!(merge_azure_days(&[]).unwrap_err(), ParseError::Empty);
    }

    #[test]
    fn azure_writer_round_trips_through_parser() {
        use crate::synth;
        let trace = synth::azure_like_12_with_horizon(5, 2 * MINUTES_PER_DAY);
        let days: Vec<AzureDay> = (0..2)
            .map(|d| parse_azure_day(&to_azure_day_csv(&trace, d)).unwrap())
            .collect();
        let back = merge_azure_days(&days).unwrap();
        assert_eq!(back.minutes(), trace.minutes());
        assert_eq!(back.total_invocations(), trace.total_invocations());
        // Keys get the owner0/app0 prefix; counts must be preserved.
        for f in trace.functions() {
            let key = format!("owner0/app0/{}", f.name);
            assert_eq!(back.by_name(&key).unwrap().per_minute, f.per_minute);
        }
    }

    #[test]
    fn azure_writer_preserves_existing_keys() {
        let t = Trace::new(vec![FunctionTrace::new("o1/a2/f3", vec![1, 0, 2])]);
        let csv = to_azure_day_csv(&t, 0);
        assert!(csv.lines().nth(1).unwrap().starts_with("o1,a2,f3,http"));
        let day = parse_azure_day(&csv).unwrap();
        assert_eq!(day.functions["o1/a2/f3"], vec![1, 0, 2]);
    }

    #[test]
    fn azure_writer_clamps_partial_days() {
        let t = Trace::new(vec![FunctionTrace::new("f", vec![1; 100])]);
        let csv = to_azure_day_csv(&t, 0);
        // Header: 4 meta columns + 100 minutes.
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 104);
        // Day 1 is out of range → header only, zero minutes.
        let empty = to_azure_day_csv(&t, 1);
        assert_eq!(empty.lines().next().unwrap().split(',').count(), 4);
    }
}
