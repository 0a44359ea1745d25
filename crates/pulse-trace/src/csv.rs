//! Trace (de)serialization in the Azure Functions day-file schema, the
//! paper's input format: the public Azure Functions trace (Shahrad et al.,
//! ATC'20) has columns `HashOwner,HashApp,HashFunction,Trigger,1,2,…,1440`,
//! one file per day. [`parse_azure_day`] reads one day, failing with a typed
//! [`ParseError`] on the first malformed row; [`merge_azure_days`]
//! concatenates consecutive days into a two-week [`Trace`], so the real
//! trace can be dropped into the reproduction when available; and
//! [`to_azure_day_csv`] writes a synthetic workload back out one day at a
//! time. Hand-rolled, no CSV dependency.

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

/// Parse one Azure day file (`HashOwner,HashApp,HashFunction,Trigger,1..1440`),
/// failing with the first malformed row's error: a header of fewer than
/// five columns, a row whose column count differs from the header's, or a
/// count cell that is not a non-negative integer. Blank lines are skipped;
/// a file with no data row is [`ParseError::Empty`]. A repeated key keeps
/// its last row.
pub fn parse_azure_day(s: &str) -> Result<AzureDay, ParseError> {
    let mut lines = s.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseError::Empty)?;
    let want = header.split(',').count();
    if want < 5 {
        return Err(ParseError::ColumnCount {
            line: 1,
            got: want,
            want: 4 + MINUTES_PER_DAY,
        });
    }
    let mut functions = BTreeMap::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = i + 1;
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != want {
            return Err(ParseError::ColumnCount {
                line: line_no,
                got: cells.len(),
                want,
            });
        }
        let counts = cells[4..]
            .iter()
            .map(|c| {
                c.trim().parse::<u32>().map_err(|_| ParseError::BadCount {
                    line: line_no,
                    cell: c.to_string(),
                })
            })
            .collect::<Result<_, _>>()?;
        functions.insert(format!("{}/{}/{}", cells[0], cells[1], cells[2]), counts);
    }
    if functions.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok(AzureDay { functions })
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

    /// The function called `name`.
    fn named<'a>(t: &'a Trace, name: &str) -> &'a FunctionTrace {
        t.functions()
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no function {name:?}"))
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
        assert_eq!(named(&t, "o/a/f1").per_minute, vec![1, 2, 3, 4]);
        // f2 was absent on day 1 → zero-padded.
        assert_eq!(named(&t, "o/a/f2").per_minute, vec![0, 0, 9, 9]);
    }

    #[test]
    fn azure_rejects_truncated_header() {
        assert_eq!(
            parse_azure_day("a,b,c\n").unwrap_err(),
            ParseError::ColumnCount {
                line: 1,
                got: 3,
                want: 4 + MINUTES_PER_DAY
            }
        );
    }

    #[test]
    fn azure_rejects_bad_cell() {
        let file = azure_file(&[azure_line("o", "a", "f", &[1]).replace('1', "?")], 1);
        assert!(matches!(
            parse_azure_day(&file),
            Err(ParseError::BadCount { .. })
        ));
        // The first malformed row's error, however many follow it.
        let good = azure_line("o", "a", "f1", &[1, 2]);
        let bad = azure_line("o", "a", "f2", &[1, 2]).replace('1', "-7");
        let file = azure_file(&[good, bad, "o,a,f3,http,5".to_string()], 2);
        assert_eq!(
            parse_azure_day(&file).unwrap_err(),
            ParseError::BadCount {
                line: 3,
                cell: "-7".into()
            }
        );
    }

    #[test]
    fn azure_rejects_ragged_rows() {
        let good = azure_line("o", "a", "f1", &[1, 2]);
        let file = azure_file(&[good, "o,a,f3,http,5".to_string()], 2);
        assert_eq!(
            parse_azure_day(&file).unwrap_err(),
            ParseError::ColumnCount {
                line: 3,
                got: 5,
                want: 6
            }
        );
    }

    #[test]
    fn azure_skips_blank_lines_and_rejects_empty() {
        assert_eq!(parse_azure_day("").unwrap_err(), ParseError::Empty);
        let header_only = azure_file(&[], 2);
        assert_eq!(
            parse_azure_day(&header_only).unwrap_err(),
            ParseError::Empty
        );
        let file = azure_file(&[String::new(), azure_line("o", "a", "f", &[1, 2])], 2);
        assert_eq!(parse_azure_day(&file).unwrap().functions.len(), 1);
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
            assert_eq!(named(&back, &key).per_minute, f.per_minute);
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
