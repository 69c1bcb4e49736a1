//! Bench-trajectory rendering: parses the accumulated history of
//! hotpath bench artifacts (`BENCH_history.jsonl`, one artifact per
//! line) and renders the `bfs18_e2e` accesses/sec trajectory as a
//! markdown table, spliced into EXPERIMENTS.md between the
//! [`TRAJECTORY_START`]/[`TRAJECTORY_END`] markers by `bench_trend`.
//!
//! Parsing is a targeted string scan, not a JSON parser: each history
//! line is machine-written by the hotpath bench in a known shape.
//! Malformed or truncated lines (a crashed CI run, a concurrent append,
//! a disk-full half-write) are skipped with a per-line warning and
//! counted, so one bad line never costs the whole trajectory.

/// Opening marker of the trajectory section in EXPERIMENTS.md.
pub const TRAJECTORY_START: &str = "<!-- bench-trajectory:start -->";
/// Closing marker of the trajectory section in EXPERIMENTS.md.
pub const TRAJECTORY_END: &str = "<!-- bench-trajectory:end -->";

/// One history entry: the artifact's mode and its end-to-end number.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// `full` (committed baselines) or `smoke` (CI drift checks).
    pub mode: String,
    /// `bfs18_e2e` throughput in accesses/sec.
    pub bfs18_accesses_per_s: f64,
}

fn string_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let i = line.find(&tag)? + tag.len();
    let rest = &line[i..];
    Some(rest[..rest.find('"')?].to_string())
}

fn number_after(hay: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let i = hay.find(&tag)? + tag.len();
    let rest = &hay[i..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// What [`parse_history`] recovered from the history file: the valid
/// rows plus a warning per line it had to skip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedHistory {
    /// Rows from every parseable line, in file order.
    pub rows: Vec<TrendRow>,
    /// One warning per skipped line, e.g.
    /// `line 2: no bfs18_e2e elems_per_s, skipped`.
    pub warnings: Vec<String>,
}

impl ParsedHistory {
    /// Number of lines skipped as corrupt or truncated.
    pub fn skipped(&self) -> usize {
        self.warnings.len()
    }
}

/// Parses the history file (blank lines skipped). Corrupt or truncated
/// lines are skipped with a warning carrying their 1-based line number,
/// never fatal: a trend splice must survive one bad append.
pub fn parse_history(jsonl: &str) -> ParsedHistory {
    let mut parsed = ParsedHistory::default();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(mode) = string_field(line, "mode") else {
            parsed
                .warnings
                .push(format!("line {}: no \"mode\" field, skipped", i + 1));
            continue;
        };
        let Some(e2e) = line
            .find("\"id\":\"bfs18_e2e\"")
            .and_then(|at| number_after(&line[at..], "elems_per_s"))
        else {
            parsed
                .warnings
                .push(format!("line {}: no bfs18_e2e elems_per_s, skipped", i + 1));
            continue;
        };
        parsed.rows.push(TrendRow {
            mode,
            bfs18_accesses_per_s: e2e,
        });
    }
    parsed
}

fn group_thousands(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Renders the trajectory as a markdown table. Ratios are against the
/// first (oldest) entry and the previous entry; `run 0` is the
/// committed full-mode baseline when the history starts from it.
pub fn render_trajectory(rows: &[TrendRow]) -> String {
    let mut out = String::from(
        "Simulator `bfs18_e2e` throughput trajectory (each `ci.sh` run appends its\n\
         smoke measurement to `BENCH_history.jsonl`; smoke mode is few-sample and\n\
         machine-dependent, so read trends, not single points):\n\n\
         | run | mode  | bfs18_e2e (accesses/s) | vs run 0 | vs prev |\n\
         |-----|-------|------------------------|----------|---------|\n",
    );
    let first = rows.first().map(|r| r.bfs18_accesses_per_s);
    let mut prev: Option<f64> = None;
    for (i, r) in rows.iter().enumerate() {
        let vs = |base: Option<f64>| match base {
            Some(b) if b > 0.0 => format!("{:.2}x", r.bfs18_accesses_per_s / b),
            _ => "—".to_string(),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            i,
            r.mode,
            group_thousands(r.bfs18_accesses_per_s.round() as u64),
            vs(first),
            vs(prev),
        ));
        prev = Some(r.bfs18_accesses_per_s);
    }
    out
}

/// Replaces the text between the trajectory markers in `doc` with
/// `table`, keeping the markers.
///
/// # Errors
///
/// Returns a description when a marker is missing or out of order.
pub fn splice(doc: &str, table: &str) -> Result<String, String> {
    let start = doc
        .find(TRAJECTORY_START)
        .ok_or_else(|| format!("missing marker {TRAJECTORY_START}"))?
        + TRAJECTORY_START.len();
    let end = doc[start..]
        .find(TRAJECTORY_END)
        .ok_or_else(|| format!("missing (or misordered) marker {TRAJECTORY_END}"))?
        + start;
    Ok(format!("{}\n{}{}", &doc[..start], table, &doc[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"artifact":"hotpath-bench","mode":"full","results":[{"id":"tlb_lookup","elems_per_s":212426532.3},{"id":"bfs18_e2e","min_ns":41520774.0,"elems_per_s":46668669.063694}]}"#;

    #[test]
    fn parses_mode_and_e2e_throughput() {
        let parsed = parse_history(&format!("{LINE}\n\n{LINE}\n"));
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.skipped(), 0);
        assert_eq!(parsed.rows[0].mode, "full");
        assert!((parsed.rows[0].bfs18_accesses_per_s - 46668669.063694).abs() < 1e-6);
    }

    #[test]
    fn malformed_lines_are_skipped_with_numbered_warnings() {
        let parsed = parse_history(&format!("{LINE}\n{{\"mode\":\"smoke\"}}\n{LINE}\n"));
        assert_eq!(parsed.rows.len(), 2, "good lines survive the bad one");
        assert_eq!(parsed.skipped(), 1);
        assert!(
            parsed.warnings[0].contains("line 2"),
            "{:?}",
            parsed.warnings
        );
        assert!(
            parsed.warnings[0].contains("bfs18_e2e"),
            "{:?}",
            parsed.warnings
        );
    }

    #[test]
    fn truncated_tail_line_is_skipped_not_fatal() {
        // An interrupt mid-append leaves a half line; the trend must
        // keep everything before it.
        let half = &LINE[..LINE.len() / 2];
        let parsed = parse_history(&format!("{LINE}\n{half}"));
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.skipped(), 1);
        assert!(parsed.warnings[0].starts_with("line 2:"));
        // A fully corrupt file yields zero rows and all warnings.
        let garbage = parse_history("not json\nalso not\n");
        assert!(garbage.rows.is_empty());
        assert_eq!(garbage.skipped(), 2);
    }

    #[test]
    fn trajectory_table_tracks_ratios() {
        let rows = vec![
            TrendRow {
                mode: "full".into(),
                bfs18_accesses_per_s: 30_000_000.0,
            },
            TrendRow {
                mode: "smoke".into(),
                bfs18_accesses_per_s: 45_000_000.0,
            },
        ];
        let t = render_trajectory(&rows);
        assert!(t.contains("| 0 | full | 30,000,000 | 1.00x | — |"), "{t}");
        assert!(
            t.contains("| 1 | smoke | 45,000,000 | 1.50x | 1.50x |"),
            "{t}"
        );
    }

    #[test]
    fn splice_replaces_only_between_markers() {
        let doc = format!("before\n{TRAJECTORY_START}\nold\n{TRAJECTORY_END}\nafter\n");
        let out = splice(&doc, "new\n").unwrap();
        assert!(out.contains("before"));
        assert!(out.contains("after"));
        assert!(out.contains("new"));
        assert!(!out.contains("old"));
        // Splicing is idempotent on the marker structure.
        let again = splice(&out, "new\n").unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn splice_without_markers_is_an_error() {
        assert!(splice("no markers here", "t").is_err());
    }
}
