//! Plain-text typed-query workload files — the format `gdp answer`
//! consumes.
//!
//! One query per line; `#`-prefixed comment lines and blank lines are
//! ignored, mirroring the `gdp_graph::io` edge-list conventions. A
//! line starting with a side tag (`L` or `R`) is a subset-count query
//! over the listed node indices (a bare tag is the **empty subset**,
//! which estimates `0.0`); the other [`Query`] variants carry a
//! keyword tag:
//!
//! ```text
//! # subset counts: side node node node ...
//! L 0 1 2
//! R 5 7
//! L
//! # one group's raw noisy mass: mass side group
//! mass L 3
//! # the released degree histogram: hist side
//! hist L
//! # the whole-side total: total side
//! total R
//! ```
//!
//! The format round-trips: [`write_query_file`] emits exactly the
//! lines [`read_query_file`] parses, for every variant and every edge
//! case (empty subsets, `u32::MAX` indices, with or without a final
//! trailing newline).

use std::io::{BufRead, BufReader, Read, Write};

use gdp_graph::Side;

use crate::error::ServeError;
use crate::query::{Query, SubsetQuery};
use crate::Result;

fn side_tag(side: Side) -> &'static str {
    match side {
        Side::Left => "L",
        Side::Right => "R",
    }
}

/// Writes a workload as a text query file.
///
/// # Errors
///
/// Propagates IO failures from the writer.
pub fn write_query_file<W: Write>(queries: &[Query], mut writer: W) -> Result<()> {
    for query in queries {
        match query {
            Query::SubsetCount(SubsetQuery { side, nodes }) => {
                write!(writer, "{}", side_tag(*side))?;
                for node in nodes {
                    write!(writer, " {node}")?;
                }
                writeln!(writer)?;
            }
            Query::GroupMass { side, group } => {
                writeln!(writer, "mass {} {group}", side_tag(*side))?;
            }
            Query::DegreeHistogram { side } => {
                writeln!(writer, "hist {}", side_tag(*side))?;
            }
            Query::SideTotal { side } => {
                writeln!(writer, "total {}", side_tag(*side))?;
            }
        }
    }
    Ok(())
}

fn parse_side(token: Option<&str>, line: usize) -> Result<Side> {
    match token {
        Some("L") => Ok(Side::Left),
        Some("R") => Ok(Side::Right),
        Some(other) => Err(ServeError::Workload {
            line,
            message: format!("unknown side tag `{other}` (expected L or R)"),
        }),
        None => Err(ServeError::Workload {
            line,
            message: "missing side tag (expected L or R)".to_string(),
        }),
    }
}

fn parse_u32(token: &str, line: usize, what: &str) -> Result<u32> {
    token.parse::<u32>().map_err(|e| ServeError::Workload {
        line,
        message: format!("bad {what} `{token}`: {e}"),
    })
}

fn reject_trailing(mut parts: std::str::SplitWhitespace<'_>, line: usize) -> Result<()> {
    match parts.next() {
        None => Ok(()),
        Some(extra) => Err(ServeError::Workload {
            line,
            message: format!("unexpected trailing token `{extra}`"),
        }),
    }
}

/// Reads a workload from a text query file.
///
/// Parsing is syntactic only: node/group ranges, duplicates and
/// whether a statistic was released are the answering path's to
/// enforce (with its typed errors), so a workload file can be written
/// before the artifact it will be asked against exists.
///
/// # Errors
///
/// * [`ServeError::Workload`] for an unknown tag, a non-numeric index,
///   or a malformed variant line (wrong arity), naming the 1-based
///   line.
/// * IO failures from the reader (as [`ServeError::Core`]).
pub fn read_query_file<R: Read>(reader: R) -> Result<Vec<Query>> {
    let reader = BufReader::new(reader);
    let mut queries = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let Some(tag) = parts.next() else {
            // Unreachable (the line was non-empty after trimming), but a
            // skip beats a panic in a serving-path parser.
            continue;
        };
        let query = match tag {
            "L" | "R" => {
                let side = parse_side(Some(tag), line_no)?;
                let nodes: Vec<u32> = parts
                    .map(|tok| parse_u32(tok, line_no, "node index"))
                    .collect::<Result<_>>()?;
                Query::SubsetCount(SubsetQuery { side, nodes })
            }
            "mass" => {
                let side = parse_side(parts.next(), line_no)?;
                let group = match parts.next() {
                    Some(tok) => parse_u32(tok, line_no, "group index")?,
                    None => {
                        return Err(ServeError::Workload {
                            line: line_no,
                            message: "mass query lists no group index".to_string(),
                        })
                    }
                };
                reject_trailing(parts, line_no)?;
                Query::GroupMass { side, group }
            }
            "hist" => {
                let side = parse_side(parts.next(), line_no)?;
                reject_trailing(parts, line_no)?;
                Query::DegreeHistogram { side }
            }
            "total" => {
                let side = parse_side(parts.next(), line_no)?;
                reject_trailing(parts, line_no)?;
                Query::SideTotal { side }
            }
            other => {
                return Err(ServeError::Workload {
                    line: line_no,
                    message: format!("unknown tag `{other}` (expected L, R, mass, hist or total)"),
                })
            }
        };
        queries.push(query);
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset(side: Side, nodes: &[u32]) -> Query {
        Query::SubsetCount(SubsetQuery {
            side,
            nodes: nodes.to_vec(),
        })
    }

    #[test]
    fn round_trip_every_variant() {
        let queries = vec![
            subset(Side::Left, &[0, 1, 2]),
            subset(Side::Right, &[9]),
            Query::GroupMass {
                side: Side::Left,
                group: 3,
            },
            Query::DegreeHistogram { side: Side::Left },
            Query::SideTotal { side: Side::Right },
        ];
        let mut buf = Vec::new();
        write_query_file(&queries, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            "L 0 1 2\nR 9\nmass L 3\nhist L\ntotal R\n"
        );
        let back = read_query_file(buf.as_slice()).unwrap();
        assert_eq!(queries, back);
    }

    #[test]
    fn empty_subset_line_round_trips() {
        // A bare side tag is the empty subset — it must write as `L`
        // and read back identically (it used to be rejected, breaking
        // the write→read round trip).
        let queries = vec![subset(Side::Left, &[]), subset(Side::Right, &[])];
        let mut buf = Vec::new();
        write_query_file(&queries, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf.clone()).unwrap(), "L\nR\n");
        assert_eq!(read_query_file(buf.as_slice()).unwrap(), queries);
    }

    #[test]
    fn extreme_indices_round_trip() {
        let queries = vec![
            subset(Side::Left, &[u32::MAX, 0, u32::MAX - 1]),
            Query::GroupMass {
                side: Side::Right,
                group: u32::MAX,
            },
        ];
        let mut buf = Vec::new();
        write_query_file(&queries, &mut buf).unwrap();
        assert_eq!(read_query_file(buf.as_slice()).unwrap(), queries);
        // One past u32::MAX is a parse error naming the line, not a
        // silent wrap.
        let err = read_query_file("L 4294967296\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ServeError::Workload { line: 1, .. }));
    }

    #[test]
    fn missing_trailing_newline_still_parses_last_line() {
        let queries = read_query_file("L 1 2\ntotal R".as_bytes()).unwrap();
        assert_eq!(
            queries,
            vec![
                subset(Side::Left, &[1, 2]),
                Query::SideTotal { side: Side::Right }
            ]
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# workload\n\nL 3 4\n# more\nR 1\nhist L\n";
        let queries = read_query_file(text.as_bytes()).unwrap();
        assert_eq!(queries.len(), 3);
        assert_eq!(queries[0], subset(Side::Left, &[3, 4]));
        assert_eq!(queries[2], Query::DegreeHistogram { side: Side::Left });
    }

    #[test]
    fn malformed_lines_name_the_line() {
        for (bad, needle) in [
            ("X 1 2\n", "unknown tag"),
            ("L 1 banana\n", "banana"),
            ("mass L\n", "no group index"),
            ("mass Q 1\n", "side tag"),
            ("mass L one\n", "one"),
            ("hist\n", "missing side"),
            ("hist L 3\n", "trailing"),
            ("total L extra\n", "trailing"),
            ("total\n", "missing side"),
        ] {
            let err = read_query_file(bad.as_bytes()).unwrap_err();
            match err {
                ServeError::Workload { line, message } => {
                    assert_eq!(line, 1, "input {bad:?}");
                    assert!(message.contains(needle), "{bad:?}: {message}");
                }
                other => panic!("expected workload error for {bad:?}, got {other}"),
            }
        }
        // Errors after valid lines still name their own line.
        let err = read_query_file("L 1\n# ok\nmass L\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ServeError::Workload { line: 3, .. }));
    }
}
