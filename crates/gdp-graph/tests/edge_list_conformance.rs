//! Conformance of the text edge-list reader and writer against line-at-a-
//! time oracles.
//!
//! The oracles are the straightforward implementations the format was
//! first defined by: a reader over `BufRead::lines()` (a `String` per
//! line, `trim`, `split_whitespace`, `str::parse`) and a writer with one
//! `writeln!` per edge. `io::read_edge_list` scans its buffer in place
//! with a byte-level fast lane; it must agree with the oracle on every
//! input — the same graph, or an error of the same variant with the same
//! line and the same message — and `io::write_edge_list` must emit the
//! oracle's bytes exactly.

use std::io::{BufRead, BufReader, Read, Write};

use proptest::prelude::*;

use gdp_graph::{io, BipartiteGraph, GraphBuilder, GraphError, LeftId, RightId};

/// The line-at-a-time reader, kept as the oracle. It reserves nothing
/// up front: passing the header's edge count through as a capacity is
/// the bug `io::MAX_RESERVED_EDGES` fixes, and capacity never changes
/// the result. Like the reader, it refuses a declared side above
/// `io::MAX_DECLARED_NODES` as soon as that side is parsed.
fn oracle_read<R: Read>(reader: R) -> Result<BipartiteGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines();
    let mut line_no = 0usize;

    // Header: first non-comment, non-empty line.
    let header = loop {
        line_no += 1;
        match lines.next() {
            None => {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: "missing header line".to_string(),
                })
            }
            Some(line) => {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                break trimmed.to_string();
            }
        }
    };
    let mut parts = header.split_whitespace();
    let parse_u32 = |tok: Option<&str>, what: &str, line: usize| -> Result<u32, GraphError> {
        tok.ok_or_else(|| GraphError::Parse {
            line,
            message: format!("missing {what} in header"),
        })?
        .parse::<u32>()
        .map_err(|e| GraphError::Parse {
            line,
            message: format!("bad {what}: {e}"),
        })
    };
    let parse_side = |tok: Option<&str>, what: &str, line: usize| -> Result<u32, GraphError> {
        let count = parse_u32(tok, what, line)?;
        if count > io::MAX_DECLARED_NODES {
            return Err(GraphError::Parse {
                line,
                message: format!(
                    "{what} {count} exceeds the limit of {} nodes",
                    io::MAX_DECLARED_NODES
                ),
            });
        }
        Ok(count)
    };
    let left_count = parse_side(parts.next(), "left count", line_no)?;
    let right_count = parse_side(parts.next(), "right count", line_no)?;
    let _declared_edges = parse_u32(parts.next(), "edge count", line_no)? as usize;

    let mut builder = GraphBuilder::new(left_count, right_count);
    for line in lines {
        line_no += 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let l = parse_u32(parts.next(), "left index", line_no)?;
        let r = parse_u32(parts.next(), "right index", line_no)?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "trailing tokens on edge line".to_string(),
            });
        }
        builder.add_edge(LeftId::new(l), RightId::new(r))?;
    }
    Ok(builder.build())
}

/// The one-`writeln!`-per-edge writer, kept as the oracle.
fn oracle_write(graph: &BipartiteGraph) -> Vec<u8> {
    let mut out = Vec::new();
    writeln!(
        out,
        "{} {} {}",
        graph.left_count(),
        graph.right_count(),
        graph.edge_count()
    )
    .unwrap();
    for (l, r) in graph.edges() {
        writeln!(out, "{} {}", l.index(), r.index()).unwrap();
    }
    out
}

/// A reader that hands out at most `chunk` bytes per `read`, so the
/// line scanner meets a buffer boundary inside nearly every line.
struct Dribble<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Side sizes in `(MAX_BUILT_SIDE, io::MAX_DECLARED_NODES]` are not
/// built: both readers would accept them, and building their per-node
/// offset arrays (up to 128 MiB a side) many times over would only slow
/// the suite down. Sides above the cap are refused before any
/// allocation, so they stay in the domain.
const MAX_BUILT_SIDE: u32 = 1 << 20;

/// Whether `bytes`' header, read the oracle's way, declares no side in
/// the range that is accepted but too costly to build here.
fn sides_buildable(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let Some(header) = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
    else {
        return true;
    };
    header.split_whitespace().take(2).all(|tok| {
        tok.parse::<u32>()
            .map_or(true, |n| n <= MAX_BUILT_SIDE || n > io::MAX_DECLARED_NODES)
    })
}

/// Asserts both readers give the same outcome on `bytes`, through a
/// slice and through a dribbling reader. Returns whether it parsed.
fn assert_conforms(bytes: &[u8], chunk: usize) -> bool {
    if !sides_buildable(bytes) {
        return false;
    }
    let want = oracle_read(bytes);
    for got in [
        io::read_edge_list(bytes),
        io::read_edge_list(Dribble { bytes, chunk }),
    ] {
        match (&want, &got) {
            (Ok(w), Ok(g)) => assert_eq!(w, g, "input {:?}", String::from_utf8_lossy(bytes)),
            (Err(w), Err(g)) => {
                assert_eq!(
                    std::mem::discriminant(w),
                    std::mem::discriminant(g),
                    "{w} vs {g}"
                );
                assert_eq!(w.to_string(), g.to_string());
                match (w, g) {
                    (GraphError::Parse { line: a, .. }, GraphError::Parse { line: b, .. }) => {
                        assert_eq!(a, b)
                    }
                    (GraphError::Io(a), GraphError::Io(b)) => assert_eq!(a.kind(), b.kind()),
                    _ => {}
                }
            }
            _ => panic!(
                "oracle {want:?} vs reader {got:?} on {:?}",
                String::from_utf8_lossy(bytes)
            ),
        }
    }
    want.is_ok()
}

/// Strategy: a random edge list over bounded side sizes.
fn graph_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>)> {
    (1u32..40, 1u32..40).prop_flat_map(|(nl, nr)| {
        let edges = proptest::collection::vec((0..nl, 0..nr), 0..200);
        (Just(nl), Just(nr), edges)
    })
}

fn build(nl: u32, nr: u32, edges: &[(u32, u32)]) -> BipartiteGraph {
    let mut b = GraphBuilder::new(nl, nr);
    for &(l, r) in edges {
        b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
    }
    b.build()
}

/// Pieces arbitrary inputs are assembled from: digits, every kind of
/// whitespace the general path trims (Unicode included), signs, comment
/// marks and numbers around `u32::MAX`. Raw bytes mixed in between
/// supply the input that is not UTF-8.
const PIECES: [&[u8]; 25] = [
    b"0",
    b"1",
    b"2",
    b"7",
    b"9",
    b"00",
    b" ",
    b" ",
    b"\n",
    b"\n",
    b"\r\n",
    b"\r",
    b"\t",
    b"\x0b",
    b"\x0c",
    b"#",
    b"+",
    b"-",
    b"x",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "\u{85}".as_bytes(),
    b"4294967295",
    b"4294967296",
    b"99999999999",
];

/// Whitespace the general path trims and splits on.
const PADS: [&str; 9] = [
    "", " ", "\t", "\x0b", "\x0c", "\u{a0}", "\u{2003}", "\u{85}", "\r",
];

/// Numbers near the lane's limits: ten digits at and past `u32::MAX`,
/// eleven digits, leading zeros, a sign.
const BIG: [&str; 8] = [
    "4294967295",
    "4294967294",
    "4294967296",
    "1000000000",
    "99999999999",
    "00000000003",
    "0004294967",
    "+4294967295",
];

/// One line of a mutated document, before rendering.
#[derive(Clone)]
struct Line {
    lead: &'static str,
    tokens: Vec<String>,
    sep: &'static str,
    trail: &'static str,
    end: &'static str,
}

impl Line {
    fn plain(tokens: Vec<String>) -> Self {
        Self {
            lead: "",
            tokens,
            sep: " ",
            trail: "",
            end: "\n",
        }
    }
}

/// A valid edge list as lines, then `mutations` applied: each is
/// `(kind, line, choice)` with `line` and `choice` reduced modulo what
/// they index.
fn mutated_document(
    nl: u32,
    nr: u32,
    edges: &[(u32, u32)],
    mutations: &[(usize, usize, usize)],
) -> Vec<u8> {
    let g = build(nl, nr, edges);
    let mut lines = vec![Line::plain(vec![
        nl.to_string(),
        nr.to_string(),
        g.edge_count().to_string(),
    ])];
    lines.extend(
        g.edges()
            .map(|(l, r)| Line::plain(vec![l.index().to_string(), r.index().to_string()])),
    );
    let mut final_newline = true;
    let mut raw_edits = Vec::new();
    for &(kind, at, choice) in mutations {
        let at = at % lines.len();
        let line = &mut lines[at];
        let token = choice % line.tokens.len().max(1);
        match kind {
            0 => line.end = ["\n", "\r\n"][choice % 2],
            1 => line.sep = [" ", "\t", "  ", "\u{a0}", "\u{2003}", "\u{85}", "\x0b"][choice % 7],
            2 => line.lead = PADS[choice % PADS.len()],
            3 => line.trail = PADS[choice % PADS.len()],
            4 if !line.tokens.is_empty() => line.tokens[token].insert(0, '+'),
            5 if !line.tokens.is_empty() => line.tokens[token].insert_str(0, "000"),
            6 => {
                let comment = Line {
                    lead: PADS[choice % PADS.len()],
                    ..Line::plain(vec!["#".to_string(), "note".to_string()])
                };
                lines.insert(at, comment);
            }
            7 => {
                let blank = Line {
                    lead: PADS[choice % PADS.len()],
                    ..Line::plain(Vec::new())
                };
                lines.insert(at, blank);
            }
            8 if !line.tokens.is_empty() => {
                line.tokens[token] = BIG[choice % BIG.len()].to_string()
            }
            9 => line.tokens.push("7".to_string()),
            10 => {
                line.tokens.pop();
            }
            11 => final_newline = false,
            12 => raw_edits.push(choice),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for line in &lines {
        out.extend_from_slice(line.lead.as_bytes());
        out.extend_from_slice(line.tokens.join(line.sep).as_bytes());
        out.extend_from_slice(line.trail.as_bytes());
        out.extend_from_slice(line.end.as_bytes());
    }
    if !final_newline {
        while out.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            out.pop();
        }
    }
    // Stray bytes that are not UTF-8 (or an unexpected newline).
    for choice in raw_edits {
        let at = choice % (out.len() + 1);
        let byte = [b'\xff', b'\xc3', b'\x80', b'\n'][choice % 4];
        out.insert(at, byte);
    }
    out
}

/// `body` with a comment line inserted after its header line, sized so
/// that the newline of some later line lands on `boundary - 1`, and a
/// U+2003 inserted before that newline: the three bytes of the
/// character straddle `boundary`.
fn straddle(body: &[u8], boundary: usize) -> Vec<u8> {
    let Some(header_end) = body.iter().position(|&b| b == b'\n') else {
        return body.to_vec();
    };
    let header_end = header_end + 1;
    let Some(target) = body[..boundary - 3]
        .iter()
        .rposition(|&b| b == b'\n')
        .filter(|&nl| nl >= header_end)
    else {
        return body.to_vec();
    };
    let pad = boundary - 1 - target;
    let mut comment = vec![b'#'; pad - 1];
    comment.push(b'\n');
    let mut out = body[..header_end].to_vec();
    out.extend_from_slice(&comment);
    out.extend_from_slice(&body[header_end..target]);
    out.extend_from_slice("\u{2003}".as_bytes());
    out.extend_from_slice(&body[target..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mostly `PIECES`, with a raw byte drawn one time in 26; half the
    /// inputs start with a valid header, so their arbitrary bytes are
    /// read as edge lines.
    #[test]
    fn reader_matches_oracle_on_arbitrary_bytes(
        pieces in proptest::collection::vec((0usize..PIECES.len() + 1, 0u8..=255), 0..40),
        with_header in proptest::bool::ANY,
        chunk in 1usize..8,
    ) {
        let mut bytes = if with_header { b"20 20 3\n".to_vec() } else { Vec::new() };
        for (i, raw) in pieces {
            match PIECES.get(i) {
                Some(piece) => bytes.extend_from_slice(piece),
                None => bytes.push(raw),
            }
        }
        assert_conforms(&bytes, chunk);
    }
}

proptest! {
    #[test]
    fn reader_matches_oracle_on_valid_lists((nl, nr, edges) in graph_strategy(), chunk in 1usize..8) {
        let g = build(nl, nr, &edges);
        let text = oracle_write(&g);
        prop_assert!(assert_conforms(&text, chunk));
        prop_assert_eq!(io::read_edge_list(text.as_slice()).unwrap(), g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reader_matches_oracle_on_mutated_lists(
        (nl, nr, edges) in graph_strategy(),
        mutations in proptest::collection::vec((0usize..16, 0usize..1000, 0usize..1000), 0..6),
        chunk in 1usize..8,
    ) {
        assert_conforms(&mutated_document(nl, nr, &edges, &mutations), chunk);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lists past the reader's 64 KiB buffer: edge lines straddle the
    /// boundary, and so does a three-byte whitespace character.
    #[test]
    fn reader_matches_oracle_across_the_buffer_boundary(
        edges in proptest::collection::vec((0u32..5000, 0u32..5000), 9000..16000),
        mutations in proptest::collection::vec((0usize..16, 0usize..100_000, 0usize..1000), 0..4),
        chunk in 1000usize..5000,
    ) {
        let body = mutated_document(5000, 5000, &edges, &mutations);
        for boundary in [1 << 16, 2 << 16] {
            if body.len() > boundary {
                assert_conforms(&straddle(&body, boundary), chunk);
            }
        }
        assert_conforms(&body, chunk);
    }

    #[test]
    fn writer_matches_oracle_bytes((nl, nr, edges) in graph_strategy()) {
        let g = build(nl, nr, &edges);
        let mut out = Vec::new();
        io::write_edge_list(&g, &mut out).unwrap();
        prop_assert_eq!(out, oracle_write(&g));
    }
}

#[test]
fn straddling_documents_parse() {
    // The boundary fixture must yield a valid list, so the straddling
    // character is exercised on the parse path, not only on errors.
    let edges: Vec<(u32, u32)> = (0..12_000).map(|i| (i % 4000, (i * 7) % 3000)).collect();
    let body = mutated_document(4000, 3000, &edges, &[]);
    assert!(body.len() > 1 << 16);
    let doc = straddle(&body, 1 << 16);
    assert_eq!(&doc[(1 << 16) - 1..(1 << 16) + 2], "\u{2003}".as_bytes());
    assert!(assert_conforms(&doc, 4096));
    assert_eq!(
        io::read_edge_list(doc.as_slice()).unwrap(),
        io::read_edge_list(body.as_slice()).unwrap()
    );
}

#[test]
fn writer_matches_oracle_on_every_digit_width() {
    // Ids of one to seven digits on both sides, the widest a graph is
    // cheap to build at (its CSR offsets are per node); the digit
    // renderer itself is pinned up to ten digits in `io`'s unit tests.
    let ids: Vec<u32> = (0..7)
        .flat_map(|d| [10u32.pow(d) - 1, 10u32.pow(d)])
        .chain([0, 123_456])
        .collect();
    let side = 1_000_001;
    let mut b = GraphBuilder::new(side, side);
    for &l in &ids {
        for &r in &ids {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
    }
    let g = b.build();
    let mut out = Vec::new();
    io::write_edge_list(&g, &mut out).unwrap();
    assert_eq!(out, oracle_write(&g));
    assert_eq!(io::read_edge_list(out.as_slice()).unwrap(), g);
}

#[test]
fn writer_output_spans_many_buffers() {
    let edges: Vec<(u32, u32)> = (0..50_000).map(|i| (i % 997, (i * 31) % 1009)).collect();
    let g = build(997, 1009, &edges);
    let mut out = Vec::new();
    io::write_edge_list(&g, &mut out).unwrap();
    assert!(out.len() > 4 << 16);
    assert_eq!(out, oracle_write(&g));
}

#[test]
fn reader_works_through_a_mutable_reference() {
    let text = b"2 2 1\n0 1\n";
    let mut slice = &text[..];
    let g = io::read_edge_list(&mut slice).unwrap();
    assert_eq!(g.edge_count(), 1);
    assert!(slice.is_empty());
}

#[test]
fn headers_above_the_node_cap_conform() {
    // Refused by both readers at line 1, whichever side is too large,
    // and before any per-node allocation.
    for text in [
        "4294967295 2 1\n0 1\n",
        "2 4294967295 1\n0 1\n",
        "# comment\n16777217 1 0\n",
        "1 1000000000 x\n",
    ] {
        assert!(sides_buildable(text.as_bytes()), "{text:?}");
        assert!(!assert_conforms(text.as_bytes(), 3), "{text:?}");
    }
}
