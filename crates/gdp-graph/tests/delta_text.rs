//! Property suite for the plain-text delta parser, which reads
//! `gdp publish --deltas` files: on any input, multi-byte characters
//! included, `EdgeDelta::from_text` returns a delta or a typed
//! `GraphError::Parse` naming a line of the input, and never panics;
//! and `to_text` output parses back to the same delta.

use proptest::prelude::*;

use gdp_graph::{EdgeDelta, GraphError, LeftId, RightId};

/// Fragments a delta file is made of, plus the ones that break it:
/// multi-byte letters and symbols, Unicode whitespace, out-of-range ids.
const PIECES: &[&str] = &[
    "+",
    "-",
    " ",
    "\t",
    "\n",
    "\r\n",
    "#",
    "0",
    "7",
    "42",
    "4294967295",
    "4294967296",
    "x",
    "é",
    "€",
    "😀",
    "\u{2003}",
    "\u{a0}",
    "+ 1 2\n",
    "- 3 4\n",
];

/// Mostly `PIECES`; one draw in 21 is an arbitrary character.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..PIECES.len() + 1, 0u32..0x11_0000), 0..40).prop_map(
        |draws| {
            let mut out = String::new();
            for (i, code) in draws {
                match PIECES.get(i) {
                    Some(piece) => out.push_str(piece),
                    None => out.push(char::from_u32(code).unwrap_or('\u{fffd}')),
                }
            }
            out
        },
    )
}

fn edges(max: usize) -> impl Strategy<Value = Vec<(LeftId, RightId)>> {
    proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..max).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(l, r)| (LeftId::new(l), RightId::new(r)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_parses_or_names_a_line(text in text()) {
        match EdgeDelta::from_text(&text) {
            Ok(delta) => prop_assert_eq!(EdgeDelta::from_text(&delta.to_text()).unwrap(), delta),
            Err(GraphError::Parse { line, .. }) => {
                prop_assert!((1..=text.lines().count()).contains(&line), "line {line} of {text:?}")
            }
            Err(other) => panic!("untyped refusal {other:?} of {text:?}"),
        }
    }
}

proptest! {
    #[test]
    fn text_round_trips(inserts in edges(30), deletes in edges(30)) {
        let delta = EdgeDelta::new(inserts, deletes);
        prop_assert_eq!(EdgeDelta::from_text(&delta.to_text()).unwrap(), delta);
    }
}
