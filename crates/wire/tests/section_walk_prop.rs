//! Reference property for the trailing-section walker: one table of
//! sections and one walker (`Protocol::split_tail`, which the six
//! `encode_*` / `extract_*` methods sit on) must read every body exactly
//! as the hand-written per-section extractors did before them.
//!
//! The reference below is those extractors, kept verbatim as the oracle:
//! per protocol, a chunk extractor, a "strip the chunk" helper, and token
//! and context extractors that look beneath it. The walker must agree with
//! it on arbitrary bytes, on every subset and order of the three sections
//! (repeats and out-of-order stacks included), and on lookalikes: escaped
//! markers, a marker glued to its first value, a chunk `last` of 5, a
//! tail too short to hold a section, a magic that appears by coincidence.

use heidl_wire::{
    CdrProtocol, Protocol, Section, Tail, TextProtocol, CDR_CHUNK_LEN, CDR_CHUNK_MAGIC,
    CDR_CONTEXT_LEN, CDR_CONTEXT_MAGIC, CDR_TOKEN_LEN, CDR_TOKEN_MAGIC, TEXT_CHUNK_MARKER,
    TEXT_CONTEXT_MARKER, TEXT_TOKEN_MARKER,
};
use proptest::prelude::*;

// ---- the reference: the per-section extractors, verbatim ------------------

mod reference {
    use super::*;

    fn last_word(line: &[u8]) -> (&[u8], &[u8]) {
        let line = line.trim_ascii_end();
        line.split_at(line.iter().rposition(u8::is_ascii_whitespace).map_or(0, |i| i + 1))
    }

    fn split_text_tail<'a>(line: &'a [u8], marker: &str) -> Option<(&'a [u8], u64, &'a str)> {
        let (rest, b) = last_word(line);
        let (rest, a) = last_word(rest);
        fn quoted<'w>(w: &'w [u8], marker: &str) -> Option<&'w [u8]> {
            w.strip_prefix(b"\"")?.strip_prefix(marker.as_bytes())?.strip_prefix(b"\"")
        }
        let (rest, a) = match quoted(a, marker) {
            Some(glued) => (rest, glued),
            None => {
                let (rest, m) = last_word(rest);
                quoted(m, marker).filter(|after| after.is_empty())?;
                (rest, a)
            }
        };
        Some((rest, std::str::from_utf8(a).ok()?.parse().ok()?, std::str::from_utf8(b).ok()?))
    }

    fn strip_text_chunk(line: &[u8]) -> &[u8] {
        match split_text_tail(line, TEXT_CHUNK_MARKER) {
            Some((rest, _, "0" | "1")) => rest,
            _ => line,
        }
    }

    fn cdr_strip_chunk(body: &[u8]) -> &[u8] {
        let n = body.len();
        if n >= CDR_CHUNK_LEN && &body[n - 4..] == CDR_CHUNK_MAGIC {
            let last = u32::from_le_bytes(body[n - 8..n - 4].try_into().expect("4 bytes"));
            if last <= 1 {
                return &body[..n - CDR_CHUNK_LEN];
            }
        }
        body
    }

    fn text_context(body: &[u8]) -> Option<(u64, u64)> {
        let (_, call_id, parent_id) = split_text_tail(strip_text_chunk(body), TEXT_CONTEXT_MARKER)?;
        Some((call_id, parent_id.parse().ok()?))
    }

    fn text_token(body: &[u8]) -> Option<(u64, u64)> {
        let line = strip_text_chunk(body);
        let (_, session, seq) = split_text_tail(line, TEXT_TOKEN_MARKER).or_else(|| {
            let (line, _, parent_id) = split_text_tail(line, TEXT_CONTEXT_MARKER)?;
            parent_id.parse::<u64>().ok()?;
            split_text_tail(line, TEXT_TOKEN_MARKER)
        })?;
        Some((session, seq.parse().ok()?))
    }

    fn text_chunk(body: &[u8]) -> Option<(u64, bool)> {
        match split_text_tail(body, TEXT_CHUNK_MARKER)? {
            (_, index, "0") => Some((index, false)),
            (_, index, "1") => Some((index, true)),
            _ => None,
        }
    }

    fn cdr_context(body: &[u8]) -> Option<(u64, u64)> {
        let body = cdr_strip_chunk(body);
        let n = body.len();
        if n < CDR_CONTEXT_LEN || &body[n - 4..] != CDR_CONTEXT_MAGIC {
            return None;
        }
        let call_id = u64::from_le_bytes(body[n - 20..n - 12].try_into().expect("8 bytes"));
        let parent_id = u64::from_le_bytes(body[n - 12..n - 4].try_into().expect("8 bytes"));
        Some((call_id, parent_id))
    }

    fn cdr_token(body: &[u8]) -> Option<(u64, u64)> {
        let body = cdr_strip_chunk(body);
        let n = body.len();
        let magic_end = if n >= CDR_TOKEN_LEN && &body[n - 4..] == CDR_TOKEN_MAGIC {
            n
        } else if n >= CDR_CONTEXT_LEN + CDR_TOKEN_LEN
            && &body[n - 4..] == CDR_CONTEXT_MAGIC
            && &body[n - CDR_CONTEXT_LEN - 4..n - CDR_CONTEXT_LEN] == CDR_TOKEN_MAGIC
        {
            n - CDR_CONTEXT_LEN
        } else {
            return None;
        };
        let start = magic_end - CDR_TOKEN_LEN;
        let session = u64::from_le_bytes(body[start..start + 8].try_into().expect("8 bytes"));
        let seq = u64::from_le_bytes(body[start + 8..start + 16].try_into().expect("8 bytes"));
        Some((session, seq))
    }

    fn cdr_chunk(body: &[u8]) -> Option<(u64, bool)> {
        let n = body.len();
        if n < CDR_CHUNK_LEN || &body[n - 4..] != CDR_CHUNK_MAGIC {
            return None;
        }
        let last = u32::from_le_bytes(body[n - 8..n - 4].try_into().expect("4 bytes"));
        if last > 1 {
            return None;
        }
        let index = u64::from_le_bytes(body[n - 16..n - 8].try_into().expect("8 bytes"));
        Some((index, last == 1))
    }

    /// What the old extractors read from `body` on protocol `name`.
    pub fn tail(name: &str, body: &[u8]) -> Tail {
        match name {
            "tcp" => Tail {
                token: text_token(body),
                context: text_context(body),
                chunk: text_chunk(body),
            },
            _ => {
                Tail { token: cdr_token(body), context: cdr_context(body), chunk: cdr_chunk(body) }
            }
        }
    }
}

// ---- bodies ---------------------------------------------------------------

fn protocols() -> Vec<Box<dyn Protocol>> {
    vec![Box::new(TextProtocol), Box::new(CdrProtocol)]
}

/// A declared field before the sections; strings may mention markers, so
/// escaped lookalikes come for free.
#[derive(Debug, Clone)]
enum Arg {
    Octet(u8),
    Long(i32),
    ULongLong(u64),
    Str(String),
}

fn arg_strategy() -> impl Strategy<Value = Arg> {
    prop_oneof![
        any::<u8>().prop_map(Arg::Octet),
        any::<i32>().prop_map(Arg::Long),
        any::<u64>().prop_map(Arg::ULongLong),
        "\\PC{0,12}".prop_map(Arg::Str),
        prop_oneof![Just("~tok"), Just("~ctx"), Just("~chunk"), Just("\"~ctx\" 1 2")]
            .prop_map(|s| Arg::Str(s.to_owned())),
    ]
}

fn section_strategy() -> impl Strategy<Value = Section> {
    prop_oneof![Just(Section::Token), Just(Section::Context), Just(Section::Chunk)]
}

/// Small values keep the text spellings short and make `last` flags of
/// 0, 1 and out-of-range all common.
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, any::<u64>()]
}

/// Bytes appended after everything else, imitating a section without
/// being a well-formed one (or being one by coincidence).
fn lookalike(name: &str, pick: u8, n: u64) -> Vec<u8> {
    if name == "tcp" {
        let s = match pick % 8 {
            0 => format!(" \"~ctx\"{n} 7"),
            1 => format!(" \"~chunk\" {n} 5"),
            2 => format!(" \"~tok\" {n}"),
            3 => " \"~ctx\" x y".to_owned(),
            4 => format!(" \\\"~tok\\\" {n} 1"),
            5 => format!(" \"~chunk\"{n} 1"),
            6 => format!(" \"~tok\" {n} +1"),
            _ => format!(" {n}"),
        };
        s.into_bytes()
    } else {
        let magic = [CDR_TOKEN_MAGIC, CDR_CONTEXT_MAGIC, CDR_CHUNK_MAGIC][usize::from(pick % 3)];
        let mut out = n.to_le_bytes()[..usize::from(pick % 9)].to_vec();
        if pick.is_multiple_of(2) {
            out.extend_from_slice(&5u32.to_le_bytes());
        }
        out.extend_from_slice(magic);
        out
    }
}

fn body(p: &dyn Protocol, args: &[Arg], sections: &[(Section, u64, u64)], junk: &[u8]) -> Vec<u8> {
    let mut enc = p.encoder();
    for arg in args {
        match arg {
            Arg::Octet(x) => enc.put_octet(*x),
            Arg::Long(x) => enc.put_long(*x),
            Arg::ULongLong(x) => enc.put_ulonglong(*x),
            Arg::Str(x) => enc.put_string(x),
        }
    }
    for &(section, a, b) in sections {
        assert!(p.attach_section(enc.as_mut(), section, a, b), "{}", p.name());
    }
    let mut body = enc.finish();
    body.extend_from_slice(junk);
    body
}

/// The walker, through every entry point, agrees with the reference.
fn agrees(p: &dyn Protocol, body: &[u8]) -> Result<(), TestCaseError> {
    let want = reference::tail(p.name(), body);
    prop_assert_eq!(p.split_tail(body), want, "{} {:?}", p.name(), String::from_utf8_lossy(body));
    prop_assert_eq!(p.extract_token(body), want.token, "{}", p.name());
    prop_assert_eq!(p.extract_context(body), want.context, "{}", p.name());
    prop_assert_eq!(p.extract_chunk(body), want.chunk, "{}", p.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, and arbitrary bytes closed by a lookalike.
    #[test]
    fn walker_matches_reference_on_arbitrary_bodies(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        pick in any::<u8>(),
        n in value_strategy(),
    ) {
        for p in protocols() {
            agrees(p.as_ref(), &bytes)?;
            let mut closed = bytes.clone();
            closed.extend_from_slice(&lookalike(p.name(), pick, n));
            agrees(p.as_ref(), &closed)?;
        }
    }

    /// Any stack of sections — every subset, every order, repeats — over
    /// arbitrary arguments, with or without a lookalike on top.
    #[test]
    fn walker_matches_reference_on_any_section_stack(
        args in proptest::collection::vec(arg_strategy(), 0..5),
        sections in proptest::collection::vec(
            (section_strategy(), value_strategy(), value_strategy()),
            0..5,
        ),
        pick in any::<u8>(),
        n in value_strategy(),
        junk in any::<bool>(),
    ) {
        for p in protocols() {
            let tail = if junk { lookalike(p.name(), pick, n) } else { Vec::new() };
            agrees(p.as_ref(), &body(p.as_ref(), &args, &sections, &tail))?;
        }
    }
}

/// Every ordered selection of distinct sections, exhaustively: the
/// in-order ones are read whole, the rest exactly as the reference did.
#[test]
fn every_subset_and_order_of_the_three_sections() {
    let all = [Section::Token, Section::Context, Section::Chunk];
    let mut stacks: Vec<Vec<Section>> = vec![Vec::new()];
    for a in all {
        stacks.push(vec![a]);
        for b in all.into_iter().filter(|&b| b != a) {
            stacks.push(vec![a, b]);
            for c in all.into_iter().filter(|&c| c != a && c != b) {
                stacks.push(vec![a, b, c]);
            }
        }
    }
    assert_eq!(stacks.len(), 1 + 3 + 6 + 6);
    for p in protocols() {
        for stack in &stacks {
            for last in [0, 1, 5] {
                let sections: Vec<_> = stack.iter().map(|&s| (s, 42, last)).collect();
                let body = body(p.as_ref(), &[Arg::Str("x".into())], &sections, &[]);
                agrees(p.as_ref(), &body).unwrap();
                if stack.windows(2).all(|w| (w[0] as usize) < (w[1] as usize)) && last < 5 {
                    let tail = p.split_tail(&body);
                    assert_eq!(tail.token.is_some(), stack.contains(&Section::Token));
                    assert_eq!(tail.context.is_some(), stack.contains(&Section::Context));
                    assert_eq!(tail.chunk.is_some(), stack.contains(&Section::Chunk));
                }
            }
        }
    }
}
