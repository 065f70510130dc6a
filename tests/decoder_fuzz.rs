//! Byte-level fuzzing of the decoders that read untrusted input: the JSON
//! parser and the NDJSON request decoder behind every `metam serve`
//! request line, and the `.mtc` columnar table decoder behind every cached
//! table load. (The `.mks` sketch-record decoder has the same properties
//! in `tests/sketch_discovery.rs`.)
//!
//! Each decoder must turn any input into a value or a typed error, never a
//! panic or a stack overflow, and a damaged `.mtc` payload must never
//! decode at all.

use metam::obs::json;
use metam::table::colbin::{self, fnv1a};
use metam::table::Column;
use metam::Table;
use proptest::prelude::*;

/// Characters that steer the JSON grammar, plus multi-byte and control
/// characters.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', 'u', 'b', '0', '1', '9', '-', '+', '.', 'e', 'E',
    't', 'r', 'n', 'l', 'f', 'a', 's', 'v', ' ', '\n', '\u{1}', 'é', '→',
];

/// Mostly grammar characters, one in four drawn from all of Unicode.
fn text(codes: &[(u32, u32)]) -> String {
    codes
        .iter()
        .map(|&(pick, code)| match pick {
            0 => char::from_u32(code).unwrap_or('\u{fffd}'),
            _ => ALPHABET[code as usize % ALPHABET.len()],
        })
        .collect()
}

/// `depth` nested openers (arrays or single-key objects, chosen by the
/// bits of `seed`) around a leaf; `close` of them are closed again.
fn nested(depth: usize, close: usize, seed: u64) -> String {
    let object = |level: usize| (seed.rotate_left(level as u32 % 64) & 1) == 1;
    let mut out = String::new();
    for level in 0..depth {
        out.push_str(if object(level) { "{\"k\":" } else { "[" });
    }
    out.push_str("\"leaf\"");
    for level in (depth - close..depth).rev() {
        out.push(if object(level) { '}' } else { ']' });
    }
    out
}

/// A small table whose layout and content follow `seed`: `ncols` columns
/// of mixed dtypes (named or anonymous, with nulls) over `nrows` rows.
fn fuzz_table(ncols: usize, nrows: usize, seed: u64) -> Table {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let columns = (0..ncols)
        .map(|c| {
            let name = (next() % 4 != 0).then(|| format!("c{c}\t\\é"));
            let kind = next() % 4;
            let mut present = || next() % 5 != 0;
            match kind {
                0 => Column::from_ints(
                    name,
                    (0..nrows)
                        .map(|r| present().then_some(r as i64 - 3))
                        .collect(),
                ),
                1 => Column::from_floats(
                    name,
                    (0..nrows)
                        .map(|r| present().then_some(r as f64 * -0.375))
                        .collect(),
                ),
                2 => Column::from_strings(
                    name,
                    (0..nrows)
                        .map(|r| present().then(|| format!("k{}", r % 3)))
                        .collect(),
                ),
                _ => Column::from_bools(
                    name,
                    (0..nrows)
                        .map(|r| present().then_some(r % 2 == 0))
                        .collect(),
                ),
            }
        })
        .collect();
    Table::from_columns("fuzz", columns).expect("equal-length columns")
}

proptest! {
    /// Arbitrary text never panics the JSON parser or the request decoder,
    /// neither as a whole line nor spliced into a request's field.
    #[test]
    fn json_and_request_decoders_survive_arbitrary_text(
        codes in prop::collection::vec((0u32..4, 0u32..0x11_0000), 0..512),
    ) {
        let line = text(&codes);
        let _ = json::parse(&line);
        let _ = metam_serve::parse_request(&line);
        let spliced = format!("{{\"verb\":\"discover\",\"lake\":{line},\"din\":\"d\"}}");
        let _ = metam_serve::parse_request(&spliced);
    }

    /// Nesting of any depth parses exactly when it is closed and no deeper
    /// than `MAX_DEPTH`; deeper input is an error, not a stack overflow.
    #[test]
    fn nesting_of_random_depth_never_overflows(
        depth in 0usize..5000,
        open in 0usize..3,
        seed: u64,
    ) {
        let close = depth.saturating_sub(open);
        let line = nested(depth, close, seed);
        let parsed = json::parse(&line);
        assert_eq!(
            parsed.is_ok(),
            close == depth && depth <= json::MAX_DEPTH,
            "depth {depth}, {close} closed"
        );
        assert!(metam_serve::parse_request(&line).is_err(), "no verb at depth {depth}");
    }

    /// Arbitrary bytes never panic the `.mtc` decoder — neither raw, nor
    /// sealed behind a valid magic and checksum so the column parser itself
    /// sees the garbage.
    #[test]
    fn mtc_decoder_survives_arbitrary_bytes(
        bytes in prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..4097),
    ) {
        assert!(colbin::read_table(&bytes).is_err());
        let mut sealed = colbin::MAGIC.to_vec();
        sealed.extend_from_slice(&bytes);
        let sum = fnv1a(&sealed);
        sealed.extend_from_slice(&sum.to_le_bytes());
        let _ = colbin::read_table(&sealed);
    }

    /// Every strict prefix of a valid `.mtc` payload decodes to an error.
    #[test]
    fn every_strict_prefix_of_a_payload_is_rejected(
        ncols in 0usize..3,
        nrows in 0usize..9,
        seed: u64,
    ) {
        let table = fuzz_table(ncols, nrows, seed);
        let bytes = colbin::to_bytes(&table);
        assert_eq!(colbin::read_table(&bytes).ok(), Some(table), "the payload itself is valid");
        for cut in 0..bytes.len() {
            assert!(colbin::read_table(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    /// Every single-byte change of a valid `.mtc` payload decodes to an
    /// error.
    #[test]
    fn every_single_byte_flip_of_a_payload_is_rejected(
        ncols in 0usize..3,
        nrows in 0usize..9,
        seed: u64,
    ) {
        let mut bytes = colbin::to_bytes(&fuzz_table(ncols, nrows, seed));
        for i in 0..bytes.len() {
            let mask = 1 + (seed.rotate_left(i as u32 % 64) % 255) as u8;
            bytes[i] ^= mask;
            assert!(colbin::read_table(&bytes).is_err(), "byte {i} ^ {mask:#04x}");
            bytes[i] ^= mask;
        }
    }
}
