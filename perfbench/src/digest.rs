//! Response digests: FNV-1a 64 over the exact bytes a client read,
//! compared against a reference computed another way (an in-process
//! replay of the same lines) and, for a few seeds, against pinned
//! values.

use crate::Stream;

/// FNV-1a 64 of `bytes`. The benchmark keeps its own copy rather than
/// reusing the program's, so a defect there cannot check itself.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Compares the digest of `actual` bytes against `expected`, naming
/// `what` in the problem it returns on a mismatch.
pub fn check(what: &str, actual: &[u8], expected: u64) -> Result<(), String> {
    let found = fnv1a(actual);
    if found == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: response digest {found:016x}, expected {expected:016x}"
        ))
    }
}

/// Digests pinned for particular `(workload, seed, stream)` triples,
/// over a stream's full digest window (the first
/// [`crate::DIGEST_ENTRIES`] request lines of a served connection, the
/// first round of Table-1 cells). A seed not listed here is still
/// checked against the in-process replay.
const PINS: &[(&str, u64, usize, u64)] = &[
    ("serve_mixed", 1, 0, 0xd688_3f10_71d9_ca80),
    ("serve_mixed", 1, 1, 0x1295_df59_6c87_79b9),
    ("serve_mixed", 2, 0, 0xcc71_4338_be0c_968f),
    ("serve_mixed", 2, 1, 0xa9a1_859a_d69f_d3a4),
    ("meta_fullmix", 1, 0, 0xa9ad_f9f5_5325_02cb),
    ("meta_fullmix", 2, 0, 0x0a5f_cc37_74b6_69d1),
];

/// Checks client stream `c`'s reply bytes against `replay` (the same
/// entries answered another way) and, when the stream covers its whole
/// digest window of `window` entries, against the pin for
/// `(workload, seed, c)`.
pub fn check_stream(
    workload: &str,
    seed: u64,
    c: usize,
    stream: &Stream,
    window: usize,
    replay: &[u8],
) -> Vec<String> {
    let what = format!("{workload} stream {c} (first {} entries)", stream.entries);
    let mut problems: Vec<String> = check(&what, &stream.head, fnv1a(replay))
        .err()
        .into_iter()
        .collect();
    let pin = PINS
        .iter()
        .find(|(w, s, k, _)| *w == workload && *s == seed && *k == c)
        .map(|&(_, _, _, digest)| digest);
    if let (true, Some(pin)) = (stream.entries == window, pin) {
        problems.extend(check(&format!("{what} vs pin"), &stream.head, pin).err());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn a_single_flipped_response_byte_fails_the_check() {
        let reply =
            b"hdx1 report id=1 method=hdx task=spheres searches=1\nhdx1 pong id=900000000\n";
        let expected = fnv1a(reply);
        assert!(check("conn 0", reply, expected).is_ok());
        for at in 0..reply.len() {
            for bit in 0..8 {
                let mut flipped = reply.to_vec();
                flipped[at] ^= 1 << bit;
                let err = check("conn 0", &flipped, expected).expect_err("flip must be caught");
                assert!(err.contains("conn 0"), "{err}");
            }
        }
    }
}
