//! Map-output compression (the paper's Section VII future work: "using
//! more efficient on-disk data representations to minimize I/O").
//!
//! A from-scratch byte-oriented LZ77 in the LZ4 spirit: greedy parsing
//! with a single-slot hash table over 4-byte prefixes, 64 KiB window,
//! varint-framed tokens. Intermediate MapReduce data (sorted runs of
//! framed records with heavily repeated keys) compresses extremely well
//! under even this simple scheme, trading CPU for shuffle bytes — the
//! trade Table IV's cloud network makes interesting.
//!
//! Token stream format, repeated until input is exhausted:
//!
//! ```text
//! varint literal_len, literal bytes,
//! varint match_dist,           // 0 ⇒ stream ends after these literals
//! varint match_len - MIN_MATCH // present iff match_dist > 0
//! ```

use crate::codec::{read_varint, write_varint};

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Sliding-window limit for match distances.
const WINDOW: usize = 64 * 1024;
/// Hash-table size (power of two).
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compress `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut lit_start = 0usize;

    while pos + MIN_MATCH <= input.len() {
        let h = hash4(&input[pos..]);
        let cand = table[h];
        table[h] = pos;
        if cand != usize::MAX
            && pos - cand <= WINDOW
            && input[cand..cand + MIN_MATCH] == input[pos..pos + MIN_MATCH]
        {
            // Extend the match.
            let mut len = MIN_MATCH;
            while pos + len < input.len() && input[cand + len] == input[pos + len] {
                len += 1;
            }
            // Emit pending literals + the match token.
            write_varint(&mut out, (pos - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..pos]);
            write_varint(&mut out, (pos - cand) as u64);
            write_varint(&mut out, (len - MIN_MATCH) as u64);
            // Index a few positions inside the match so later data can
            // refer back into it.
            let step = (len / 8).max(1);
            let mut p = pos + 1;
            while p + MIN_MATCH <= input.len() && p < pos + len {
                table[hash4(&input[p..])] = p;
                p += step;
            }
            pos += len;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    // Trailing literals + end marker.
    write_varint(&mut out, (input.len() - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..]);
    write_varint(&mut out, 0);
    out
}

/// Output bound of [`decompress`], which has no length to check against.
const DEFAULT_CAP: usize = 1 << 30;

/// Decompress a [`compress`]-produced buffer of at most 1 GiB. Returns
/// `None` on corrupt input (never panics on malformed bytes).
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    decompress_into(input, DEFAULT_CAP)
}

/// Decompress a [`compress`]-produced buffer whose output may not exceed
/// `cap` bytes. Returns `None` on corrupt input or as soon as the output
/// would pass `cap`, so a few hostile bytes cannot claim gigabytes.
pub fn decompress_into(input: &[u8], cap: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len().saturating_mul(3).min(cap));
    let mut pos = 0usize;
    loop {
        let lit_len = usize::try_from(read_varint(input, &mut pos)?).ok()?;
        let lit_end = pos.checked_add(lit_len)?;
        if lit_end > input.len() || lit_len > cap - out.len() {
            return None;
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;
        let dist = usize::try_from(read_varint(input, &mut pos)?).ok()?;
        if dist == 0 {
            // End marker: must coincide with end of input.
            return if pos == input.len() { Some(out) } else { None };
        }
        let len = usize::try_from(read_varint(input, &mut pos)?)
            .ok()?
            .checked_add(MIN_MATCH)?;
        if dist > out.len() || len > cap - out.len() {
            return None;
        }
        // Overlapping copies are legal (runs), so copy byte-wise from the
        // back-reference.
        let start = out.len() - dist;
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    }
}

/// Compression ratio achieved on `input` (compressed/original; lower is
/// better). Diagnostic helper for benches.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress(input).len() as f64 / input.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("valid stream");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(200);
        let c = compress(&data);
        assert!(
            c.len() * 4 < data.len(),
            "ratio {:.2}",
            c.len() as f64 / data.len() as f64
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn sorted_framed_records_compress() {
        // The real use case: a sorted run of framed (word, count) records.
        let mut data = Vec::new();
        for i in 0..2000 {
            crate::codec::write_record(
                &mut data,
                format!("word{:04}", i / 4).as_bytes(),
                &crate::codec::encode_u64(i),
            );
        }
        let c = compress(&data);
        assert!(
            c.len() * 2 < data.len(),
            "ratio {:.2}",
            c.len() as f64 / data.len() as f64
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_survives() {
        // Pseudo-random bytes: little to match, output may exceed input
        // slightly, but the roundtrip must hold.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn overlapping_run_copy() {
        // "aaaa..." forces dist=1 matches (overlapping copy).
        let data = vec![b'a'; 5000];
        let c = compress(&data);
        assert!(c.len() < 64);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_return_none() {
        let c = compress(b"hello hello hello hello hello");
        // Truncations.
        for cut in 1..c.len() {
            let _ = decompress(&c[..cut]); // must not panic
        }
        // Bogus distance.
        let mut bogus = Vec::new();
        write_varint(&mut bogus, 0); // no literals
        write_varint(&mut bogus, 99); // dist 99 > output so far
        write_varint(&mut bogus, 0);
        assert_eq!(decompress(&bogus), None);
        // Trailing garbage after end marker.
        let mut trailing = compress(b"xyz").to_vec();
        trailing.push(7);
        assert_eq!(decompress(&trailing), None);
    }

    /// Four literals, then a dist-1 match of `len` bytes.
    fn bomb(len: u64) -> Vec<u8> {
        let mut b = Vec::new();
        write_varint(&mut b, 4);
        b.extend_from_slice(b"aaaa");
        write_varint(&mut b, 1);
        write_varint(&mut b, len - MIN_MATCH as u64);
        write_varint(&mut b, 0);
        write_varint(&mut b, 0);
        b
    }

    #[test]
    fn output_cap_stops_a_decompression_bomb() {
        // 13 bytes that would inflate to 2 GiB.
        let b = bomb(1 << 31);
        assert_eq!(b.len(), 13);
        assert_eq!(decompress_into(&b, 1 << 20), None);
        assert_eq!(decompress(&b), None);
        // The cap is inclusive.
        let small = bomb(100);
        assert_eq!(decompress_into(&small, 104).map(|v| v.len()), Some(104));
        assert_eq!(decompress_into(&small, 103), None);
        assert_eq!(decompress_into(&compress(b"abcdef"), 5), None);
    }

    #[test]
    fn huge_match_length_is_an_error_not_a_panic() {
        let mut b = Vec::new();
        write_varint(&mut b, 4);
        b.extend_from_slice(b"aaaa");
        write_varint(&mut b, 1);
        write_varint(&mut b, u64::MAX);
        assert_eq!(decompress_into(&b, usize::MAX), None);
        assert_eq!(decompress(&b), None);
    }

    #[test]
    fn long_matches_and_window_limit() {
        // A block repeated beyond the window still round-trips.
        let block: Vec<u8> = (0..=255u8).collect();
        let mut data = Vec::new();
        for _ in 0..600 {
            data.extend_from_slice(&block); // 153 KB > 64 KiB window
        }
        roundtrip(&data);
    }
}
