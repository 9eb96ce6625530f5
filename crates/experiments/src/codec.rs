//! Canonical binary serialization of [`BenchmarkProfile`]s.
//!
//! The [`store::ProfileStore`](crate::store::ProfileStore) persists
//! memoized profiles on disk through this codec. Two properties matter
//! more than speed here:
//!
//! * **Canonical output.** Classes are written in one total order,
//!   `(length, kind, wake, dirty)`, so equal profiles encode to
//!   *identical bytes* — the determinism regression tests compare
//!   encodings directly. Decoding fills an [`IntervalTable`] straight
//!   from that order (each category's lengths arrive ascending), with
//!   no intermediate map, and rejects a body whose classes are out of
//!   that order or repeated.
//! * **Versioned format.** [`FORMAT_VERSION`] is checked on decode and
//!   mixed into store keys, so a layout change invalidates stale files
//!   instead of misreading them.
//! * **Integrity footer.** Since format version 2 the final 8 bytes
//!   are the FNV-1a digest of everything before them, verified before
//!   any structural parsing. A crash (or injected fault) that tears a
//!   write mid-file can therefore never yield a decodable-but-wrong
//!   profile: the digest fails first and the store quarantines the
//!   file. FNV-1a guards against torn writes and bit flips, not
//!   adversaries.

use crate::{BenchmarkProfile, CacheProfile};
use leakage_cachesim::CacheStats;
use leakage_faults::checksum::fnv1a;
use leakage_intervals::{ClassCategory, IntervalTable, TableBuilder, TableError};
use leakage_prefetch::PrefetchStats;

/// File magic: "LKPF" (leakage profile).
pub const MAGIC: [u8; 4] = *b"LKPF";

/// Layout version; bump on any change to the byte format.
/// Version history: 1 — initial layout; 2 — FNV-1a integrity footer.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of the trailing FNV-1a integrity footer.
const FOOTER_BYTES: usize = 8;

/// Decode failures. The store treats any error as a cache miss (and
/// quarantines the file), so corrupt files are self-healing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// The magic bytes did not match [`MAGIC`].
    BadMagic,
    /// The file was written by a different [`FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// An enum tag byte was out of range.
    BadTag(u8),
    /// The benchmark name was not valid UTF-8.
    BadName,
    /// Trailing bytes followed a complete profile.
    TrailingBytes,
    /// The interval classes were out of canonical order, repeated, or
    /// overflowed the table's 64-bit running sums.
    BadTable(TableError),
    /// The integrity footer did not match the body — a torn write or
    /// bit flip.
    ChecksumMismatch {
        /// Digest recomputed over the body.
        expected: u64,
        /// Digest found in the footer.
        found: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "profile data truncated"),
            CodecError::BadMagic => write!(f, "not a profile file (bad magic)"),
            CodecError::VersionMismatch { found } => {
                write!(f, "profile format version {found}, expected {FORMAT_VERSION}")
            }
            CodecError::BadTag(tag) => write!(f, "invalid enum tag {tag}"),
            CodecError::BadName => write!(f, "benchmark name is not UTF-8"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after profile"),
            CodecError::BadTable(err) => write!(f, "bad interval table: {err}"),
            CodecError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: body hashes to {expected:016x}, footer says {found:016x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a profile to its canonical byte form, integrity footer
/// included.
pub fn encode_profile(profile: &BenchmarkProfile) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    let name = profile.name.as_bytes();
    put_u32(&mut out, name.len() as u32);
    out.extend_from_slice(name);
    encode_cache(&mut out, &profile.icache);
    encode_cache(&mut out, &profile.dcache);
    let digest = fnv1a(&out);
    put_u64(&mut out, digest);
    out
}

/// Decodes a profile, validating magic, version, integrity footer, and
/// framing.
///
/// Check order matters for diagnosis: magic and version are read
/// first (a stale-format file should report [`VersionMismatch`], not a
/// digest failure — its footer convention may differ), then the
/// footer is verified over the whole body *before* any structural
/// parsing, so a torn write or bit flip anywhere surfaces as
/// [`ChecksumMismatch`] rather than as an arbitrary misparse.
///
/// [`VersionMismatch`]: CodecError::VersionMismatch
/// [`ChecksumMismatch`]: CodecError::ChecksumMismatch
///
/// # Errors
///
/// Returns a [`CodecError`] on any structural violation; never panics
/// on malformed input.
pub fn decode_profile(bytes: &[u8]) -> Result<BenchmarkProfile, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::VersionMismatch { found: version });
    }
    let body_len = bytes.len().checked_sub(FOOTER_BYTES).ok_or(CodecError::Truncated)?;
    let expected = fnv1a(&bytes[..body_len]);
    let mut footer = Reader { bytes, pos: body_len };
    let found = footer.u64()?;
    if expected != found {
        return Err(CodecError::ChecksumMismatch { expected, found });
    }
    // Structural parsing sees only the checksummed body.
    let mut r = Reader { bytes: &bytes[..body_len], pos: r.pos };
    let name_len = r.u32()? as usize;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| CodecError::BadName)?
        .to_string();
    let icache = decode_cache(&mut r)?;
    let dcache = decode_cache(&mut r)?;
    if r.pos != r.bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(BenchmarkProfile { name, icache, dcache })
}

fn encode_cache(out: &mut Vec<u8>, cache: &CacheProfile) {
    put_u32(out, cache.num_frames);
    put_u64(out, cache.total_cycles);
    put_u64(out, cache.prefetch.next_line_triggers);
    put_u64(out, cache.prefetch.stride_triggers);
    put_u64(out, cache.cache.accesses);
    put_u64(out, cache.cache.hits);
    put_u64(out, cache.cache.misses);
    put_u64(out, cache.cache.evictions);
    put_u64(out, cache.cache.writebacks);
    encode_dist(out, &cache.dist);
}

fn decode_cache(r: &mut Reader<'_>) -> Result<CacheProfile, CodecError> {
    let num_frames = r.u32()?;
    let total_cycles = r.u64()?;
    let prefetch = PrefetchStats {
        next_line_triggers: r.u64()?,
        stride_triggers: r.u64()?,
    };
    let cache = CacheStats {
        accesses: r.u64()?,
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
        writebacks: r.u64()?,
    };
    let dist = decode_dist(r)?;
    Ok(CacheProfile {
        dist,
        num_frames,
        total_cycles,
        prefetch,
        cache,
    })
}

/// Writes the table's classes in canonical `(length, kind, wake,
/// dirty)` order by merging its length-sorted category runs. The runs
/// come in [`ClassCategory::code`] order, which the wire tags spell out
/// digit by digit (see [`category_tags`]), so the first run holding the
/// shortest head length holds the next class.
fn encode_dist(out: &mut Vec<u8>, table: &IntervalTable) {
    put_u64(out, table.num_classes() as u64);
    let runs: Vec<_> = table.categories().collect();
    let mut heads = vec![0; runs.len()];
    loop {
        let mut next: Option<(usize, u64)> = None;
        for (r, run) in runs.iter().enumerate() {
            if let Some(&length) = run.lengths().get(heads[r]) {
                if next.is_none_or(|(_, shortest)| length < shortest) {
                    next = Some((r, length));
                }
            }
        }
        let Some((r, length)) = next else { break };
        put_u64(out, length);
        out.extend_from_slice(&category_tags(runs[r].category()));
        put_u64(out, runs[r].count(heads[r]));
        heads[r] += 1;
    }
}

fn decode_dist(r: &mut Reader<'_>) -> Result<IntervalTable, CodecError> {
    let num_classes = r.u64()?;
    let mut table = TableBuilder::new();
    let mut last: Option<(u64, usize)> = None;
    for _ in 0..num_classes {
        let length = r.u64()?;
        let category = category_from_tags([r.u8()?, r.u8()?, r.u8()?])?;
        let count = r.u64()?;
        // The builder only sees the order within a category; the file
        // order across categories is checked here.
        let key = (length, category.code());
        if last.is_some_and(|last| last >= key) {
            return Err(CodecError::BadTable(TableError::NotCanonical));
        }
        last = Some(key);
        table
            .push(category.class(length), count)
            .map_err(CodecError::BadTable)?;
    }
    table.finish().map_err(CodecError::BadTable)
}

/// The wire tags `(kind, wake, dirty)` of a category: the digits of its
/// [`ClassCategory::code`] (`kind * 8 + wake * 2 + dirty`), so the file
/// order and the table order are one order.
fn category_tags(category: ClassCategory) -> [u8; 3] {
    let code = category.code() as u8;
    [code / 8, code % 8 / 2, code % 2]
}

fn category_from_tags([kind, wake, dirty]: [u8; 3]) -> Result<ClassCategory, CodecError> {
    for (tag, limit) in [(kind, 5), (wake, 4), (dirty, 2)] {
        if tag >= limit {
            return Err(CodecError::BadTag(tag));
        }
    }
    let code = usize::from(kind) * 8 + usize::from(wake) * 2 + usize::from(dirty);
    Ok(ClassCategory::from_code(code))
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};

    fn sample_profile() -> BenchmarkProfile {
        let mut dist = CompactIntervalDist::new();
        dist.add(
            IntervalClass {
                length: 100,
                kind: IntervalKind::Interior { reaccess: true },
                wake: WakeHints { next_line: true, stride: false },
                dirty: false,
            },
            7,
        );
        dist.add(
            IntervalClass {
                length: 5,
                kind: IntervalKind::Leading,
                wake: WakeHints::NONE,
                dirty: true,
            },
            3,
        );
        let cache = CacheProfile {
            dist: dist.freeze(),
            num_frames: 1024,
            total_cycles: 200_000,
            prefetch: PrefetchStats { next_line_triggers: 11, stride_triggers: 2 },
            cache: CacheStats {
                accesses: 50,
                hits: 40,
                misses: 10,
                evictions: 4,
                writebacks: 1,
            },
        };
        BenchmarkProfile {
            name: "gzip".to_string(),
            icache: cache.clone(),
            dcache: cache,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let profile = sample_profile();
        let bytes = encode_profile(&profile);
        let back = decode_profile(&bytes).unwrap();
        assert_eq!(back.name, profile.name);
        assert_eq!(back.icache.dist, profile.icache.dist);
        assert_eq!(back.icache.cache, profile.icache.cache);
        assert_eq!(back.dcache.num_frames, profile.dcache.num_frames);
        assert_eq!(back.dcache.total_cycles, profile.dcache.total_cycles);
        // Re-encoding the decoded profile reproduces the bytes exactly.
        assert_eq!(encode_profile(&back), bytes);
    }

    #[test]
    fn encoding_is_insertion_order_independent() {
        let profile = sample_profile();
        let mut reordered = profile.clone();
        // Rebuild the icache table inserting classes in reverse order.
        let mut classes: Vec<_> = profile.icache.dist.iter().collect();
        classes.reverse();
        let mut dist = CompactIntervalDist::new();
        for (class, count) in classes {
            dist.add(class, count);
        }
        reordered.icache.dist = dist.freeze();
        assert_eq!(encode_profile(&profile), encode_profile(&reordered));
    }

    /// Encodes an icache holding one interval each of `classes`, sets
    /// the length of the record of `(length, kind)` to `new_length`
    /// under a fresh footer, and returns the decoder's error, if any.
    fn decode_rewritten(
        classes: [(u64, IntervalKind); 2],
        (length, kind): (u64, IntervalKind),
        new_length: u64,
    ) -> Option<CodecError> {
        let class = |length, kind| IntervalClass {
            length,
            kind,
            wake: WakeHints::NONE,
            dirty: false,
        };
        let mut profile = sample_profile();
        let mut dist = CompactIntervalDist::new();
        for (length, kind) in classes {
            dist.add(class(length, kind), 1);
        }
        profile.icache.dist = dist.freeze();
        let mut bytes = encode_profile(&profile);
        bytes.truncate(bytes.len() - FOOTER_BYTES);
        // Each class record is 19 bytes, led by its u64 length.
        let tags = category_tags(ClassCategory::from(&class(length, kind)));
        let needle = [length.to_le_bytes().as_slice(), &tags, &1u64.to_le_bytes()].concat();
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("class record");
        bytes[at..at + 8].copy_from_slice(&new_length.to_le_bytes());
        let digest = fnv1a(&bytes);
        put_u64(&mut bytes, digest);
        decode_profile(&bytes).err()
    }

    /// Classes repeated, out of order within a category, or out of the
    /// `(length, category)` order across categories are all refused.
    #[test]
    fn out_of_order_classes_are_rejected() {
        use IntervalKind::{Leading, Trailing};
        let refused = Some(CodecError::BadTable(TableError::NotCanonical));
        let same = [(10, Trailing), (20, Trailing)];
        assert_eq!(decode_rewritten(same, (10, Trailing), 10), None);
        assert_eq!(decode_rewritten(same, (10, Trailing), 20), refused);
        assert_eq!(decode_rewritten(same, (10, Trailing), 30), refused);
        // (10, Trailing) then (5, Leading): each category is sorted on
        // its own, the file order is not.
        let across = [(10, Trailing), (20, Leading)];
        assert_eq!(decode_rewritten(across, (20, Leading), 5), refused);
        // A length tie orders by category: Leading sorts before Trailing.
        assert_eq!(decode_rewritten(across, (20, Leading), 10), refused);
        assert_eq!(decode_rewritten(across, (20, Leading), 11), None);
    }

    #[test]
    fn rejects_malformed_input() {
        let bytes = encode_profile(&sample_profile());
        assert_eq!(decode_profile(&bytes[..3]).unwrap_err(), CodecError::Truncated);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_profile(&bad_magic).unwrap_err(), CodecError::BadMagic);
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            decode_profile(&bad_version).unwrap_err(),
            CodecError::VersionMismatch { .. }
        ));
        // Appending or dropping a byte desynchronizes the footer, so
        // both surface as integrity failures before any parsing.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_profile(&trailing).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
        assert!(matches!(
            decode_profile(&bytes[..bytes.len() - 1]).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
    }

    /// The crash-safety core: any single flipped bit, and any
    /// truncation long enough to pass the header, is caught by the
    /// footer — never parsed into a plausible profile.
    #[test]
    fn every_flip_and_truncation_is_caught() {
        let bytes = encode_profile(&sample_profile());
        for position in 8..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[position] ^= 0x40;
            assert!(
                matches!(
                    decode_profile(&flipped),
                    Err(CodecError::ChecksumMismatch { .. })
                ),
                "flip at byte {position} must fail the checksum"
            );
        }
        for keep in 8..bytes.len() {
            assert!(
                decode_profile(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes must not decode"
            );
        }
    }

    #[test]
    fn footer_is_fnv1a_of_the_body() {
        let bytes = encode_profile(&sample_profile());
        let (body, footer) = bytes.split_at(bytes.len() - 8);
        let mut expected = [0u8; 8];
        expected.copy_from_slice(footer);
        assert_eq!(u64::from_le_bytes(expected), fnv1a(body));
    }
}
