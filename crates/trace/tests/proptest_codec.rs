//! Property tests for the trace codec: full-range round-trips and
//! truncation/corruption fuzz, through both entry points.
//!
//! These are the tests that would have caught both historical codec
//! bugs — the writer's overflowing delta subtraction (addresses more
//! than `i64::MAX` apart) and the reader's silent bit-dropping on
//! 10-byte varints. Addresses are drawn from the *whole* `u64` domain,
//! not plausible heap ranges.
//!
//! `RecordedWorkload::from_reader` and `MmapTrace::open` share one
//! parser, so every property also asserts that they accept and reject
//! exactly the same inputs, with the same error, and yield identical
//! records and footprints.

use hpage_trace::{Hpt2Writer, MmapTrace, RecordedWorkload, Workload};
use hpage_types::{MemoryAccess, Region, VirtAddr};
use proptest::prelude::*;
use std::io;

fn to_accesses(raw: &[(u64, bool)]) -> Vec<MemoryAccess> {
    raw.iter()
        .map(|&(addr, is_write)| {
            if is_write {
                MemoryAccess::write(VirtAddr::new(addr))
            } else {
                MemoryAccess::read(VirtAddr::new(addr))
            }
        })
        .collect()
}

fn encode(accesses: &[MemoryAccess], block_records: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Hpt2Writer::with_block_records(&mut buf, block_records).unwrap();
    w.write_all(accesses.iter().copied()).unwrap();
    w.finish().unwrap();
    buf
}

/// One entry point's view of a trace image: its records and footprint,
/// or its error's kind and message.
type Outcome = Result<(Vec<MemoryAccess>, Vec<Region>), (io::ErrorKind, String)>;

fn via_reader(bytes: &[u8]) -> Outcome {
    RecordedWorkload::from_reader("prop", bytes)
        .map(|w| (w.accesses().to_vec(), w.regions()))
        .map_err(|e| (e.kind(), e.to_string()))
}

fn via_mmap(tag: &str, case: u64, bytes: &[u8]) -> Outcome {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "hpage-proptest-{tag}-{}-{case}.hpt2",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let outcome = MmapTrace::open("prop", &path)
        .map(|m| (m.trace().collect(), m.regions()))
        .map_err(|e| (e.kind(), e.to_string()));
    std::fs::remove_file(&path).unwrap();
    outcome
}

/// Decodes `bytes` through both entry points and asserts they agree.
fn decode_both(tag: &str, case: u64, bytes: &[u8]) -> Outcome {
    let in_mem = via_reader(bytes);
    let mapped = via_mmap(tag, case, bytes);
    assert_eq!(in_mem, mapped, "from_reader and MmapTrace::open disagree");
    in_mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn hpt2_roundtrips_full_range_addresses(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 0..400),
        block_records in 1u32..70,
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let bytes = encode(&accesses, block_records);
        let (records, regions) = decode_both("roundtrip", case, &bytes).unwrap();
        prop_assert_eq!(records, &accesses[..]);
        // The footprint must match the one derived from the records.
        let in_mem = RecordedWorkload::new("prop", accesses);
        prop_assert_eq!(regions, in_mem.regions());
    }

    fn hpt2_truncation_is_detected(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
        block_records in 1u32..33,
        cut_sel in any::<u64>(),
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let bytes = encode(&accesses, block_records);
        let cut = (cut_sel % bytes.len() as u64) as usize;
        // The trailer cannot validate, so both entry points refuse.
        let outcome = decode_both("trunc", case, &bytes[..cut]);
        prop_assert!(outcome.is_err(), "cut at {} of {} read cleanly", cut, bytes.len());
    }

    fn hpt2_corruption_is_detected(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
        block_records in 1u32..33,
        at_sel in any::<u64>(),
        bit in 0u32..8,
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let mut bytes = encode(&accesses, block_records);
        let at = (at_sel % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;

        // A flipped bit must never decode to *different* records: both
        // entry points either refuse the trace or (for flips in
        // don't-care positions, e.g. growing the declared max block
        // size) yield the exact original trace.
        if let Ok((records, _)) = decode_both("corrupt", case, &bytes) {
            prop_assert_eq!(records, &accesses[..]);
        }
    }

    fn hpt2_trailing_bytes_are_refused(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 0..100),
        block_records in 1u32..33,
        suffix in prop::collection::vec(any::<u8>(), 1..24),
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let mut bytes = encode(&accesses, block_records);
        bytes.extend_from_slice(&suffix);
        let outcome = decode_both("suffix", case, &bytes);
        prop_assert!(outcome.is_err(), "{} trailing bytes read cleanly", suffix.len());
    }

    fn arbitrary_bytes_after_the_magic_never_panic(
        block_records in 1u32..70,
        body in prop::collection::vec(any::<u8>(), 0..200),
        case in any::<u64>(),
    ) {
        let mut bytes = b"HPT2".to_vec();
        bytes.extend_from_slice(&block_records.to_le_bytes());
        bytes.extend_from_slice(&body);
        // Whatever the parser decides, it decides it once for both
        // entry points, and any footprint it accepts is the records'.
        if let Ok((records, regions)) = decode_both("noise", case, &bytes) {
            prop_assert_eq!(regions, RecordedWorkload::new("prop", records).regions());
        }
    }

    fn hpt1_magic_is_refused_whatever_follows(
        body in prop::collection::vec(any::<u8>(), 0..64),
        case in any::<u64>(),
    ) {
        let mut bytes = b"HPT1".to_vec();
        bytes.extend_from_slice(&body);
        let (kind, msg) = decode_both("hpt1", case, &bytes).unwrap_err();
        prop_assert_eq!(kind, io::ErrorKind::InvalidData);
        prop_assert!(msg.contains("HPT1 trace files are no longer supported"), "{}", msg);
    }
}
