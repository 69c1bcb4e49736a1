//! `HPT2`: the trace container — blocked, seekable and
//! integrity-checked — and its mmap-backed zero-copy replay path.
//!
//! Each record is a header byte plus a zigzag varint of the address
//! delta from the previous record. A single delta chain could not be
//! decoded from the middle, so `HPT2` cuts it into blocks:
//!
//! ```text
//! "HPT2"  u32 block_records                  // file header
//! repeat block {
//!     u32 payload_bytes   (> 0)
//!     u32 n_records       (1..=block_records)
//!     u64 fnv1a64(payload)
//!     payload: n_records × { header byte; zigzag varint addr delta }
//!              // delta chain restarts at 0 each block, so the first
//!              // record's delta IS its absolute address — the
//!              // restart point that makes blocks self-contained
//! }
//! u32 0  u32 0                               // terminator
//! u64 total_records                          // trailer
//! varint region_count
//! region_count × varint                      // touched 2MiB region
//!                                            // indices, delta-encoded
//! u64 fnv1a64(trailer bytes above)
//! "2TPH"                                     // end magic
//! ```
//!
//! All fixed-width integers are little-endian. The trailer's region
//! list is the trace's touched-2MiB-page set in ascending order; it
//! lets a replayer announce the workload footprint without a decode
//! pass, and the parser cross-checks it against the records so a
//! corrupted trailer cannot smuggle a wrong footprint past the
//! checksums.
//!
//! One parser, `validate`, checks everything — checksums, strict
//! per-block decode, trailer totals — for both entry points:
//! [`MmapTrace::open`] runs it over the file mapping, after which its
//! replay streams decode block-by-block with no error paths in the hot
//! loop and windows borrowed straight from the decode buffer;
//! [`RecordedWorkload::from_reader`] runs it over the bytes it read and
//! keeps the decoded records.
//!
//! [`RecordedWorkload::from_reader`]: crate::RecordedWorkload::from_reader

use crate::hugebuf::HugeVec;
use crate::mmap::{Advice, Mmap};
use crate::recorded::coalesce_sorted_indices;
use crate::workload::{StreamIter, TraceStream, Workload};
use hpage_types::{AccessKind, MemoryAccess, PageSize, Region, VirtAddr};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// File magic of the blocked format.
const HPT2_MAGIC: &[u8; 4] = b"HPT2";
/// Magic of the retired flat format, recognised only to reject it with
/// a message that says what to do.
const HPT1_MAGIC: &[u8; 4] = b"HPT1";
/// End-of-file magic (the header magic reversed).
const END_MAGIC: &[u8; 4] = b"2TPH";

/// Default records per block: long enough to amortise block headers to
/// ~0.001 bytes/record, short enough that a seek touches at most a few
/// hundred KiB of payload.
pub const DEFAULT_BLOCK_RECORDS: u32 = 1 << 14;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<Option<u64>> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && first => return Ok(None),
            Err(e) => return Err(e),
        }
        first = false;
        if shift >= 64 {
            return Err(invalid("varint overflows u64"));
        }
        // The 10th byte (shift == 63) has room for exactly one payload
        // bit. A continuation bit, or any of payload bits 1..7 set,
        // encodes a value outside u64 — reject it instead of silently
        // shifting those bits into oblivion and decoding a wrong
        // address.
        if shift == 63 && byte[0] > 0x01 {
            return Err(invalid("varint overflows u64"));
        }
        v |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Tracks the set of touched 2 MiB regions with a last-hit cache, so
/// the common run-of-accesses-to-one-region case costs one compare.
#[derive(Debug, Default)]
struct RegionTracker {
    last: Option<u64>,
    set: BTreeSet<u64>,
}

impl RegionTracker {
    fn observe(&mut self, addr: VirtAddr) {
        let idx = addr.vpn(PageSize::Huge2M).index();
        if self.last == Some(idx) {
            return;
        }
        self.last = Some(idx);
        self.set.insert(idx);
    }

    fn into_sorted(self) -> Vec<u64> {
        self.set.into_iter().collect()
    }
}

/// Streams accesses into `writer` in `HPT2` format.
#[derive(Debug)]
pub struct Hpt2Writer<W: Write> {
    writer: W,
    block_records: u32,
    /// Encoded payload of the block under construction.
    block: Vec<u8>,
    block_n: u32,
    prev_addr: u64,
    records: u64,
    regions: RegionTracker,
}

impl<W: Write> Hpt2Writer<W> {
    /// Creates a writer with the default block size and emits the file
    /// header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(writer: W) -> io::Result<Self> {
        Hpt2Writer::with_block_records(writer, DEFAULT_BLOCK_RECORDS)
    }

    /// Creates a writer with `block_records` records per block.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if `block_records` is 0.
    pub fn with_block_records(mut writer: W, block_records: u32) -> io::Result<Self> {
        assert!(block_records > 0, "HPT2 block_records must be positive");
        writer.write_all(HPT2_MAGIC)?;
        writer.write_all(&block_records.to_le_bytes())?;
        Ok(Hpt2Writer {
            writer,
            block_records,
            block: Vec::new(),
            block_n: 0,
            prev_addr: 0,
            records: 0,
            regions: RegionTracker::default(),
        })
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, access: &MemoryAccess) -> io::Result<()> {
        let header = u8::from(access.kind == AccessKind::Write);
        self.block.push(header);
        // Wrapping subtraction in u64, then reinterpret: the parser
        // undoes it with `wrapping_add` in the same ring, so round-trip
        // is exact for every address pair — including ones more than
        // i64::MAX apart, where a checked `as i64` subtraction
        // overflows (debug-build panic).
        let delta = access.addr.raw().wrapping_sub(self.prev_addr) as i64;
        write_varint(&mut self.block, zigzag(delta));
        self.prev_addr = access.addr.raw();
        self.regions.observe(access.addr);
        self.block_n += 1;
        self.records += 1;
        if self.block_n == self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends every access of an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all<I: IntoIterator<Item = MemoryAccess>>(&mut self, trace: I) -> io::Result<()> {
        for a in trace {
            self.write(&a)?;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_n == 0 {
            return Ok(());
        }
        let len = u32::try_from(self.block.len()).map_err(|_| invalid("HPT2 block too large"))?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&self.block_n.to_le_bytes())?;
        self.writer.write_all(&fnv1a64(&self.block).to_le_bytes())?;
        self.writer.write_all(&self.block)?;
        self.block.clear();
        self.block_n = 0;
        // Restart point: the next block's delta chain starts from 0, so
        // its first record encodes an absolute address.
        self.prev_addr = 0;
        Ok(())
    }

    /// Flushes the final block, writes the terminator and trailer, and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_block()?;
        self.writer.write_all(&0u32.to_le_bytes())?;
        self.writer.write_all(&0u32.to_le_bytes())?;
        let mut trailer = Vec::new();
        trailer.extend_from_slice(&self.records.to_le_bytes());
        let indices = std::mem::take(&mut self.regions).into_sorted();
        write_varint(&mut trailer, indices.len() as u64);
        let mut prev = 0u64;
        for (i, &idx) in indices.iter().enumerate() {
            let delta = if i == 0 { idx } else { idx - prev };
            write_varint(&mut trailer, delta);
            prev = idx;
        }
        self.writer.write_all(&trailer)?;
        self.writer.write_all(&fnv1a64(&trailer).to_le_bytes())?;
        self.writer.write_all(END_MAGIC)?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Strictly decodes one block payload, passing each record to `emit`
/// and observing regions. Errors if the payload and record count
/// disagree in any way (short payload, trailing bytes, non-canonical
/// varint).
fn decode_block_strict(
    payload: &[u8],
    n_records: u32,
    regions: &mut RegionTracker,
    mut emit: impl FnMut(MemoryAccess),
) -> io::Result<()> {
    let mut slice = payload;
    let mut prev_addr = 0u64;
    for _ in 0..n_records {
        let mut header = [0u8; 1];
        slice
            .read_exact(&mut header)
            .map_err(|_| invalid("HPT2 block shorter than its record count"))?;
        if header[0] & !1 != 0 {
            return Err(invalid("HPT2 record header has reserved bits set"));
        }
        let delta = match read_varint(&mut slice)? {
            Some(v) => unzigzag(v),
            None => return Err(invalid("HPT2 block shorter than its record count")),
        };
        let addr = (prev_addr as i64).wrapping_add(delta) as u64;
        prev_addr = addr;
        let access = if header[0] & 1 == 1 {
            MemoryAccess::write(VirtAddr::new(addr))
        } else {
            MemoryAccess::read(VirtAddr::new(addr))
        };
        regions.observe(access.addr);
        emit(access);
    }
    if !slice.is_empty() {
        return Err(invalid("HPT2 block has bytes after its last record"));
    }
    Ok(())
}

/// Fast-path decode of an already-validated block payload (no error
/// paths: [`MmapTrace::open`] proved the payload well-formed).
fn decode_block_trusted(payload: &[u8], n_records: u32, out: &mut HugeVec<MemoryAccess>) {
    out.clear();
    let mut pos = 0usize;
    let mut prev_addr = 0u64;
    for _ in 0..n_records {
        let header = payload[pos];
        pos += 1;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = payload[pos];
            pos += 1;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let addr = (prev_addr as i64).wrapping_add(unzigzag(v)) as u64;
        prev_addr = addr;
        out.push(if header & 1 == 1 {
            MemoryAccess::write(VirtAddr::new(addr))
        } else {
            MemoryAccess::read(VirtAddr::new(addr))
        });
    }
    debug_assert_eq!(pos, payload.len(), "validated block decoded short");
}

/// Offsets of one validated block inside the trace bytes.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    payload_start: usize,
    payload_len: u32,
    n_records: u32,
}

/// What [`validate`] proved about a trace image.
pub(crate) struct Validated {
    blocks: Vec<BlockMeta>,
    total_records: u64,
    /// The touched 2 MiB regions, coalesced into contiguous ranges.
    pub(crate) regions: Vec<Region>,
}

/// The `HPT2` parser: validates a complete trace image and returns its
/// block layout. With `records`, the decoded accesses are appended to
/// it; without, each record is decoded, checked and dropped.
///
/// # Errors
///
/// Any structural problem — bad or retired (`HPT1`) magic, checksum
/// mismatch, block counts disagreeing with payloads, truncation,
/// trailing bytes, trailer totals or regions disagreeing with the
/// records, a record in the top 2 MiB of the address space — is
/// `InvalidData`/`UnexpectedEof`.
pub(crate) fn validate(
    bytes: &[u8],
    mut records: Option<&mut HugeVec<MemoryAccess>>,
) -> io::Result<Validated> {
    if bytes.starts_with(HPT1_MAGIC) {
        return Err(invalid(
            "HPT1 trace files are no longer supported; \
             re-record the trace with `hpsim --trace-out` (writes HPT2)",
        ));
    }
    if bytes.len() < 8 || &bytes[..4] != HPT2_MAGIC {
        return Err(invalid("not an HPT2 trace file"));
    }
    let block_records = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if block_records == 0 {
        return Err(invalid("HPT2 header has zero block size"));
    }

    let truncated = || io::Error::new(io::ErrorKind::UnexpectedEof, "truncated HPT2 trace");
    let mut pos = 8usize;
    let mut blocks = Vec::new();
    let mut total = 0u64;
    let mut regions = RegionTracker::default();
    loop {
        let header = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
        let payload_len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let n_records = u32::from_le_bytes(header[4..].try_into().unwrap());
        pos += 8;
        if payload_len == 0 && n_records == 0 {
            break;
        }
        if payload_len == 0 || n_records == 0 || n_records > block_records {
            return Err(invalid("HPT2 block header out of range"));
        }
        let checksum_bytes = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
        let checksum = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
        pos += 8;
        let payload = bytes
            .get(pos..pos + payload_len as usize)
            .ok_or_else(truncated)?;
        if fnv1a64(payload) != checksum {
            return Err(invalid("HPT2 block checksum mismatch"));
        }
        match records.as_deref_mut() {
            Some(out) => decode_block_strict(payload, n_records, &mut regions, |a| out.push(a))?,
            None => decode_block_strict(payload, n_records, &mut regions, |_| {})?,
        }
        blocks.push(BlockMeta {
            payload_start: pos,
            payload_len,
            n_records,
        });
        total += u64::from(n_records);
        pos += payload_len as usize;
    }

    // Trailer.
    let trailer_start = pos;
    let total_bytes = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
    let stored_total = u64::from_le_bytes(total_bytes.try_into().unwrap());
    pos += 8;
    let mut cursor = &bytes[pos.min(bytes.len())..];
    let before = cursor.len();
    let count = read_varint(&mut cursor)?.ok_or_else(truncated)?;
    let mut indices = Vec::new();
    let mut prev = 0u64;
    for i in 0..count {
        let delta = read_varint(&mut cursor)?.ok_or_else(truncated)?;
        if i > 0 && delta == 0 {
            return Err(invalid("HPT2 trailer regions not strictly increasing"));
        }
        prev = prev
            .checked_add(delta)
            .ok_or_else(|| invalid("HPT2 trailer region index overflow"))?;
        indices.push(prev);
    }
    pos += before - cursor.len();
    let trailer_payload = &bytes[trailer_start..pos];
    let checksum_bytes = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
    let checksum = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
    pos += 8;
    if fnv1a64(trailer_payload) != checksum {
        return Err(invalid("HPT2 trailer checksum mismatch"));
    }
    let end = bytes.get(pos..pos + 4).ok_or_else(truncated)?;
    if end != END_MAGIC {
        return Err(invalid("HPT2 end magic mismatch"));
    }
    pos += 4;
    if pos != bytes.len() {
        return Err(invalid("HPT2 trace has trailing bytes"));
    }
    if stored_total != total {
        return Err(invalid("HPT2 trailer record count mismatch"));
    }
    let observed = regions.into_sorted();
    if observed != indices {
        return Err(invalid("HPT2 trailer region set disagrees with records"));
    }
    // A half-open `Region` ending at 2^64 is not representable.
    if observed.last() == Some(&(u64::MAX >> PageSize::Huge2M.shift())) {
        return Err(invalid(
            "HPT2 trace touches the top 2 MiB of the address space",
        ));
    }
    Ok(Validated {
        blocks,
        total_records: total,
        regions: coalesce_sorted_indices(&observed),
    })
}

/// An `HPT2` trace replayed straight out of a memory-mapped file.
///
/// [`open`](Self::open) performs one full validation pass (checksums,
/// strict decode, trailer cross-checks), after which replay streams
/// decode block-by-block from the mapping with no error handling in the
/// hot path. Memory held is one mapping (paged in lazily by the kernel)
/// plus one decoded block per stream — a multi-gigabyte trace replays
/// without a load phase or a decoded in-memory copy.
#[derive(Debug)]
pub struct MmapTrace {
    name: String,
    map: Mmap,
    blocks: Vec<BlockMeta>,
    total_records: u64,
    regions: Vec<Region>,
}

impl MmapTrace {
    /// Maps and fully validates the `HPT2` trace at `path`.
    ///
    /// # Errors
    ///
    /// Any structural problem — bad magic, checksum mismatch, block
    /// counts disagreeing with payloads, truncation, trailing bytes,
    /// trailer totals or regions disagreeing with the records — is
    /// `InvalidData`/`UnexpectedEof`; OS errors pass through.
    pub fn open(name: impl Into<String>, path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let map = Mmap::map_file(&file)?;
        map.advise(Advice::Sequential);
        map.advise(Advice::WillNeed);
        let Validated {
            blocks,
            total_records,
            regions,
        } = validate(map.as_slice(), None)?;
        Ok(MmapTrace {
            name: name.into(),
            map,
            blocks,
            total_records,
            regions,
        })
    }

    /// Number of recorded accesses.
    pub fn records(&self) -> u64 {
        self.total_records
    }

    /// Number of on-disk blocks (each independently decodable from its
    /// restart point).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn payload(&self, block: usize) -> &[u8] {
        let meta = self.blocks[block];
        &self.map.as_slice()[meta.payload_start..meta.payload_start + meta.payload_len as usize]
    }

    fn stream_for(&self, thread: u32, threads: u32) -> Hpt2Stream<'_> {
        assert!(thread < threads, "bad thread index");
        Hpt2Stream {
            trace: self,
            next_block: 0,
            buf: HugeVec::new(),
            pos: 0,
            stride: threads as usize,
            phase_skip: thread as usize,
            gather: Vec::new(),
            win: Win::Buf { start: 0, len: 0 },
        }
    }
}

impl Workload for MmapTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    fn thread_trace(
        &self,
        thread: u32,
        threads: u32,
    ) -> Box<dyn Iterator<Item = MemoryAccess> + Send + '_> {
        // Same round-robin record partition as RecordedWorkload.
        Box::new(StreamIter::new(self.stream_for(thread, threads)))
    }

    fn thread_stream(&self, thread: u32, threads: u32) -> Box<dyn TraceStream + Send + '_> {
        Box::new(self.stream_for(thread, threads))
    }
}

/// Where the current window lives.
#[derive(Debug, Clone, Copy)]
enum Win {
    /// Subslice of the decoded block buffer (single-threaded fast path).
    Buf { start: usize, len: usize },
    /// The gather buffer (block-boundary or strided windows).
    Gather,
}

/// Replay stream over an [`MmapTrace`].
///
/// Single-threaded replay hands out windows that are direct subslices
/// of the decoded block buffer; only windows straddling a block
/// boundary (1 in `block_records / window` calls) are gathered.
/// Strided replay (multi-core partitions) always gathers its every
/// `stride`-th records.
pub struct Hpt2Stream<'a> {
    trace: &'a MmapTrace,
    next_block: usize,
    /// Decoded records of the current block.
    buf: HugeVec<MemoryAccess>,
    /// Consumed prefix of `buf`.
    pos: usize,
    stride: usize,
    /// Records still to skip before the next strided pick.
    phase_skip: usize,
    gather: Vec<MemoryAccess>,
    win: Win,
}

impl Hpt2Stream<'_> {
    /// Decodes the next block into `buf`; false when none remain.
    fn advance_block(&mut self) -> bool {
        let Some(&meta) = self.trace.blocks.get(self.next_block) else {
            self.buf.clear();
            self.pos = 0;
            return false;
        };
        decode_block_trusted(
            self.trace.payload(self.next_block),
            meta.n_records,
            &mut self.buf,
        );
        self.next_block += 1;
        self.pos = 0;
        true
    }
}

impl TraceStream for Hpt2Stream<'_> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        if self.stride == 1 {
            if self.pos + max <= self.buf.len() {
                let start = self.pos;
                self.pos += max;
                self.win = Win::Buf { start, len: max };
                return &self.buf[start..start + max];
            }
            // Block boundary: gather the tail, then heads of following
            // blocks until the window is full or the trace ends.
            self.gather.clear();
            self.gather.extend_from_slice(&self.buf[self.pos..]);
            self.pos = self.buf.len();
            while self.gather.len() < max {
                if !self.advance_block() {
                    break;
                }
                let take = (max - self.gather.len()).min(self.buf.len());
                self.gather.extend_from_slice(&self.buf[..take]);
                self.pos = take;
            }
            self.win = Win::Gather;
            return &self.gather;
        }
        // Strided partition: pick every stride-th record.
        self.gather.clear();
        while self.gather.len() < max {
            let avail = self.buf.len() - self.pos;
            if self.phase_skip >= avail {
                self.phase_skip -= avail;
                if !self.advance_block() {
                    break;
                }
                continue;
            }
            self.pos += self.phase_skip;
            self.gather.push(self.buf[self.pos]);
            self.pos += 1;
            self.phase_skip = self.stride - 1;
        }
        self.win = Win::Gather;
        &self.gather
    }

    fn window(&self) -> &[MemoryAccess] {
        match self.win {
            Win::Buf { start, len } => &self.buf[start..start + len],
            Win::Gather => &self.gather,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorded::RecordedWorkload;
    use crate::synth::{SynthScale, SyntheticWorkload};

    fn acc(addr: u64) -> MemoryAccess {
        MemoryAccess::read(VirtAddr::new(addr))
    }

    fn sample_trace(n: u64) -> Vec<MemoryAccess> {
        (0..n)
            .map(|i| {
                let addr = 0x4000_0000 + (i.wrapping_mul(0x9E37_79B9) % 0x200_0000);
                if i % 3 == 0 {
                    MemoryAccess::write(VirtAddr::new(addr))
                } else {
                    acc(addr)
                }
            })
            .collect()
    }

    fn encode(accesses: &[MemoryAccess], block_records: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Hpt2Writer::with_block_records(&mut buf, block_records).unwrap();
        w.write_all(accesses.iter().copied()).unwrap();
        assert_eq!(w.records(), accesses.len() as u64);
        w.finish().unwrap();
        buf
    }

    fn decode(bytes: &[u8]) -> io::Result<Vec<MemoryAccess>> {
        RecordedWorkload::from_reader("t", bytes).map(|w| w.accesses().to_vec())
    }

    fn temp_trace(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hpage-hpt2-test-{}-{name}", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        p
    }

    /// Asserts that both entry points refuse `bytes` with the same
    /// error, and returns it.
    fn refused_by_both(name: &str, bytes: &[u8]) -> io::Error {
        let err = decode(bytes).unwrap_err();
        let path = temp_trace(name, bytes);
        let mapped = MmapTrace::open("t", &path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.kind(), mapped.kind());
        assert_eq!(err.to_string(), mapped.to_string());
        err
    }

    /// A trace image holding one block with `payload` and a correct
    /// checksum, then the terminator and no trailer: the parser gets
    /// past the block only if `payload` decodes to `n_records`.
    fn one_block(payload: &[u8], n_records: u32) -> Vec<u8> {
        let mut bytes = HPT2_MAGIC.to_vec();
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&n_records.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&[0u8; 8]);
        bytes
    }

    /// One encoded record: header byte, then the zigzag address delta.
    fn record(header: u8, delta: i64) -> Vec<u8> {
        let mut out = vec![header];
        write_varint(&mut out, zigzag(delta));
        out
    }

    #[test]
    fn empty_roundtrip() {
        let bytes = encode(&[], 8);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn multi_block_roundtrip() {
        let accesses = sample_trace(1000);
        // Block size 64 → 15 full blocks + a 40-record tail.
        let bytes = encode(&accesses, 64);
        assert_eq!(decode(&bytes).unwrap(), accesses);
    }

    #[test]
    fn extreme_addresses_roundtrip() {
        // Consecutive addresses more than i64::MAX apart used to
        // overflow the writer's checked `i64` subtraction; wrapping
        // arithmetic makes every pair round-trip, within a block (64)
        // and across restart points (1, 2).
        let top_region = u64::MAX - (PageSize::Huge2M.bytes() - 1);
        let accesses = vec![
            acc(top_region - 1),
            acc(0),
            acc(i64::MAX as u64),
            MemoryAccess::write(VirtAddr::new(1u64 << 63)),
            acc(top_region - 2),
            acc(i64::MAX as u64),
            MemoryAccess::write(VirtAddr::new(top_region - 1)),
            acc(0),
            MemoryAccess::write(VirtAddr::new(1u64 << 63)),
            acc((1u64 << 63) - 1),
        ];
        for block_records in [1, 2, 64] {
            let bytes = encode(&accesses, block_records);
            assert_eq!(decode(&bytes).unwrap(), accesses, "{block_records}");
        }
    }

    #[test]
    fn top_region_address_is_refused() {
        // The top 2 MiB region's end (2^64) does not fit a `Region`:
        // refused as data, not a panic.
        let bytes = encode(&[acc(0), acc(u64::MAX)], 64);
        let err = refused_by_both("top", &bytes);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("top 2 MiB"), "{err}");
    }

    #[test]
    fn mixed_roundtrip() {
        let accesses = vec![
            acc(0x1000),
            MemoryAccess::write(VirtAddr::new(0x0FFF)), // negative delta
            acc(u64::MAX / 2),
            MemoryAccess::write(VirtAddr::new(0)),
        ];
        let bytes = encode(&accesses, DEFAULT_BLOCK_RECORDS);
        assert_eq!(decode(&bytes).unwrap(), accesses);
    }

    #[test]
    fn workload_trace_roundtrip_and_compression() {
        let w: SyntheticWorkload = crate::synth::dedup(SynthScale::TEST, 3);
        let accesses: Vec<MemoryAccess> = w.trace().take(50_000).collect();
        let bytes = encode(&accesses, DEFAULT_BLOCK_RECORDS);
        // Sequential-heavy traces compress far below 9 bytes/record,
        // block headers and trailer included.
        assert!(
            bytes.len() < accesses.len() * 4,
            "trace file {} bytes for {} records",
            bytes.len(),
            accesses.len()
        );
        assert_eq!(decode(&bytes).unwrap(), accesses);
    }

    #[test]
    fn retired_and_unknown_magic_rejected_by_both_entry_points() {
        // A flat HPT1 stream: magic, then header byte + varint delta.
        let hpt1 = b"HPT1\x00\x80\x20\x01\x02";
        for (bytes, needle) in [
            (&hpt1[..], "HPT1 trace files are no longer supported"),
            (&b"NOPE\x01\x00\x00\x00"[..], "not an HPT2 trace file"),
        ] {
            let err = decode(bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(needle), "{err}");
            let path = temp_trace("magic", bytes);
            let err = MmapTrace::open("t", &path).unwrap_err();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(needle), "{err}");
        }
        let err = decode(hpt1).unwrap_err().to_string();
        assert!(err.contains("re-record the trace with `hpsim --trace-out`"));
    }

    #[test]
    fn bad_magic_rejected() {
        for bytes in [&b""[..], b"HPT", b"HPT2\x40\x00", b"HPT3\x40\x00\x00\x00"] {
            let err = refused_by_both("bad-magic", bytes);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
            assert!(err.to_string().contains("not an HPT2 trace file"), "{err}");
        }
    }

    #[test]
    fn zero_block_size_header_is_rejected() {
        let mut bytes = encode(&sample_trace(10), 8);
        bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
        let err = refused_by_both("zero-block", &bytes);
        assert!(err.to_string().contains("zero block size"), "{err}");
    }

    #[test]
    fn truncated_record_is_an_error() {
        // A well-formed block gets past the block loop and stops at the
        // missing trailer.
        let first = record(0, 0xABCDEF);
        let err = refused_by_both("whole-record", &one_block(&first, 1));
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // The checksum matches the short payload, so only the strict
        // decode can catch a record cut before or inside its varint.
        let mut no_delta = first.clone();
        no_delta.push(1);
        let err = refused_by_both("no-delta", &one_block(&no_delta, 2));
        assert!(err.to_string().contains("shorter than its record"), "{err}");
        let mut cut_varint = first.clone();
        cut_varint.extend_from_slice(&[1, 0x80]);
        let err = refused_by_both("cut-varint", &one_block(&cut_varint, 2));
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = refused_by_both("missing", &one_block(&first, 2));
        assert!(err.to_string().contains("shorter than its record"), "{err}");
    }

    #[test]
    fn block_trailing_bytes_are_an_error() {
        let mut payload = record(1, 0x1000);
        payload.extend_from_slice(&record(0, -8));
        let err = refused_by_both("trailing", &one_block(&payload, 1));
        assert!(
            err.to_string().contains("bytes after its last record"),
            "{err}"
        );
    }

    #[test]
    fn reserved_header_bits_are_rejected() {
        for header in [0x02u8, 0x80, 0xFF] {
            let err = refused_by_both("reserved", &one_block(&record(header, 0x1000), 1));
            assert!(
                err.to_string().contains("reserved bits"),
                "{header:#x}: {err}"
            );
        }
    }

    #[test]
    fn mmap_trace_replays_identically() {
        let accesses = sample_trace(2000);
        let bytes = encode(&accesses, 128);
        let path = temp_trace("replay", &bytes);
        let m = MmapTrace::open("t", &path).unwrap();
        assert_eq!(m.records(), 2000);
        assert_eq!(m.block_count(), 2000 / 128 + 1);
        let replayed: Vec<MemoryAccess> = m.trace().collect();
        assert_eq!(replayed, accesses);
        // Footprint must byte-match the in-memory path.
        let in_mem = RecordedWorkload::new("t", accesses);
        assert_eq!(m.regions(), in_mem.regions());
        assert_eq!(m.footprint_bytes(), in_mem.footprint_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmap_stream_windows_match_thread_trace() {
        let accesses = sample_trace(700);
        let bytes = encode(&accesses, 64);
        let path = temp_trace("windows", &bytes);
        let m = MmapTrace::open("t", &path).unwrap();
        let in_mem = RecordedWorkload::new("t", accesses);
        for (thread, threads) in [(0, 1), (0, 2), (1, 2), (3, 4)] {
            let expect: Vec<MemoryAccess> = in_mem.thread_trace(thread, threads).collect();
            let mut s = m.thread_stream(thread, threads);
            let mut got = Vec::new();
            loop {
                // 48 < 64 forces windows that straddle block restarts.
                let win = s.next_window(48).to_vec();
                assert_eq!(win, s.window(), "window() must re-borrow");
                got.extend_from_slice(&win);
                if win.len() < 48 {
                    break;
                }
            }
            assert_eq!(got, expect, "thread {thread}/{threads}");
            assert!(s.next_window(48).is_empty());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let accesses = sample_trace(500);
        let mut bytes = encode(&accesses, 64);
        // Flip a bit deep in some block payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(decode(&bytes).is_err(), "from_reader must surface it");
        let path = temp_trace("corrupt", &bytes);
        assert!(MmapTrace::open("t", &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_rejected() {
        let accesses = sample_trace(500);
        let full = encode(&accesses, 64);
        for cut in [full.len() - 1, full.len() - 5, full.len() / 2, 9] {
            let bytes = &full[..cut];
            assert!(decode(bytes).is_err(), "truncated at {cut}");
            let path = temp_trace("trunc", bytes);
            assert!(MmapTrace::open("t", &path).is_err(), "truncated at {cut}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn tampered_trailer_total_is_rejected() {
        let accesses = sample_trace(100);
        let bytes = encode(&accesses, 64);
        // The trailer's u64 total sits right after the 8-byte
        // terminator; rewrite it (and fix its checksum) to lie.
        let trailer_total_at = bytes
            .windows(8)
            .rposition(|w| w == [0u8; 8])
            .expect("terminator")
            + 8;
        let mut tampered = bytes.clone();
        tampered[trailer_total_at] ^= 1;
        // Without fixing the checksum the mismatch is caught there:
        let path = temp_trace("trailer", &tampered);
        let err = MmapTrace::open("t", &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
        // Now recompute the trailer checksum over the tampered bytes so
        // only the record-count cross-check can catch the lie.
        let trailer_end = tampered.len() - 12; // checksum + end magic
        let sum = fnv1a64(&tampered[trailer_total_at..trailer_end]);
        let at = trailer_end;
        tampered[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        let path = temp_trace("trailer2", &tampered);
        let err = MmapTrace::open("t", &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_blocks_restart_the_delta_chain() {
        // Two records a huge stride apart, one per block: each block's
        // single varint must encode an absolute address (delta from 0),
        // which only round-trips if restart points work.
        let accesses = vec![acc(0xDEAD_0000_0000), acc(0x0000_BEEF)];
        let bytes = encode(&accesses, 1);
        assert_eq!(decode(&bytes).unwrap(), accesses);
    }

    #[test]
    fn ten_byte_varint_edge() {
        // u64::MAX encodes as nine 0xFF continuation bytes + final 0x01:
        // the 10th byte carries exactly one payload bit.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(
            read_varint(&mut max.as_slice()).unwrap(),
            Some(u64::MAX),
            "canonical 10-byte encoding of u64::MAX must decode"
        );

        // Regression: payload bits 1..7 in the 10th byte used to be
        // silently shifted out, decoding a *wrong* value instead of
        // erroring.
        for last in [0x02u8, 0x40, 0x7F] {
            let mut buf = vec![0xFFu8; 9];
            buf.push(last);
            let err = read_varint(&mut buf.as_slice()).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "last byte {last:#x}"
            );
        }

        // A continuation bit in the 10th byte overflows too, even if
        // its payload bits are in range.
        for tail in [&[0x81u8, 0x00][..], &[0x80, 0x01]] {
            let mut buf = vec![0xFFu8; 9];
            buf.extend_from_slice(tail);
            let err = read_varint(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tail {tail:?}");
        }
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), Some(v));
        }
        assert_eq!(unzigzag(zigzag(-5)), -5);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }
}
