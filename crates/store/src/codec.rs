//! Block-compressed replica value storage, in two layouts chosen by
//! [`crate::Replica`] from the replica's shape.
//!
//! **Unit frames** ([`UnitFrames`]) hold replicas whose every key has
//! exactly one value — `rdf:type`, `memberOf`, `advisor`, `name` and
//! most other functional properties. Such a replica needs no offsets
//! table: key position `i` owns value `i`. The values are cut into
//! [`BLOCK_LEN`]-value frames, each stored frame-of-reference:
//!
//! ```text
//! frame := base: u32, start: u32, width: u8     -- one per 128 values
//! bytes := per frame, (v − base) at `width` bits each, LSB-first,
//!          frames byte-aligned, then 8 zero pad bytes
//! ```
//!
//! The values of a unit replica follow key order, not value order, so
//! the base is the frame minimum rather than its first value. A
//! positional read is O(1): pick the frame, load one little-endian
//! `u64` window at the value's bit offset, shift and mask (the pad
//! bytes keep that window in bounds for the last value).
//!
//! **Packed runs** ([`PackedValues`]) hold every other replica: each
//! key's sorted value run is encoded as
//!
//! ```text
//! run := varint(header)                           -- run length m comes
//!        ⟨nothing⟩                 if m == 1         from the CSR offsets,
//!        skip-table  block-0-tail  if 1 block        never stored
//!        skip-table  block-tails   if > 1 block
//! header      := first_value                 for the first nonempty run
//!                                            at/after a sample anchor
//!              | zigzag(first − prev_first)  otherwise (wrapping u32)
//! skip-table  := (first: u32 LE, rel_off: u32 LE) per block 1..n
//! block-tail  := width: u8, ⌈(mᵇ−1)·width / 8⌉ bytes of deltas
//! ```
//!
//! Run headers are **delta-coded between sample anchors**: consecutive
//! keys tend to map to nearby ids, so `first − prev_first` is usually a
//! one-byte varint where an absolute first costs three. Every
//! [`SAMPLE`]-th run restarts from an absolute value, which is what
//! keeps random access possible — the positional walk below a sample
//! anchor re-accumulates firsts from the anchor's absolute header. A
//! [`WalkCursor`] remembers where the last walk stopped, so ascending
//! positions continue the walk instead of restarting it.
//!
//! Each block covers up to [`BLOCK_LEN`] values; deltas store
//! `v[i+1] − v[i] − 1` LSB-first at the per-block width (0 bits for
//! consecutive-id runs, which then cost one header byte per block). The
//! skip table lets a probe pick its block by a **clamped galloping
//! search** over block-first values; the membership probe then streams
//! that block's deltas and stops at the first value not below the
//! target, with no decode buffer. Byte offsets are relative to the end
//! of the skip table.
//!
//! Bulk decode ([`PackedRun::decode_into`], [`PackedValues::decode_all`])
//! rebuilds whole blocks with a prefix-sum vectorized by `std::arch`
//! SIMD (SSE2 on x86-64, NEON on aarch64) behind **runtime feature
//! detection**; the scalar fallback is bit-identical and is forced by
//! setting the `PARJ_NO_SIMD` environment variable (or by running under
//! Miri). This is the single module in the workspace allowed to contain
//! `unsafe` — the exception is policed by `cargo xtask lint` (see
//! DESIGN.md §18).
#![allow(unsafe_code)]

use parj_dict::Id;

/// Values per compressed block (packed runs) and per frame (unit
/// frames).
pub const BLOCK_LEN: usize = 128;

/// Run-start byte offsets are sampled every `SAMPLE` runs.
pub const SAMPLE: usize = 8;

/// When the galloping block search has sequentially probed this many
/// block-first values without bracketing the target, it starts doubling.
const GALLOP_AFTER: usize = 4;

/// Zero bytes after the last unit frame, so a positional read can always
/// load a full `u64` window (one value spans at most 5 bytes).
const FRAME_PAD: usize = 8;

/// One unit frame's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    /// Smallest value in the frame; every value is stored as `v − base`.
    base: Id,
    /// Byte offset of the frame's bitpacked values.
    start: u32,
    /// Bits per stored value, 0..=32.
    width: u8,
}

/// The value area of a unit replica (one value per key), as
/// frame-of-reference frames of [`BLOCK_LEN`] values with O(1)
/// positional access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitFrames {
    bytes: Vec<u8>,
    frames: Vec<Frame>,
    len: usize,
}

impl UnitFrames {
    /// Packs `values`, one per key position, in key order.
    pub fn pack(values: &[Id]) -> UnitFrames {
        let mut bytes = Vec::new();
        let mut frames = Vec::with_capacity(values.len().div_ceil(BLOCK_LEN));
        for chunk in values.chunks(BLOCK_LEN) {
            let base = chunk.iter().copied().min().unwrap_or(0);
            let maxd = chunk.iter().map(|&v| v - base).max().unwrap_or(0);
            let width = 32 - maxd.leading_zeros();
            assert!(bytes.len() <= u32::MAX as usize, "unit frames exceed u32 offsets");
            frames.push(Frame {
                base,
                start: bytes.len() as u32,
                width: width as u8,
            });
            pack_bits(chunk.iter().map(|&v| v - base), width, &mut bytes);
        }
        bytes.resize(bytes.len() + FRAME_PAD, 0);
        UnitFrames {
            bytes,
            frames,
            len: values.len(),
        }
    }

    /// Number of values (= keys of the replica).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes used by the frame headers and the bitpacked values.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.len() + self.frames.len() * std::mem::size_of::<Frame>()
    }

    /// The value at key position `pos`, in O(1).
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    #[inline]
    pub fn get(&self, pos: usize) -> Id {
        assert!(pos < self.len, "unit position {pos} out of range {}", self.len);
        let f = self.frames[pos / BLOCK_LEN];
        let width = u32::from(f.width);
        if width == 0 {
            return f.base;
        }
        let bit = (pos % BLOCK_LEN) as u32 * width;
        let at = f.start as usize + (bit / 8) as usize;
        let mut window = [0u8; 8];
        window.copy_from_slice(&self.bytes[at..at + 8]);
        let word = u64::from_le_bytes(window) >> (bit % 8);
        f.base.wrapping_add((word & ((1u64 << width) - 1)) as u32)
    }

    /// Appends every value, in key order, to `out`.
    pub fn decode_all(&self, out: &mut Vec<Id>) {
        out.reserve(self.len);
        for (f, frame) in self.frames.iter().enumerate() {
            let m = (self.len - f * BLOCK_LEN).min(BLOCK_LEN);
            let mut reader = BitReader::new(&self.bytes[frame.start as usize..], frame.width);
            out.extend((0..m).map(|_| frame.base.wrapping_add(reader.next())));
        }
    }

    /// Structural check of the frame table: one frame per
    /// [`BLOCK_LEN`] values, widths of at most 32 bits, and each frame's
    /// byte start equal to where the previous frame's width says it
    /// ends. Once this passes, [`UnitFrames::get`] and
    /// [`UnitFrames::decode_all`] stay in bounds. Returns the first bad
    /// frame's index and what is wrong with it.
    pub fn check(&self) -> Result<(), (usize, String)> {
        let want = self.len.div_ceil(BLOCK_LEN);
        if self.frames.len() != want {
            return Err((
                0,
                format!("{} frames for {} values, expected {want}", self.frames.len(), self.len),
            ));
        }
        let mut end = 0usize;
        for (f, frame) in self.frames.iter().enumerate() {
            if frame.start as usize != end {
                // Attributed to the frame whose width set `end`.
                let prev = f.saturating_sub(1);
                return Err((
                    prev,
                    format!(
                        "frame {prev} ends at byte {end} by its width, but frame {f} starts at {}",
                        frame.start
                    ),
                ));
            }
            if frame.width > 32 {
                return Err((f, format!("frame {f} width {} exceeds 32 bits", frame.width)));
            }
            let m = (self.len - f * BLOCK_LEN).min(BLOCK_LEN);
            end += (m * usize::from(frame.width)).div_ceil(8);
        }
        if self.bytes.len() != end + FRAME_PAD {
            let last = self.frames.len().saturating_sub(1);
            return Err((
                last,
                format!(
                    "frame area holds {} bytes, the widths imply {}",
                    self.bytes.len(),
                    end + FRAME_PAD
                ),
            ));
        }
        Ok(())
    }

    /// Overwrites frame `frame`'s bit width, leaving every byte in
    /// place: a deliberately corrupt frame for audit tests.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn corrupt_width(&mut self, frame: usize, width: u8) {
        self.frames[frame].width = width;
    }
}

/// One replica's multi-value run area, block-compressed. Logical run
/// lengths are *not* stored here — every accessor takes the CSR
/// `offsets` table the runs were packed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedValues {
    /// Concatenated run encodings.
    bytes: Vec<u8>,
    /// Byte offset of run `SAMPLE*k`'s encoding, for each `k`.
    samples: Vec<u32>,
    /// Total logical values across all runs.
    num_values: usize,
}

/// Where the last positional walk over a [`PackedValues`] stopped.
///
/// [`PackedValues::run_at`] continues from here when the next position
/// is at or after this one in the same sample bucket, and restarts
/// from the bucket's anchor otherwise — so a cursor only changes how
/// far a walk goes, never which run it returns. A cursor used on a
/// different area restarts too.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkCursor {
    /// Address of the area walked last; 0 when nothing is cached.
    owner: usize,
    /// Key position whose encoding starts at byte `at`.
    pos: usize,
    at: usize,
    /// Resolved first value of the last nonempty run before `pos` in
    /// its sample bucket (`None` at the bucket's start).
    prev_first: Option<Id>,
}

impl PackedValues {
    /// Packs the value area of a CSR replica. `offsets` must be the
    /// replica's offsets table (strictly increasing, first 0, last
    /// `values.len()`), and every run must be strictly increasing.
    pub fn pack(offsets: &[u32], values: &[Id]) -> PackedValues {
        let num_keys = offsets.len().saturating_sub(1);
        let mut bytes = Vec::with_capacity(values.len());
        let mut samples = Vec::with_capacity(num_keys / SAMPLE + 1);
        let mut prev_first: Option<Id> = None;
        for pos in 0..num_keys {
            if pos % SAMPLE == 0 {
                assert!(bytes.len() <= u32::MAX as usize, "packed area exceeds u32 offsets");
                samples.push(bytes.len() as u32);
                // Bucket boundary: the next header is absolute again.
                prev_first = None;
            }
            let run = &values[offsets[pos] as usize..offsets[pos + 1] as usize];
            encode_run(run, prev_first, &mut bytes);
            if let Some(&f) = run.first() {
                prev_first = Some(f);
            }
        }
        PackedValues {
            bytes,
            samples,
            num_values: values.len(),
        }
    }

    /// Total logical values.
    #[inline]
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Bytes used by the packed encoding plus the sample table.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.len() + self.samples.len() * 4
    }

    /// Borrows the run at key position `pos`. `offsets` must be the
    /// same table the values were packed with.
    pub fn run<'a>(&'a self, pos: usize, offsets: &[u32]) -> PackedRun<'a> {
        self.run_at(pos, offsets, &mut WalkCursor::default())
    }

    /// [`PackedValues::run`], continuing the positional walk from
    /// `cursor` when it can and leaving `cursor` at `pos`.
    pub fn run_at<'a>(
        &'a self,
        pos: usize,
        offsets: &[u32],
        cursor: &mut WalkCursor,
    ) -> PackedRun<'a> {
        let owner = self as *const PackedValues as usize;
        let (mut walk, mut at, mut prev_first) =
            if cursor.owner == owner && cursor.pos <= pos && cursor.pos / SAMPLE == pos / SAMPLE {
                (cursor.pos, cursor.at, cursor.prev_first)
            } else {
                (pos / SAMPLE * SAMPLE, self.samples[pos / SAMPLE] as usize, None)
            };
        while walk < pos {
            let m = (offsets[walk + 1] - offsets[walk]) as usize;
            if m > 0 {
                let (first, header) = resolve_first(&self.bytes[at..], prev_first);
                prev_first = Some(first);
                at += header + body_len(&self.bytes[at + header..], m);
            }
            walk += 1;
        }
        *cursor = WalkCursor {
            owner,
            pos,
            at,
            prev_first,
        };
        let len = (offsets[pos + 1] - offsets[pos]) as usize;
        if len == 0 {
            return PackedRun {
                body: &[],
                len: 0,
                first: 0,
            };
        }
        let (first, header) = resolve_first(&self.bytes[at..], prev_first);
        PackedRun {
            body: &self.bytes[at + header..],
            len,
            first,
        }
    }

    /// Appends every logical value, in order, to `out`.
    pub fn decode_all(&self, offsets: &[u32], out: &mut Vec<Id>) {
        out.reserve(self.num_values);
        let mut cursor = WalkCursor::default();
        for pos in 0..offsets.len().saturating_sub(1) {
            self.run_at(pos, offsets, &mut cursor).decode_into(out);
        }
    }
}

/// One key's packed value run: the borrowed encoding after its header,
/// plus its logical length and resolved first value (the header varint
/// may be a delta from the previous run — the positional walk resolves
/// it).
#[derive(Debug, Clone, Copy)]
pub struct PackedRun<'a> {
    /// Skip table and block tails.
    body: &'a [u8],
    len: usize,
    first: Id,
}

impl<'a> PackedRun<'a> {
    /// Logical number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the run holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first (smallest) value, if any.
    pub fn first(&self) -> Option<Id> {
        if self.len == 0 {
            return None;
        }
        Some(self.first)
    }

    /// Membership probe: skip-table gallop to pick the block, then a
    /// streaming walk of that block's deltas that stops at the first
    /// value not below `v`. Consecutive-id blocks (width 0) answer by
    /// range arithmetic alone.
    pub fn contains(&self, v: Id) -> bool {
        if self.len == 0 {
            return false;
        }
        if v <= self.first {
            return v == self.first;
        }
        if self.len == 1 {
            return false;
        }
        let nblocks = self.len.div_ceil(BLOCK_LEN);
        let b = if nblocks == 1 {
            0
        } else {
            pick_block(&self.body[..(nblocks - 1) * 8], nblocks, v)
        };
        // pick_block returns a block whose first is <= v.
        let (base, m, mut reader) = self.open_block(b);
        if v == base {
            return true;
        }
        if reader.width == 0 {
            return ((v - base) as usize) < m;
        }
        let mut cur = base;
        for _ in 1..m {
            cur = cur.wrapping_add(reader.next()).wrapping_add(1);
            if cur >= v {
                return cur == v;
            }
        }
        false
    }

    /// Block `b`'s base value, its value count, and a reader positioned
    /// at its bitpacked deltas.
    #[inline]
    fn open_block(&self, b: usize) -> (Id, usize, BitReader<'a>) {
        if self.len == 1 {
            return (self.first, 1, BitReader::new(&[], 0));
        }
        let nblocks = self.len.div_ceil(BLOCK_LEN);
        debug_assert!(b < nblocks);
        let m = if b + 1 < nblocks { BLOCK_LEN } else { self.len - b * BLOCK_LEN };
        let skip_end = (nblocks - 1) * 8;
        let (base, tail) = if b == 0 {
            (self.first, skip_end)
        } else {
            let e = (b - 1) * 8;
            (read_u32(self.body, e), skip_end + read_u32(self.body, e + 4) as usize)
        };
        (base, m, BitReader::new(&self.body[tail + 1..], self.body[tail]))
    }

    /// Decodes block `b` into `out`, returning the number of values
    /// written (`BLOCK_LEN` except possibly for the last block).
    pub fn decode_block(&self, b: usize, out: &mut [Id; BLOCK_LEN]) -> usize {
        let (base, m, mut reader) = self.open_block(b);
        let mut deltas = [0u32; BLOCK_LEN];
        if reader.width > 0 {
            for d in deltas.iter_mut().take(m - 1) {
                *d = reader.next();
            }
        }
        reconstruct(base, &deltas[..m - 1], &mut out[..m]);
        m
    }

    /// Appends every value of the run, in order, to `out`.
    pub fn decode_into(&self, out: &mut Vec<Id>) {
        let mut buf = [0u32; BLOCK_LEN];
        for b in 0..self.len.div_ceil(BLOCK_LEN) {
            let m = self.decode_block(b, &mut buf);
            out.extend_from_slice(&buf[..m]);
        }
    }

    /// Streaming iterator over the run's values.
    pub fn iter(&self) -> PackedRunIter<'a> {
        PackedRunIter {
            run: *self,
            block: 0,
            left: 0,
            reader: BitReader::new(&[], 0),
            cur: 0,
            remaining: self.len,
        }
    }
}

/// Streaming iterator over a [`PackedRun`]: decodes one delta per value
/// straight from the bitpacked bytes, with no block buffer.
#[derive(Debug, Clone)]
pub struct PackedRunIter<'a> {
    run: PackedRun<'a>,
    /// Next block to open.
    block: usize,
    /// Values of the open block still to yield.
    left: usize,
    reader: BitReader<'a>,
    /// Last value yielded.
    cur: Id,
    remaining: usize,
}

impl Iterator for PackedRunIter<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        if self.left == 0 {
            if self.remaining == 0 {
                return None;
            }
            let (base, m, reader) = self.run.open_block(self.block);
            self.block += 1;
            self.left = m - 1;
            self.reader = reader;
            self.cur = base;
        } else {
            self.cur = self.cur.wrapping_add(self.reader.next()).wrapping_add(1);
            self.left -= 1;
        }
        self.remaining -= 1;
        Some(self.cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PackedRunIter<'_> {}

/// LSB-first reader of fixed-width bit fields.
#[derive(Debug, Clone, Copy)]
struct BitReader<'a> {
    bytes: &'a [u8],
    src: usize,
    acc: u64,
    bits: u32,
    width: u32,
}

impl<'a> BitReader<'a> {
    #[inline]
    fn new(bytes: &'a [u8], width: u8) -> Self {
        BitReader {
            bytes,
            src: 0,
            acc: 0,
            bits: 0,
            width: u32::from(width),
        }
    }

    /// The next field; always 0 at width 0, without reading a byte.
    #[inline]
    fn next(&mut self) -> u32 {
        while self.bits < self.width {
            self.acc |= u64::from(self.bytes[self.src]) << self.bits;
            self.src += 1;
            self.bits += 8;
        }
        let v = (self.acc & ((1u64 << self.width) - 1)) as u32;
        self.acc >>= self.width;
        self.bits -= self.width;
        v
    }
}

/// Appends `vals` at `width` bits each, LSB-first, padded to a byte.
fn pack_bits(vals: impl Iterator<Item = u32>, width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut bits = 0u32;
    for v in vals {
        acc |= u64::from(v) << bits;
        bits += width;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }
}

#[inline]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Clamped galloping search over the skip table: returns the block
/// whose value range may contain `v`, given `v >= first(block 0)`.
///
/// The gallop brackets by doubling but every candidate index is clamped
/// to the last block, so the probe can never overshoot the run boundary
/// (mirror of the clamp contract in `parj-join`'s `gallop_forward`).
fn pick_block(skips: &[u8], nblocks: usize, v: Id) -> usize {
    debug_assert_eq!(skips.len(), (nblocks - 1) * 8);
    // Block 0's first is not in the table; callers guarantee b >= 1.
    let first_of = |b: usize| -> Id { read_u32(skips, (b - 1) * 8) };
    // Sequential start: most probes land in the first few blocks.
    let mut lo = 0usize; // invariant: first_of(lo) <= v (block 0 by contract)
    let last = nblocks - 1;
    for _ in 0..GALLOP_AFTER {
        if lo == last || first_of(lo + 1) > v {
            return lo;
        }
        lo += 1;
    }
    // Gallop: double the jump, clamped to the last block.
    let mut jump = 1usize;
    let mut hi = lo;
    loop {
        let next = hi.saturating_add(jump).min(last);
        if next == hi {
            return hi;
        }
        if first_of(next) > v {
            // Bracketed: binary search (lo, next) for the last block
            // with first <= v; invariant first_of(lo) <= v < first_of(next).
            let (mut a, mut b) = (hi, next);
            while b - a > 1 {
                let mid = a + (b - a) / 2;
                if first_of(mid) <= v {
                    a = mid;
                } else {
                    b = mid;
                }
            }
            return a;
        }
        hi = next;
        jump <<= 1;
    }
}

/// Byte length of a run's body (everything after its header varint),
/// for a run of logical length `m`.
fn body_len(body: &[u8], m: usize) -> usize {
    if m <= 1 {
        return 0;
    }
    let nblocks = m.div_ceil(BLOCK_LEN);
    let skip_end = (nblocks - 1) * 8;
    // Offset of the last block's tail, then the tail's own size.
    let last_tail = if nblocks == 1 {
        skip_end
    } else {
        skip_end + read_u32(body, (nblocks - 2) * 8 + 4) as usize
    };
    let m_last = m - (nblocks - 1) * BLOCK_LEN;
    let w = body[last_tail] as usize;
    last_tail + 1 + ((m_last - 1) * w).div_ceil(8)
}

/// Zigzag-folds a wrapping u32 difference so small jumps in either
/// direction get small codes; exact for every `(first, prev)` pair
/// because the decode side adds the difference back with wrapping
/// arithmetic.
#[inline]
fn zigzag(d: u32) -> u32 {
    let d = d as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

#[inline]
fn unzigzag(z: u32) -> u32 {
    (((z >> 1) as i32) ^ -((z & 1) as i32)) as u32
}

/// Reads the run header at `bytes[0]` and resolves the run's absolute
/// first value: raw when the bucket walk has not yet seen a nonempty
/// run (absolute header), previous-first plus the zigzag delta
/// otherwise. Also returns the header's byte length.
#[inline]
fn resolve_first(bytes: &[u8], prev_first: Option<Id>) -> (Id, usize) {
    let (raw, header) = read_varint(bytes);
    let first = match prev_first {
        None => raw,
        Some(p) => p.wrapping_add(unzigzag(raw)),
    };
    (first, header)
}

fn encode_run(run: &[Id], prev_first: Option<Id>, out: &mut Vec<u8>) {
    let m = run.len();
    if m == 0 {
        return;
    }
    debug_assert!(run.windows(2).all(|w| w[0] < w[1]), "run not strictly increasing");
    match prev_first {
        None => write_varint(run[0], out),
        Some(p) => write_varint(zigzag(run[0].wrapping_sub(p)), out),
    }
    if m == 1 {
        return;
    }
    let nblocks = m.div_ceil(BLOCK_LEN);
    let skip_at = out.len();
    out.resize(skip_at + (nblocks - 1) * 8, 0);
    let skip_end = out.len();
    for b in 0..nblocks {
        let block = &run[b * BLOCK_LEN..((b + 1) * BLOCK_LEN).min(m)];
        if b > 0 {
            let e = skip_at + (b - 1) * 8;
            let rel = (out.len() - skip_end) as u32;
            out[e..e + 4].copy_from_slice(&block[0].to_le_bytes());
            out[e + 4..e + 8].copy_from_slice(&rel.to_le_bytes());
        }
        encode_tail(block, out);
    }
}

/// Encodes one block's tail: width byte plus bitpacked `gap − 1`
/// deltas (the block's first value lives in the run header or the skip
/// table).
fn encode_tail(block: &[Id], out: &mut Vec<u8>) {
    let gaps = || block.windows(2).map(|w| w[1] - w[0] - 1);
    let width = 32 - gaps().max().unwrap_or(0).leading_zeros();
    out.push(width as u8);
    pack_bits(gaps(), width, out);
}

/// Rebuilds block values from the base and the `gap − 1` deltas:
/// `out[0] = base`, `out[i+1] = out[i] + deltas[i] + 1`. Dispatches to
/// the SIMD prefix-sum kernel when available.
fn reconstruct(base: Id, deltas: &[u32], out: &mut [Id]) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && is_x86_feature_detected!("sse2") {
        // SAFETY: sse2 support was verified by the runtime feature
        // detection on the line above.
        unsafe { reconstruct_sse2(base, deltas, out) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if simd_enabled() && std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: neon support was verified by the runtime feature
        // detection on the line above.
        unsafe { reconstruct_neon(base, deltas, out) };
        return;
    }
    reconstruct_scalar(base, deltas, out);
}

fn reconstruct_scalar(base: Id, deltas: &[u32], out: &mut [Id]) {
    out[0] = base;
    let mut prev = base;
    for (o, &d) in out[1..].iter_mut().zip(deltas) {
        prev = prev.wrapping_add(d).wrapping_add(1);
        *o = prev;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn reconstruct_sse2(base: Id, deltas: &[u32], out: &mut [Id]) {
    use std::arch::x86_64::*;
    out[0] = base;
    let mut carry = base;
    let chunks = deltas.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        // gaps = deltas + 1, then an in-register inclusive prefix sum
        // (Hillis–Steele: shift-by-one-lane add, shift-by-two-lanes add).
        let d = _mm_loadu_si128(deltas.as_ptr().add(i).cast());
        let mut x = _mm_add_epi32(d, _mm_set1_epi32(1));
        x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
        x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
        x = _mm_add_epi32(x, _mm_set1_epi32(carry as i32));
        _mm_storeu_si128(out.as_mut_ptr().add(i + 1).cast(), x);
        carry = _mm_cvtsi128_si32(_mm_shuffle_epi32(x, 0b11_11_11_11)) as u32;
    }
    for i in chunks * 4..deltas.len() {
        carry = carry.wrapping_add(deltas[i]).wrapping_add(1);
        out[i + 1] = carry;
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn reconstruct_neon(base: Id, deltas: &[u32], out: &mut [Id]) {
    use std::arch::aarch64::*;
    out[0] = base;
    let mut carry = base;
    let chunks = deltas.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        let d = vld1q_u32(deltas.as_ptr().add(i));
        let mut x = vaddq_u32(d, vdupq_n_u32(1));
        // Inclusive prefix sum via lane shifts (vextq with a zero vector
        // shifts values toward higher lanes).
        let z = vdupq_n_u32(0);
        x = vaddq_u32(x, vextq_u32(z, x, 3));
        x = vaddq_u32(x, vextq_u32(z, x, 2));
        x = vaddq_u32(x, vdupq_n_u32(carry));
        vst1q_u32(out.as_mut_ptr().add(i + 1), x);
        carry = vgetq_lane_u32(x, 3);
    }
    for i in chunks * 4..deltas.len() {
        carry = carry.wrapping_add(deltas[i]).wrapping_add(1);
        out[i + 1] = carry;
    }
}

/// True when the vectorized kernels may run: not under Miri, and not
/// force-disabled via the `PARJ_NO_SIMD` environment variable (the CI
/// scalar-fallback job sets it so the scalar paths stay covered).
fn simd_enabled() -> bool {
    use parj_sync::atomic::{AtomicU32, Ordering};
    if cfg!(miri) {
        return false;
    }
    static STATE: AtomicU32 = AtomicU32::new(0);
    // ordering: Relaxed — STATE is a memoized pure function of the
    // process environment (0=unknown, 1=on, 2=off); racing initializers
    // compute and store the same value, and no other memory is
    // published through it.
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let disabled =
                std::env::var_os("PARJ_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0");
            // ordering: Relaxed — same-value memoization, see above.
            STATE.store(if disabled { 2 } else { 1 }, Ordering::Relaxed);
            !disabled
        }
    }
}

/// True when bulk decodes will use the vectorized kernels (used by
/// benches to label their output).
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        return simd_enabled() && is_x86_feature_detected!("sse2");
    }
    #[cfg(target_arch = "aarch64")]
    {
        return simd_enabled() && std::arch::is_aarch64_feature_detected!("neon");
    }
    #[allow(unreachable_code)]
    false
}

fn write_varint(mut v: u32, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Returns the decoded value and the number of bytes consumed.
fn read_varint(bytes: &[u8]) -> (u32, usize) {
    let mut v = 0u32;
    let mut shift = 0;
    let mut at = 0usize;
    loop {
        let b = bytes[at];
        at += 1;
        v |= ((b & 0x7f) as u32) << shift;
        if b < 0x80 {
            return (v, at);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn offsets_for(runs: &[Vec<Id>]) -> Vec<u32> {
        let mut offsets = vec![0u32];
        let mut total = 0u32;
        for r in runs {
            total += r.len() as u32;
            offsets.push(total);
        }
        offsets
    }

    fn pack_runs(runs: &[Vec<Id>]) -> (PackedValues, Vec<u32>, Vec<Id>) {
        let offsets = offsets_for(runs);
        let values: Vec<Id> = runs.iter().flatten().copied().collect();
        (PackedValues::pack(&offsets, &values), offsets, values)
    }

    /// Strictly increasing run of the given length starting near
    /// `start`, with gaps drawn from `gaps`.
    fn run_from(start: Id, gaps: &[u32]) -> Vec<Id> {
        let mut v = start;
        let mut out = vec![v];
        for &g in gaps {
            v = v.checked_add(g + 1).expect("run fits in u32");
            out.push(v);
        }
        out
    }

    #[test]
    fn roundtrips_fixed_shapes() {
        // Lengths crossing every block boundary the format distinguishes.
        for len in [1usize, 2, 3, 127, 128, 129, 255, 256, 257, 1000] {
            for gap in [0u32, 1, 7, 1000] {
                let run = run_from(5, &vec![gap; len - 1]);
                let (packed, offsets, values) = pack_runs(std::slice::from_ref(&run));
                let mut out = Vec::new();
                packed.decode_all(&offsets, &mut out);
                assert_eq!(out, values, "len {len} gap {gap}");
                let pr = packed.run(0, &offsets);
                assert_eq!(pr.len(), len);
                assert_eq!(pr.iter().collect::<Vec<_>>(), run);
                for &v in &run {
                    assert!(pr.contains(v), "len {len} gap {gap} missing {v}");
                }
                assert!(!pr.contains(run[0].wrapping_sub(1)));
                assert!(!pr.contains(run[len - 1] + 1));
            }
        }
    }

    #[test]
    fn multi_run_access_with_sampling() {
        // More runs than one sample stride, with mixed lengths, so
        // `run()` exercises the parse-skip path.
        let runs: Vec<Vec<Id>> = (0..37u32)
            .map(|i| run_from(i * 1000, &vec![i % 5; (i as usize % 7) + (i as usize % 3) * 130]))
            .collect();
        let (packed, offsets, values) = pack_runs(&runs);
        assert_eq!(packed.num_values(), values.len());
        for (i, r) in runs.iter().enumerate() {
            let pr = packed.run(i, &offsets);
            assert_eq!(&pr.iter().collect::<Vec<_>>(), r, "run {i}");
            assert_eq!(pr.first(), r.first().copied());
        }
        let mut out = Vec::new();
        packed.decode_all(&offsets, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn pick_block_matches_linear_oracle() {
        // The clamped gallop over the skip table must agree with a
        // plain linear scan of block firsts for every probe value —
        // including probes past the last block (clamp, no overshoot).
        for nblocks in [2usize, 3, 4, 5, 9, 17, 40] {
            let len = (nblocks - 1) * BLOCK_LEN + 1;
            let run = run_from(0, &vec![2; len - 1]);
            let firsts: Vec<Id> = (0..nblocks).map(|b| run[b * BLOCK_LEN]).collect();
            let mut skips = Vec::new();
            for &f in &firsts[1..] {
                skips.extend_from_slice(&f.to_le_bytes());
                skips.extend_from_slice(&0u32.to_le_bytes()); // offsets unused here
            }
            let max = *run.last().unwrap();
            for v in (firsts[0]..max.saturating_add(50)).step_by(7) {
                let want = firsts.iter().rposition(|&f| f <= v).unwrap();
                let got = pick_block(&skips, nblocks, v);
                assert_eq!(got, want, "nblocks {nblocks} probe {v}");
            }
        }
    }

    #[test]
    fn contains_at_block_boundaries() {
        // Values sitting exactly at block edges, probes between blocks,
        // and probes past the end must all answer via the clamped
        // gallop without overshooting.
        let run = run_from(10, &vec![9; 1000]);
        let (packed, offsets, _) = pack_runs(std::slice::from_ref(&run));
        let pr = packed.run(0, &offsets);
        for b in [0usize, 1, 2, 7] {
            let edge = run[b * BLOCK_LEN];
            assert!(pr.contains(edge));
            assert!(!pr.contains(edge + 1), "gap values absent");
            if b > 0 {
                assert!(pr.contains(run[b * BLOCK_LEN - 1]), "last of prev block");
            }
        }
        assert!(pr.contains(*run.last().unwrap()));
        assert!(!pr.contains(run.last().unwrap() + 10));
        assert!(!pr.contains(0));
    }

    #[test]
    fn scalar_and_simd_reconstruct_agree() {
        // The dispatching prefix-sum must be bit-identical to the scalar
        // kernel on every length/alignment the block format produces.
        let mut deltas = [0u32; BLOCK_LEN];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = (i as u32).wrapping_mul(2654435761) % 1000;
        }
        for n in [0usize, 1, 3, 4, 5, 8, 17, 127] {
            let mut a = vec![0u32; n + 1];
            let mut b = vec![0u32; n + 1];
            reconstruct_scalar(77, &deltas[..n], &mut a);
            reconstruct(77, &deltas[..n], &mut b);
            assert_eq!(a, b, "reconstruct length {n}");
        }
    }

    #[test]
    fn zigzag_wrapping_roundtrip() {
        // The header delta is a wrapping u32 difference; zigzag must be
        // exact in both directions for every magnitude, including the
        // full-range jumps 0 ↔ u32::MAX.
        for (first, prev) in [
            (0u32, 0u32),
            (5, 3),
            (3, 5),
            (u32::MAX, 0),
            (0, u32::MAX),
            (2_147_483_648, 17),
            (17, 2_147_483_648),
        ] {
            let d = first.wrapping_sub(prev);
            assert_eq!(prev.wrapping_add(unzigzag(zigzag(d))), first, "{first} vs {prev}");
        }
    }

    #[test]
    fn wrapping_first_deltas_roundtrip() {
        // Run firsts that jump across the whole u32 range in both
        // directions, crossing sample-bucket boundaries, so both the
        // absolute and the delta header paths are exercised at the
        // extremes.
        let runs: Vec<Vec<Id>> = (0..20u32)
            .map(|i| {
                let start = if i % 2 == 0 { u32::MAX - 100 - i } else { i * 3 };
                run_from(start, &[(i % 4) * 7])
            })
            .collect();
        let (packed, offsets, values) = pack_runs(&runs);
        let mut out = Vec::new();
        packed.decode_all(&offsets, &mut out);
        assert_eq!(out, values);
        for (i, r) in runs.iter().enumerate() {
            let pr = packed.run(i, &offsets);
            assert_eq!(pr.first(), r.first().copied(), "run {i}");
            assert_eq!(&pr.iter().collect::<Vec<_>>(), r, "run {i}");
            for &v in r {
                assert!(pr.contains(v));
            }
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX] {
            let mut out = Vec::new();
            write_varint(v, &mut out);
            assert_eq!(read_varint(&out), (v, out.len()));
        }
    }

    #[test]
    fn empty_area_packs_empty() {
        let (packed, offsets, _) = pack_runs(&[]);
        assert_eq!(packed.num_values(), 0);
        let mut out = Vec::new();
        packed.decode_all(&offsets, &mut out);
        assert!(out.is_empty());
    }

    /// Checks every accessor of a unit-frame area against `values`.
    fn assert_units(values: &[Id]) {
        let frames = UnitFrames::pack(values);
        assert_eq!(frames.check(), Ok(()));
        assert_eq!(frames.len(), values.len());
        for (pos, &v) in values.iter().enumerate() {
            assert_eq!(frames.get(pos), v, "position {pos} of {}", values.len());
        }
        let mut out = Vec::new();
        frames.decode_all(&mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn unit_frames_fixed_shapes() {
        // Frame lengths around the frame edge, at width 0 (one repeated
        // value), width 32 (the whole u32 range inside one frame), values
        // near u32::MAX, and non-monotone key-order sequences.
        for len in [1usize, 127, 128, 129, 300] {
            assert_units(&vec![42; len]);
            assert_units(&vec![u32::MAX; len]);
            let full: Vec<Id> = (0..len).map(|i| if i % 2 == 0 { 0 } else { u32::MAX }).collect();
            assert_units(&full);
            let near_max: Vec<Id> = (0..len).map(|i| u32::MAX - (i as u32 * 7919) % 300).collect();
            assert_units(&near_max);
            let zigzag: Vec<Id> = (0..len as u32).map(|i| i.wrapping_mul(2654435761) % 1000).collect();
            assert_units(&zigzag);
        }
        let full = UnitFrames::pack(&[0, u32::MAX]);
        assert_eq!(full.frames[0].width, 32);
        assert_eq!(UnitFrames::pack(&[9; 5]).frames[0].width, 0);
        assert_units(&[]);
    }

    #[test]
    fn unit_frames_check_reports_bad_widths() {
        let values: Vec<Id> = (0..300u32).map(|i| (i * 37) % 500).collect();
        for frame in 0..3 {
            for width in [0u8, 3, 31, 33, 200] {
                let mut frames = UnitFrames::pack(&values);
                if frames.frames[frame].width == width {
                    continue;
                }
                frames.corrupt_width(frame, width);
                let (at, msg) = frames.check().expect_err("a changed width must not pass");
                assert_eq!(at, frame, "{msg}");
            }
        }
    }

    #[test]
    fn walk_cursor_agrees_with_fresh_walks() {
        // Mixed run lengths over several sample buckets, visited in
        // ascending, repeated, descending and cross-area orders: the
        // cursor may only shorten walks, never change their answer.
        let runs: Vec<Vec<Id>> = (0..45u32)
            .map(|i| run_from(i * 500, &vec![i % 3; (i as usize * 7) % 140]))
            .collect();
        let (packed, offsets, _) = pack_runs(&runs);
        let (other, other_offsets, _) = pack_runs(&runs[..20]);
        let order: Vec<usize> = (0..45)
            .chain([44, 44, 3, 9, 8, 16, 17, 40, 0])
            .chain((0..45).rev())
            .collect();
        let mut cursor = WalkCursor::default();
        for &pos in &order {
            let got = packed.run_at(pos, &offsets, &mut cursor);
            assert_eq!(got.iter().collect::<Vec<_>>(), runs[pos], "position {pos}");
            assert_eq!(got.first(), runs[pos].first().copied());
            // The same cursor on a different area restarts its walk.
            let q = pos % 20;
            let theirs = other.run_at(q, &other_offsets, &mut cursor);
            assert_eq!(theirs.iter().collect::<Vec<_>>(), runs[q]);
            cursor = WalkCursor::default();
            let _ = packed.run_at(pos, &offsets, &mut cursor);
        }
    }

    /// Streaming probe and iterator against a `Vec` oracle: every value
    /// from just below the run to just above it.
    fn assert_stream_matches_oracle(run: &[Id]) {
        let (packed, offsets, _) = pack_runs(&[run.to_vec()]);
        let pr = packed.run(0, &offsets);
        assert_eq!(pr.iter().collect::<Vec<_>>(), run);
        assert_eq!(pr.iter().len(), run.len());
        let lo = run[0].saturating_sub(2);
        let hi = run[run.len() - 1].saturating_add(2);
        for v in lo..=hi {
            assert_eq!(pr.contains(v), run.binary_search(&v).is_ok(), "probe {v}");
        }
    }

    #[test]
    fn streaming_probe_matches_oracle_at_block_edges() {
        for len in [1usize, 2, 127, 128, 129, 255, 256, 257, 385] {
            for gap in [0u32, 1, 3] {
                assert_stream_matches_oracle(&run_from(10, &vec![gap; len - 1]));
            }
            // A wide jump at each block edge forces a per-block width change.
            let gaps: Vec<u32> = (1..len).map(|i| if i % BLOCK_LEN == 0 { 900 } else { i as u32 % 4 }).collect();
            assert_stream_matches_oracle(&run_from(1, &gaps));
        }
        // Runs ending at u32::MAX: no wrap past the top of the range.
        assert_stream_matches_oracle(&run_from(u32::MAX - 300, &vec![1; 150]));
    }

    /// Unit-frame value sequences: arbitrary, clustered near `u32::MAX`,
    /// constant (width 0) and small-range, at lengths around the frame
    /// edges.
    fn arb_units() -> impl Strategy<Value = Vec<Id>> {
        let len = prop_oneof![
            Just(1usize),
            Just(127usize),
            Just(128usize),
            Just(129usize),
            0usize..600
        ];
        (0u8..4, len, proptest::collection::vec(any::<u32>(), 600)).prop_map(|(shape, n, raw)| {
            let raw = &raw[..n];
            match shape {
                0 => raw.to_vec(),
                1 => raw.iter().map(|v| u32::MAX - v % 1001).collect(),
                2 => vec![raw.first().copied().unwrap_or(0); n],
                _ => raw.iter().map(|v| v % 16).collect(),
            }
        })
    }

    /// Random run set as `(start, gaps)` pairs; gap 0 exercises the
    /// width-0 consecutive-id fast path.
    fn arb_runs() -> impl Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(
            (
                0u32..1_000_000,
                proptest::collection::vec(0u32..64, 0..300),
            ),
            0..12,
        )
        .prop_map(|rs| rs.into_iter().map(|(s, gaps)| run_from(s, &gaps)).collect())
    }

    proptest! {
        /// Encode → decode identity over random run shapes, via every
        /// accessor (bulk decode, per-run iterator, membership probe).
        #[test]
        fn roundtrip_random_runs(runs in arb_runs()) {
            let (packed, offsets, values) = pack_runs(&runs);
            let mut out = Vec::new();
            packed.decode_all(&offsets, &mut out);
            prop_assert_eq!(&out, &values);
            for (i, r) in runs.iter().enumerate() {
                let pr = packed.run(i, &offsets);
                prop_assert_eq!(pr.len(), r.len());
                prop_assert_eq!(&pr.iter().collect::<Vec<_>>(), r);
                // Every present value answers true; neighbours of the
                // run ends answer false unless genuinely present.
                for &v in r {
                    prop_assert!(pr.contains(v));
                }
                if let (Some(&lo), Some(&hi)) = (r.first(), r.last()) {
                    prop_assert!(!pr.contains(lo.wrapping_sub(1)) || lo == 0);
                    prop_assert!(!pr.contains(hi.wrapping_add(1)) || hi == u32::MAX);
                }
            }
        }

        /// Block-boundary run lengths: exact multiples and ±1, asserted
        /// through both the scalar and the dispatching kernels.
        #[test]
        fn roundtrip_block_boundary_lengths(
            start in 0u32..100_000,
            gap in 0u32..32,
            blocks in 1usize..4,
            wobble in -1isize..=1,
        ) {
            let len = (blocks * BLOCK_LEN).saturating_add_signed(wobble).max(1);
            let run = run_from(start, &vec![gap; len - 1]);
            let (packed, offsets, _) = pack_runs(std::slice::from_ref(&run));
            let pr = packed.run(0, &offsets);
            prop_assert_eq!(pr.iter().collect::<Vec<_>>(), run);
        }

        /// Unit frames round-trip by position and in bulk, and pass
        /// their own structural check.
        #[test]
        fn unit_frames_roundtrip(values in arb_units()) {
            let frames = UnitFrames::pack(&values);
            prop_assert_eq!(frames.check(), Ok(()));
            for (pos, &v) in values.iter().enumerate() {
                prop_assert_eq!(frames.get(pos), v);
            }
            let mut out = Vec::new();
            frames.decode_all(&mut out);
            prop_assert_eq!(out, values);
        }

        /// Streaming membership and iteration agree with a `Vec` oracle
        /// for probes inside, between and around random runs.
        #[test]
        fn streaming_probe_matches_vec_oracle(
            start in 0u32..1_000,
            gaps in proptest::collection::vec(0u32..40, 0..400),
            probes in proptest::collection::vec(0u32..20_000, 0..64),
        ) {
            let run = run_from(start, &gaps);
            let (packed, offsets, _) = pack_runs(std::slice::from_ref(&run));
            let pr = packed.run(0, &offsets);
            prop_assert_eq!(pr.iter().collect::<Vec<_>>(), run.clone());
            for v in probes {
                prop_assert_eq!(pr.contains(v), run.binary_search(&v).is_ok());
            }
        }
    }
}
