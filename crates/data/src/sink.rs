//! Columnar completion-event sink for memory-flat serving runs.
//!
//! The streaming serve path can no longer hand back per-request detail
//! in the in-memory report (that is the point: the report is O(1) in
//! the number of arrivals). When per-request records are still wanted —
//! latency CDFs, per-device traces, offline re-aggregation across a
//! sweep — the engine streams one [`CompletionRow`] per completed
//! request into this sink, which buffers rows and writes them as
//! column-major row groups, the same layout idea as the parquet result
//! files of large-scale simulators, minus the dependency.
//!
//! ## On-disk format
//!
//! ```text
//! magic: b"S2M3COL1" (8 bytes)
//! row group, repeated until EOF:
//!   n_rows      u32 LE
//!   arrival_ns  n_rows × u64 LE
//!   finish_ns   n_rows × u64 LE
//!   device      n_rows × u32 LE
//!   class       n_rows × u32 LE   (u32::MAX encodes "no class")
//!   latency_s   n_rows × f64 LE (bit pattern)
//! ```
//!
//! Row groups hold up to [`ROWS_PER_GROUP`] rows; the file is
//! EOF-delimited (no footer), so a crashed run still leaves every
//! fully flushed group readable. All integers are little-endian;
//! floats are stored as their IEEE-754 bit patterns.

use std::io::{Read, Write};

/// Magic bytes opening every sink file (format version 1).
pub(crate) const MAGIC: &[u8; 8] = b"S2M3COL1";

/// Rows buffered per row group before a flush.
pub const ROWS_PER_GROUP: usize = 4096;

/// One completed request, as recorded by the serving loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRow {
    /// Arrival time, virtual nanoseconds.
    pub arrival_ns: u64,
    /// Completion time, virtual nanoseconds.
    pub finish_ns: u64,
    /// Index of the device that ran the request's head module.
    pub device: u32,
    /// Deadline-class index, if the workload defines classes.
    pub class: Option<u32>,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
}

/// Class sentinel stored on disk for `class: None`.
const NO_CLASS: u32 = u32::MAX;

/// Buffering column-major writer (see the module docs for the format).
///
/// Memory use is bounded by [`ROWS_PER_GROUP`] buffered rows regardless
/// of how many rows pass through. Call [`ColumnWriter::finish`] to
/// flush the final partial group; dropping without it loses only the
/// unflushed tail.
#[derive(Debug)]
pub struct ColumnWriter<W: Write> {
    out: W,
    rows: Vec<CompletionRow>,
    written: u64,
}

impl<W: Write> ColumnWriter<W> {
    /// Wraps `out`, writing the magic header immediately.
    ///
    /// # Errors
    ///
    /// Propagates the header write failure.
    pub fn new(mut out: W) -> std::io::Result<Self> {
        out.write_all(MAGIC)?;
        Ok(ColumnWriter {
            out,
            rows: Vec::with_capacity(ROWS_PER_GROUP),
            written: 0,
        })
    }

    /// Appends one row, flushing a full group when the buffer fills.
    ///
    /// # Errors
    ///
    /// Propagates a group-flush write failure.
    pub fn push(&mut self, row: CompletionRow) -> std::io::Result<()> {
        self.rows.push(row);
        if self.rows.len() >= ROWS_PER_GROUP {
            self.flush_group()?;
        }
        Ok(())
    }

    /// Flushes the buffered tail and the underlying writer, returning
    /// the total row count.
    ///
    /// # Errors
    ///
    /// Propagates write/flush failure.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.flush_group()?;
        self.out.flush()?;
        Ok(self.written)
    }

    fn flush_group(&mut self) -> std::io::Result<()> {
        if self.rows.is_empty() {
            return Ok(());
        }
        let n = self.rows.len();
        self.out.write_all(&(n as u32).to_le_bytes())?;
        let mut col = Vec::with_capacity(n * 8);
        for r in &self.rows {
            col.extend_from_slice(&r.arrival_ns.to_le_bytes());
        }
        for r in &self.rows {
            col.extend_from_slice(&r.finish_ns.to_le_bytes());
        }
        for r in &self.rows {
            col.extend_from_slice(&r.device.to_le_bytes());
        }
        for r in &self.rows {
            col.extend_from_slice(&r.class.unwrap_or(NO_CLASS).to_le_bytes());
        }
        for r in &self.rows {
            col.extend_from_slice(&r.latency_s.to_bits().to_le_bytes());
        }
        self.out.write_all(&col)?;
        self.written += n as u64;
        self.rows.clear();
        Ok(())
    }
}

/// On-disk bytes per row across the five columns.
const ROW_BYTES: usize = 8 + 8 + 4 + 4 + 8;

/// Reads every row of a sink stream written by [`ColumnWriter`].
///
/// # Errors
///
/// Fails on a bad magic header, a row-group length of 0 or more than
/// [`ROWS_PER_GROUP`] (checked before anything is allocated), a stream
/// that ends inside a row group or its length prefix, or an underlying
/// read error.
pub fn read_rows<R: Read>(mut input: R) -> std::io::Result<Vec<CompletionRow>> {
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not an S2M3COL1 sink file".to_string()));
    }
    let mut rows = Vec::new();
    loop {
        let mut len = [0u8; 4];
        // An end of file exactly at a group boundary ends the stream;
        // one inside the length prefix is a truncated group.
        match input.read_exact(&mut len[..1]) {
            Ok(()) => input.read_exact(&mut len[1..])?,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let n = u32::from_le_bytes(len) as usize;
        if n == 0 || n > ROWS_PER_GROUP {
            return Err(invalid(format!(
                "row-group length {n} outside 1..={ROWS_PER_GROUP}"
            )));
        }
        let mut buf = vec![0u8; n * ROW_BYTES];
        input.read_exact(&mut buf)?;
        let u64_at = |off: usize, i: usize| {
            u64::from_le_bytes(buf[off + i * 8..off + i * 8 + 8].try_into().unwrap())
        };
        let u32_at = |off: usize, i: usize| {
            u32::from_le_bytes(buf[off + i * 4..off + i * 4 + 4].try_into().unwrap())
        };
        let (o_fin, o_dev) = (n * 8, n * 16);
        let (o_cls, o_lat) = (n * 20, n * 24);
        for i in 0..n {
            let class = match u32_at(o_cls, i) {
                NO_CLASS => None,
                c => Some(c),
            };
            rows.push(CompletionRow {
                arrival_ns: u64_at(0, i),
                finish_ns: u64_at(o_fin, i),
                device: u32_at(o_dev, i),
                class,
                latency_s: f64::from_bits(u64_at(o_lat, i)),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn row(i: u64) -> CompletionRow {
        CompletionRow {
            arrival_ns: i * 1_000,
            finish_ns: i * 1_000 + 500,
            device: (i % 3) as u32,
            class: if i.is_multiple_of(2) {
                Some((i % 4) as u32)
            } else {
                None
            },
            latency_s: 5e-7 + i as f64 * 1e-9,
        }
    }

    #[test]
    fn multi_group_files_roundtrip_and_bound_the_buffer() {
        let n = ROWS_PER_GROUP as u64 * 2 + 137;
        let mut buf = Vec::new();
        let mut w = ColumnWriter::new(&mut buf).unwrap();
        for i in 0..n {
            w.push(row(i)).unwrap();
            assert!(w.rows.len() < ROWS_PER_GROUP, "full groups flush eagerly");
        }
        assert_eq!(w.written, ROWS_PER_GROUP as u64 * 2, "two groups on disk");
        assert_eq!(w.finish().unwrap(), n);
        let rows = read_rows(buf.as_slice()).unwrap();
        assert_eq!(rows.len() as u64, n);
        assert_eq!(rows[ROWS_PER_GROUP], row(ROWS_PER_GROUP as u64));
    }

    #[test]
    fn roundtrip_preserves_every_row() {
        let n = ROWS_PER_GROUP as u64 + 7;
        let mut buf = Vec::new();
        let mut w = ColumnWriter::new(&mut buf).unwrap();
        for i in 0..n {
            w.push(row(i)).unwrap();
        }
        assert_eq!(w.finish().unwrap(), n);
        let rows = read_rows(buf.as_slice()).unwrap();
        assert_eq!(rows.len() as u64, n);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(*r, row(i as u64));
        }
    }

    #[test]
    fn empty_stream_roundtrips() {
        let mut buf = Vec::new();
        let w = ColumnWriter::new(&mut buf).unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        assert_eq!(buf, MAGIC);
        assert!(read_rows(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_and_truncation_are_errors() {
        assert!(read_rows(&b"NOTMAGIC"[..]).is_err());
        let mut buf = Vec::new();
        let mut w = ColumnWriter::new(&mut buf).unwrap();
        for i in 0..10 {
            w.push(row(i)).unwrap();
        }
        w.finish().unwrap();
        // Chop the last column short: the group is unreadable.
        buf.truncate(buf.len() - 3);
        assert!(read_rows(buf.as_slice()).is_err());
    }

    /// A sink file of rows `0..n`, as [`ColumnWriter`] writes it.
    fn file_of(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ColumnWriter::new(&mut buf).unwrap();
        for i in 0..n as u64 {
            w.push(row(i)).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    fn assert_invalid_data(bytes: &[u8]) {
        let err = read_rows(bytes).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn an_oversized_group_length_is_invalid_data_before_any_allocation() {
        for n in [u32::MAX, ROWS_PER_GROUP as u32 + 1] {
            let mut buf = file_of(10);
            buf[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&n.to_le_bytes());
            assert_invalid_data(&buf);
        }
    }

    #[test]
    fn a_file_cut_inside_a_length_prefix_is_truncated() {
        for stray in 1..4 {
            let mut buf = file_of(10);
            buf.extend(std::iter::repeat_n(7u8, stray));
            let err = read_rows(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        }
    }

    #[test]
    fn a_zero_row_group_is_invalid_data() {
        let mut buf = file_of(10);
        buf.extend(0u32.to_le_bytes());
        assert_invalid_data(&buf);
    }

    /// Row counts spanning 0 to 3 groups, half of them on a group edge:
    /// an exact multiple of [`ROWS_PER_GROUP`] or one either side.
    fn arb_rows() -> impl Strategy<Value = usize> {
        prop_oneof![
            0..=3 * ROWS_PER_GROUP,
            (0..=3usize, 0..=2usize).prop_map(|(k, d)| (k * ROWS_PER_GROUP + d)
                .saturating_sub(1)
                .min(3 * ROWS_PER_GROUP)),
        ]
    }

    /// Where each complete group of an `n`-row file ends, with the rows
    /// before that point, from the bare header to the end of the file:
    /// the only cuts that leave a readable file.
    fn group_ends(n: usize) -> Vec<(usize, usize)> {
        let mut ends = vec![(MAGIC.len(), 0)];
        for start in (0..n).step_by(ROWS_PER_GROUP) {
            let rows = (n - start).min(ROWS_PER_GROUP);
            let (at, before) = ends[ends.len() - 1];
            ends.push((at + 4 + rows * ROW_BYTES, before + rows));
        }
        ends
    }

    /// A byte offset at most a few bytes from one of `ends`, inside `len`.
    fn near(ends: &[(usize, usize)], pick: usize, delta: i64, len: usize) -> usize {
        (ends[pick % ends.len()].0 as i64 + delta).clamp(0, len as i64) as usize
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// An uncut file reads back every row.
        #[test]
        fn an_uncut_file_reads_back_every_row(n in arb_rows()) {
            let rows = read_rows(file_of(n).as_slice()).unwrap();
            prop_assert_eq!(rows.len(), n);
            prop_assert!(rows.iter().enumerate().all(|(i, r)| *r == row(i as u64)));
        }

        /// A cut at a group boundary reads back exactly the complete
        /// groups; a cut anywhere else is an error. Each case cuts once
        /// anywhere and once within a few bytes of a boundary, where a
        /// length prefix is split.
        #[test]
        fn a_cut_file_reads_whole_groups_or_fails(
            n in arb_rows(),
            anywhere in 0.0f64..1.0,
            (pick, delta) in (0usize..4, -3i64..=4),
        ) {
            let file = file_of(n);
            let ends = group_ends(n);
            prop_assert_eq!(ends[ends.len() - 1], (file.len(), n));
            let cuts = [
                (anywhere * file.len() as f64) as usize,
                near(&ends, pick, delta, file.len()),
            ];
            for at in cuts {
                let read = read_rows(&file[..at]);
                match ends.iter().find(|&&(end, _)| end == at) {
                    Some(&(_, whole)) => prop_assert_eq!(read.unwrap().len(), whole),
                    None => {
                        prop_assert!(read.is_err(), "cut at {} of {} read back", at, file.len())
                    }
                }
            }
        }

        /// Any single flipped byte gives `Ok` or `Err`, never a panic or
        /// an abort; one outside the header and the length prefixes
        /// changes values, not the row count. Each case flips once
        /// anywhere and once near a group boundary.
        #[test]
        fn a_flipped_byte_never_panics(
            n in arb_rows(),
            anywhere in 0.0f64..1.0,
            (pick, delta) in (0usize..4, 0i64..4),
            mask in 1u8..=255,
        ) {
            let file = file_of(n);
            let ends = group_ends(n);
            let flips = [
                (anywhere * file.len() as f64) as usize,
                near(&ends, pick, delta, file.len() - 1),
            ];
            for at in flips {
                let mut bent = file.clone();
                bent[at] ^= mask;
                let read = read_rows(bent.as_slice());
                let in_prefix = at < MAGIC.len()
                    || ends.iter().any(|&(end, _)| (end..end + 4).contains(&at));
                if !in_prefix {
                    prop_assert_eq!(read.unwrap().len(), n);
                }
            }
        }
    }
}
