//! The `metam-table` binary columnar format (`.mtc`).
//!
//! A lossless on-disk serialization of a [`Table`]: typed column blocks
//! with **explicit null bitmaps**, so values never round-trip through CSV
//! text (where string cells spelling `"NA"` or `"123"` would re-type).
//! The lake layer caches profiled tables in this format so repeated
//! `discover` runs deserialize columns directly instead of re-parsing CSV.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "MTC1"
//! name: u32 len + utf8        source: u32 len + utf8
//! nrows: u64                  ncols: u32
//! per column:
//!   named: u8 (0|1)  [+ name: u32 len + utf8]
//!   dtype: u8 (0=int 1=float 2=str 3=bool)
//!   null bitmap: ceil(nrows/8) bytes, bit set = value present
//!   non-null values, in row order:
//!     int   → i64      float → f64 bits
//!     bool  → u8       str   → u32 len + utf8
//! fnv1a-64 checksum of everything above: u64
//! ```
//!
//! The trailing checksum makes truncation and corruption detectable:
//! [`read_table`] verifies it before parsing, so a damaged cache file
//! fails loudly (callers fall back to the CSV source and heal the cache).
//!
//! The record codec is shared with the lake's `.mks` sketch records:
//! [`put_str`], the dtype tags ([`dtype_tag`]), the checksum trailer
//! ([`seal`]) and the bounds-checked [`Reader`] that verifies it.

use crate::column::{Column, ColumnData};
use crate::error::TableError;
use crate::schema::DataType;
use crate::table::Table;
use crate::Result;

/// First four bytes of every `.mtc` payload.
pub const MAGIC: &[u8; 4] = b"MTC1";

/// FNV-1a 64 over `bytes`: the trailing checksum of `.mtc` payloads and
/// of the lake's `.mks` sketch records (public so the lake, tools and
/// tests can seal or re-seal records).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Append `s` as its `u32` byte length and its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The one-byte tag of a column type: 0 = int, 1 = float, 2 = str,
/// 3 = bool.
pub fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

/// The column type a [`dtype_tag`] stands for.
#[inline]
pub fn dtype_from_tag(tag: u8) -> Option<DataType> {
    match tag {
        0 => Some(DataType::Int),
        1 => Some(DataType::Float),
        2 => Some(DataType::Str),
        3 => Some(DataType::Bool),
        _ => None,
    }
}

/// Seal a record: append the FNV-1a checksum of everything in `out`, the
/// trailer that [`Reader::open`] verifies.
pub fn seal(out: &mut Vec<u8>) {
    let checksum = fnv1a(out);
    out.extend_from_slice(&checksum.to_le_bytes());
}

fn put_bitmap<T>(out: &mut Vec<u8>, data: &[Option<T>]) {
    let mut bitmap = vec![0u8; data.len().div_ceil(8)];
    for (i, v) in data.iter().enumerate() {
        if v.is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
}

/// Serialize a table to `.mtc` bytes.
pub fn to_bytes(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_str(&mut out, &table.name);
    put_str(&mut out, &table.source);
    out.extend_from_slice(&(table.nrows() as u64).to_le_bytes());
    out.extend_from_slice(&(table.ncols() as u32).to_le_bytes());
    for column in table.columns() {
        match &column.name {
            Some(name) => {
                out.push(1);
                put_str(&mut out, name);
            }
            None => out.push(0),
        }
        out.push(dtype_tag(column.dtype()));
        match column.data() {
            ColumnData::Int(v) => {
                put_bitmap(&mut out, v);
                for x in v.iter().flatten() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Float(v) => {
                put_bitmap(&mut out, v);
                for x in v.iter().flatten() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Str(v) => {
                put_bitmap(&mut out, v);
                for s in v.iter().flatten() {
                    put_str(&mut out, s);
                }
            }
            ColumnData::Bool(v) => {
                put_bitmap(&mut out, v);
                for &b in v.iter().flatten() {
                    out.push(b as u8);
                }
            }
        }
    }
    seal(&mut out);
    out
}

/// Serialize a table into a writer.
pub fn write_table<W: std::io::Write>(table: &Table, mut writer: W) -> Result<()> {
    writer
        .write_all(&to_bytes(table))
        .map_err(|e| TableError::ColBin(e.to_string()))
}

/// Bounds-checked little-endian reader over a record's bytes. Every read
/// past the end is a typed error, never a panic.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader from the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Reader over the body of a [`seal`]ed record, after its `magic`:
    /// verifies the trailing checksum first, then the magic.
    pub fn open(bytes: &'a [u8], magic: &[u8; 4]) -> Result<Reader<'a>> {
        if bytes.len() < magic.len() + 8 {
            return Err(TableError::ColBin("payload too short".into()));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(
            tail.try_into()
                .map_err(|_| TableError::ColBin("truncated checksum".into()))?,
        );
        if fnv1a(body) != stored {
            return Err(TableError::ColBin("checksum mismatch".into()));
        }
        let mut reader = Reader::new(body);
        if reader.take(magic.len())? != magic {
            return Err(TableError::ColBin("bad magic".into()));
        }
        Ok(reader)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| TableError::ColBin("truncated payload".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Fixed-width read; `take` bounds-checks, so the conversion can
    /// only fail on a truncated payload and degrades to a typed error.
    #[inline]
    fn arr<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| TableError::ColBin("truncated payload".into()))
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.arr()?))
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.arr()?))
    }

    /// The next string written by [`put_str`].
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| TableError::ColBin(e.to_string()))
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The bytes not read yet, consuming the reader.
    pub fn rest(self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    fn bitmap(&mut self, nrows: usize) -> Result<Vec<bool>> {
        let bytes = self.take(nrows.div_ceil(8))?;
        Ok((0..nrows)
            .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .collect())
    }
}

/// Deserialize a table from `.mtc` bytes, verifying the checksum first.
pub fn read_table(bytes: &[u8]) -> Result<Table> {
    let mut cur = Reader::open(bytes, MAGIC)?;
    let name = cur.str()?;
    let source = cur.str()?;
    let nrows = cur.u64()? as usize;
    let ncols = cur.u32()? as usize;
    // Every column costs at least 2 bytes (name flag + dtype tag), so a
    // count exceeding the remaining payload is corrupt — reject it before
    // trusting it as an allocation size. (nrows needs no such guard: the
    // bitmap read bounds it against the payload before any row allocation.)
    if ncols > cur.remaining() / 2 {
        return Err(TableError::ColBin(format!(
            "column count {ncols} exceeds payload"
        )));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col_name = if cur.u8()? != 0 {
            Some(cur.str()?)
        } else {
            None
        };
        let tag = cur.u8()?;
        let dtype = dtype_from_tag(tag)
            .ok_or_else(|| TableError::ColBin(format!("unknown dtype tag {tag}")))?;
        let present = cur.bitmap(nrows)?;
        let column = match dtype {
            DataType::Int => {
                let mut data = Vec::with_capacity(nrows);
                for &p in &present {
                    data.push(if p {
                        Some(i64::from_le_bytes(cur.arr()?))
                    } else {
                        None
                    });
                }
                Column::from_ints(col_name, data)
            }
            DataType::Float => {
                let mut data = Vec::with_capacity(nrows);
                for &p in &present {
                    data.push(if p {
                        Some(f64::from_le_bytes(cur.arr()?))
                    } else {
                        None
                    });
                }
                // from_floats re-normalizes any NaN smuggled in by a
                // hand-edited payload back to null.
                Column::from_floats(col_name, data)
            }
            DataType::Str => {
                let mut data = Vec::with_capacity(nrows);
                for &p in &present {
                    data.push(if p { Some(cur.str()?) } else { None });
                }
                Column::from_strings(col_name, data)
            }
            DataType::Bool => {
                let mut data = Vec::with_capacity(nrows);
                for &p in &present {
                    data.push(if p { Some(cur.u8()? != 0) } else { None });
                }
                Column::from_bools(col_name, data)
            }
        };
        columns.push(column);
    }
    if cur.remaining() != 0 {
        return Err(TableError::ColBin(
            "trailing bytes after last column".into(),
        ));
    }
    let mut table = Table::from_columns(name, columns)?;
    table.source = source;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Table {
        let mut t = Table::from_columns(
            "crime stats",
            vec![
                Column::from_ints(Some("id".into()), vec![Some(1), None, Some(-3)]),
                Column::from_floats(Some("rate".into()), vec![Some(0.5), Some(-2.25), None]),
                Column::from_strings(
                    Some("note".into()),
                    vec![Some("NA".into()), None, Some("a,b\n\"q\"".into())],
                ),
                Column::from_bools(None, vec![Some(true), Some(false), None]),
            ],
        )
        .unwrap();
        t.source = "portal".into();
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let back = read_table(&to_bytes(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.source, "portal");
        // The null-marker string survives as a string, not a null.
        assert_eq!(
            back.column_by_name("note").unwrap().get(0),
            Value::Str("NA".into())
        );
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = Table::from_columns("empty", Vec::new()).unwrap();
        assert_eq!(read_table(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = to_bytes(&sample());
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(read_table(&bytes[..cut]), Err(TableError::ColBin(_))),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupt_byte_is_rejected() {
        let mut bytes = to_bytes(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(read_table(&bytes), Err(TableError::ColBin(_))));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        // Checksum catches it first; flipping magic only still fails.
        assert!(read_table(&bytes).is_err());
    }

    #[test]
    fn huge_column_count_is_rejected_without_allocating() {
        // A crafted payload with a valid checksum but an absurd ncols
        // must fail cleanly, not request a multi-GB allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b't'); // name "t"
        bytes.extend_from_slice(&0u32.to_le_bytes()); // source ""
        bytes.extend_from_slice(&0u64.to_le_bytes()); // nrows
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // ncols: absurd
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert!(matches!(read_table(&bytes), Err(TableError::ColBin(_))));
    }

    #[test]
    fn nan_in_payload_normalizes_to_null() {
        // Hand-build a payload containing a NaN float and re-checksum it.
        let t = Table::from_columns(
            "t",
            vec![Column::from_floats(Some("x".into()), vec![Some(1.5)])],
        )
        .unwrap();
        let mut bytes = to_bytes(&t);
        bytes.truncate(bytes.len() - 8);
        let float_at = bytes.len() - 8;
        bytes[float_at..].copy_from_slice(&f64::NAN.to_le_bytes());
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let back = read_table(&bytes).unwrap();
        assert_eq!(back.columns()[0].null_count(), 1);
    }
}
