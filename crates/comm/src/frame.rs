//! The page frame: the one unit serialized records travel in, on the wire
//! and on disk.
//!
//! A frame is a 12-byte header — a little-endian `u32` byte length, a `u32`
//! record count and a `u32` CRC-32 over **the record count and the bytes** —
//! followed by the bytes.  The engine's spill runs and checkpoint files are
//! frames behind a run header; a TCP `PAGES` message is frames back to back
//! behind the wire header, and an all-gather vector is one frame.  The
//! checksum covers the count because a reader trusts it: a count that no
//! longer matches the bytes would send a page reader past their end.

use crate::{crc32_update, WireCodec};
use std::io::{self, Write};

/// Bytes of a frame header: byte length, record count, CRC-32.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Bound on one frame's bytes; a header claiming more is garbage (a torn
/// stream or a foreign file), not a length to allocate.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// CRC-32 of a frame: the little-endian record count, then the bytes.
fn frame_crc(records: u32, bytes: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &records.to_le_bytes()), bytes)
}

/// The header of the frame holding `bytes`, which serialize `records`
/// records.
pub fn frame_header(records: u32, bytes: &[u8]) -> [u8; FRAME_HEADER_BYTES] {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&records.to_le_bytes());
    header[8..12].copy_from_slice(&frame_crc(records, bytes).to_le_bytes());
    header
}

/// Writes `item` as one frame (header, then bytes) and returns its size.
pub fn write_frame(out: &mut impl Write, item: &impl WireCodec) -> io::Result<usize> {
    let (records, bytes) = item.frame();
    out.write_all(&frame_header(records, bytes))?;
    out.write_all(bytes)?;
    Ok(FRAME_HEADER_BYTES + bytes.len())
}

/// A parsed frame header: how many bytes follow, and what they must check
/// against.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// Bytes following the header.
    pub byte_len: usize,
    /// Records the bytes serialize.
    pub records: u32,
    crc: u32,
}

impl FrameHeader {
    /// Parses a header; a length past [`MAX_FRAME_BYTES`] is an error.
    pub fn parse(header: [u8; FRAME_HEADER_BYTES]) -> Result<FrameHeader, String> {
        let [l0, l1, l2, l3, r0, r1, r2, r3, c0, c1, c2, c3] = header;
        let byte_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if byte_len > MAX_FRAME_BYTES {
            return Err(format!("implausible frame length {byte_len}"));
        }
        Ok(FrameHeader {
            byte_len,
            records: u32::from_le_bytes([r0, r1, r2, r3]),
            crc: u32::from_le_bytes([c0, c1, c2, c3]),
        })
    }

    /// Checks the frame's `bytes` (and the header's record count) against
    /// the header's checksum.
    pub fn check(&self, bytes: &[u8]) -> Result<(), String> {
        let actual = frame_crc(self.records, bytes);
        if actual != self.crc {
            return Err(format!(
                "frame CRC mismatch (stored {:#010x}, computed {actual:#010x})",
                self.crc
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_checks_its_count_and_its_bytes() {
        let bytes = b"three records";
        let raw = frame_header(3, bytes);
        let header = FrameHeader::parse(raw).unwrap();
        assert_eq!((header.byte_len, header.records), (13, 3));
        header.check(bytes).unwrap();
        // The count is under the checksum: off by one either way fails.
        for records in [2, 4] {
            let tampered = FrameHeader { records, ..header };
            assert!(tampered.check(bytes).is_err(), "count {records}");
        }
        assert!(header.check(b"three recordz").is_err());
        let mut huge = raw;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(FrameHeader::parse(huge).is_err());
    }
}
