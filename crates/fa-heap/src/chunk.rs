//! In-band chunk headers (boundary tags).
//!
//! Every chunk starts with a 16-byte header stored in simulated memory:
//!
//! ```text
//!  chunk addr ──►  ┌──────────────────────────┐
//!                  │ prev_size         (u64)  │   size of the previous
//!                  ├──────────────────────────┤   chunk in bytes
//!                  │ size | flags      (u64)  │   total chunk size + flags
//!  user addr  ──►  ├──────────────────────────┤
//!                  │ user data ...            │
//!                  └──────────────────────────┘
//! ```
//!
//! Flag bit 0 (`THIS_INUSE`) marks the chunk allocated; flag bit 1
//! (`PREV_INUSE`) marks the previous chunk allocated (so coalescing knows
//! whether `prev_size` leads to a free chunk). An application write that
//! runs past the end of its object lands on the *next* chunk's header and
//! corrupts these fields — which is exactly how real-world overflow bugs
//! (Squid, Pine, Mutt, BC in the paper) turn into allocator aborts.

use fa_mem::{Addr, MemFault, SimMemory};

/// Allocation alignment and granularity in bytes.
pub const ALIGN: u64 = 16;

/// Size of the in-band chunk header in bytes.
pub const HDR_SIZE: u64 = 16;

/// Minimum total chunk size (header + smallest user area).
pub const MIN_CHUNK: u64 = 32;

/// Flag bit: this chunk is allocated.
pub const THIS_INUSE: u64 = 0x1;

/// Flag bit: the chunk physically before this one is allocated.
pub const PREV_INUSE: u64 = 0x2;

const FLAG_MASK: u64 = THIS_INUSE | PREV_INUSE;

/// A decoded chunk header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkHeader {
    /// Size of the physically preceding chunk in bytes.
    pub prev_size: u64,
    /// Total size of this chunk (header included) in bytes.
    pub size: u64,
    /// This chunk is allocated.
    pub in_use: bool,
    /// The preceding chunk is allocated.
    pub prev_in_use: bool,
}

impl ChunkHeader {
    /// Reads and decodes the header of the chunk starting at `chunk`.
    pub fn read(mem: &mut SimMemory, chunk: Addr) -> Result<ChunkHeader, MemFault> {
        let (prev_size, raw) = read_words(mem, chunk)?;
        Ok(ChunkHeader {
            prev_size,
            size: raw & !FLAG_MASK,
            in_use: raw & THIS_INUSE != 0,
            prev_in_use: raw & PREV_INUSE != 0,
        })
    }

    /// Encodes and writes this header at `chunk`.
    pub fn write(&self, mem: &mut SimMemory, chunk: Addr) -> Result<(), MemFault> {
        let mut raw = self.size;
        if self.in_use {
            raw |= THIS_INUSE;
        }
        if self.prev_in_use {
            raw |= PREV_INUSE;
        }
        write_words(mem, chunk, self.prev_size, raw)
    }

    /// Returns the user-data address of the chunk at `chunk`.
    #[inline]
    pub fn user_of(chunk: Addr) -> Addr {
        chunk.offset(HDR_SIZE)
    }

    /// Returns the chunk address owning the user pointer `user`.
    #[inline]
    pub fn chunk_of(user: Addr) -> Addr {
        user.back(HDR_SIZE)
    }

    /// Returns the usable user-area size of a chunk of total size `size`.
    #[inline]
    pub fn usable(size: u64) -> u64 {
        size - HDR_SIZE
    }
}

/// Reads the two little-endian words at `addr` in one 16-byte access.
///
/// Only when that access faults is it redone word by word, so a fault is
/// exactly the one two 8-byte reads return: it names the first word that
/// faults, with `len: 8`.
pub(crate) fn read_words(mem: &mut SimMemory, addr: Addr) -> Result<(u64, u64), MemFault> {
    let mut buf = [0u8; 16];
    if mem.read(addr, &mut buf).is_err() {
        return Ok((mem.read_u64(addr)?, mem.read_u64(addr.offset(8))?));
    }
    let both = u128::from_le_bytes(buf);
    Ok((both as u64, (both >> 64) as u64))
}

/// Writes two little-endian words at `addr` in one 16-byte access.
///
/// Only when that access faults is it redone word by word, so the fault
/// and the partial store are exactly those of two 8-byte writes: the
/// first word lands when only the second faults.
pub(crate) fn write_words(
    mem: &mut SimMemory,
    addr: Addr,
    lo: u64,
    hi: u64,
) -> Result<(), MemFault> {
    let both = u128::from(lo) | u128::from(hi) << 64;
    if mem.write(addr, &both.to_le_bytes()).is_err() {
        mem.write_u64(addr, lo)?;
        mem.write_u64(addr.offset(8), hi)?;
    }
    Ok(())
}

/// Rounds a user request up to a legal total chunk size.
#[inline]
pub fn request_to_chunk_size(req: u64) -> u64 {
    let user = req.max(ALIGN).div_ceil(ALIGN) * ALIGN;
    user + HDR_SIZE
}

#[cfg(test)]
mod tests {
    use fa_mem::AccessKind;

    use super::*;

    fn mem_with_heap() -> SimMemory {
        let mut mem = SimMemory::new();
        mem.map(Addr(0x1000), 1 << 16, "heap").unwrap();
        mem
    }

    #[test]
    fn header_roundtrip() {
        let mut mem = mem_with_heap();
        let hdr = ChunkHeader {
            prev_size: 128,
            size: 64,
            in_use: true,
            prev_in_use: false,
        };
        hdr.write(&mut mem, Addr(0x1000)).unwrap();
        assert_eq!(ChunkHeader::read(&mut mem, Addr(0x1000)).unwrap(), hdr);
    }

    #[test]
    fn flags_do_not_leak_into_size() {
        let mut mem = mem_with_heap();
        let hdr = ChunkHeader {
            prev_size: 0,
            size: 48,
            in_use: true,
            prev_in_use: true,
        };
        hdr.write(&mut mem, Addr(0x1000)).unwrap();
        let back = ChunkHeader::read(&mut mem, Addr(0x1000)).unwrap();
        assert_eq!(back.size, 48);
        assert!(back.in_use && back.prev_in_use);
    }

    /// A header whose first word is mapped and whose second is not reads
    /// and writes exactly as two 8-byte accesses do: the same fault, and
    /// the first word stored.
    #[test]
    fn a_tag_across_the_region_end_faults_like_two_words() {
        let mut mem = mem_with_heap();
        let end = Addr(0x1000 + (1 << 16));
        let at = end.back(8);
        let hdr = ChunkHeader {
            prev_size: 0x1234,
            size: 64,
            in_use: true,
            prev_in_use: true,
        };
        let fault = |kind| MemFault::AccessViolation {
            addr: end,
            kind,
            len: 8,
        };
        let mut words = mem_with_heap();
        let expected = words
            .write_u64(at, hdr.prev_size)
            .and(words.write_u64(end, 64 | THIS_INUSE | PREV_INUSE));
        assert_eq!(expected, Err(fault(AccessKind::Write)));
        assert_eq!(hdr.write(&mut mem, at), expected);
        assert_eq!(mem.read_u64(at), Ok(0x1234), "the first word is stored");
        assert_eq!(mem.bytes_written(), words.bytes_written());

        let expected = words.read_u64(at).and(words.read_u64(end));
        assert_eq!(expected, Err(fault(AccessKind::Read)));
        assert_eq!(
            ChunkHeader::read(&mut mem, at).map(|h| h.prev_size),
            expected
        );
    }

    #[test]
    fn user_chunk_conversions() {
        let chunk = Addr(0x2000);
        assert_eq!(ChunkHeader::user_of(chunk), Addr(0x2010));
        assert_eq!(ChunkHeader::chunk_of(Addr(0x2010)), chunk);
        assert_eq!(ChunkHeader::usable(64), 48);
    }

    #[test]
    fn request_rounding() {
        assert_eq!(request_to_chunk_size(0), 16 + 16);
        assert_eq!(request_to_chunk_size(1), 32);
        assert_eq!(request_to_chunk_size(16), 32);
        assert_eq!(request_to_chunk_size(17), 48);
        assert_eq!(request_to_chunk_size(100), 112 + 16);
    }
}
