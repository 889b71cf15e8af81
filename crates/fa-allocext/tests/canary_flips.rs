//! Every flipped canary byte is caught by [`ExtAllocator::scan`].
//!
//! One allocator state holds each kind of canary range: a delay-freed,
//! canary-filled object of three-plus pages; both canary pads of a padded
//! object, each longer than two pages; and the heap mark on a multi-page
//! free chunk. The ranges start and end off page boundaries, and the pads
//! and the object end off word boundaries. Each case flips bytes in a clone
//! of that state, then checks that `scan` reports exactly one
//! manifestation, of the right kind and at the right offset.

use fa_allocext::{ChangePlan, ExtAllocator, Manifestation, Mode, CANARY_BYTE};
use fa_heap::Heap;
use fa_mem::{Addr, SimMemory, PAGE_SIZE};
use fa_proc::{AllocBackend, CallSite, Clock};

const PAGE: u64 = PAGE_SIZE as u64;
/// Padding per side: longer than two pages, and odd.
const PAD: u64 = 2 * PAGE + 5;
/// Requested size of the padded object: odd, so its right pad starts
/// mid-word.
const PADDED_SIZE: u64 = 21;
/// Size of the quarantined object: three pages and a partial word.
const QUARANTINED_SIZE: u64 = 3 * PAGE + 13;
const PADDED_AT: CallSite = CallSite([4, 0, 0]);
const QUARANTINED_AT: CallSite = CallSite([5, 0, 0]);
const FREED_AT: CallSite = CallSite([6, 0, 0]);

/// What a canary range guards, and so how `scan` reports damage to it.
#[derive(Clone, Copy, Debug)]
enum Guards {
    Quarantined { user: Addr },
    Pad { user: Addr, right_side: bool },
    Mark,
}

#[derive(Clone, Copy, Debug)]
struct Range {
    guards: Guards,
    start: Addr,
    len: u64,
}

impl Range {
    /// The manifestation `scan` must report when `off` is the lowest
    /// flipped offset.
    fn expect(&self, off: u64) -> Manifestation {
        match self.guards {
            Guards::Quarantined { user } => Manifestation::QuarantineCorrupt {
                freed_site: FREED_AT,
                alloc_site: QUARANTINED_AT,
                user,
                offset: off,
            },
            Guards::Pad { user, right_side } => Manifestation::PaddingCorrupt {
                alloc_site: PADDED_AT,
                user,
                right_side,
                offset: off,
            },
            Guards::Mark => Manifestation::MarkCorrupt {
                addr: self.start.offset(off),
            },
        }
    }

    /// Offsets to flip: the first and last byte of the range and of each
    /// page it touches (so both sides of every page boundary), and every
    /// lane of the first eight bytes, of an address-aligned word in the
    /// middle and of the last eight bytes.
    fn positions(&self) -> Vec<u64> {
        let (start, end) = (self.start.0, self.start.0 + self.len);
        let mut at = vec![0, self.len - 1];
        let mut boundary = (start / PAGE + 1) * PAGE;
        while boundary < end {
            at.extend([boundary - 1 - start, boundary - start]);
            boundary += PAGE;
        }
        let middle = (start + self.len / 2) / 8 * 8 - start;
        for lane in 0..8 {
            at.extend([lane, middle + lane, self.len - 8 + lane]);
        }
        at.sort_unstable();
        at.dedup();
        at
    }
}

struct Fixture {
    mem: SimMemory,
    ext: ExtAllocator,
    ranges: Vec<Range>,
}

fn fixture() -> Fixture {
    let mut mem = SimMemory::new();
    let heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
    let mut ext = ExtAllocator::attach(heap);
    let mut clock = Clock::new();
    let site = |id| CallSite([id, 0, 0]);

    // Normal mode: a real free leaves a multi-page free chunk, kept apart
    // from the top chunk by `_hold`. Everything allocated later is too
    // large to be carved from it.
    let freed = ext
        .malloc(&mut mem, &mut clock, 2 * PAGE + 100, site(1))
        .unwrap();
    let _hold = ext.malloc(&mut mem, &mut clock, 24, site(2)).unwrap();
    ext.free(&mut mem, &mut clock, freed, site(3)).unwrap();

    ext.set_diagnostic(ChangePlan {
        dangling_write: Mode::Expose,
        ..ChangePlan::none()
    });
    let quarantined = ext
        .malloc(&mut mem, &mut clock, QUARANTINED_SIZE, QUARANTINED_AT)
        .unwrap();
    ext.free(&mut mem, &mut clock, quarantined, FREED_AT)
        .unwrap();

    ext.set_diagnostic(ChangePlan {
        overflow: Mode::Expose,
        ..ChangePlan::none()
    });
    ext.set_padding(PAD);
    let padded = ext
        .malloc(&mut mem, &mut clock, PADDED_SIZE, PADDED_AT)
        .unwrap();
    ext.mark_heap(&mut mem).unwrap();

    let chunks = ext.heap().walk(&mut mem).unwrap();
    let free = chunks
        .iter()
        .find(|c| !c.in_use && !c.is_top)
        .expect("the freed chunk stays free");
    assert!(free.usable() > 2 * PAGE);
    let ranges = vec![
        Range {
            guards: Guards::Quarantined { user: quarantined },
            start: quarantined,
            len: QUARANTINED_SIZE,
        },
        Range {
            guards: Guards::Pad {
                user: padded,
                right_side: false,
            },
            start: padded.back(PAD),
            len: PAD,
        },
        Range {
            guards: Guards::Pad {
                user: padded,
                right_side: true,
            },
            start: padded.offset(PADDED_SIZE),
            len: PAD,
        },
        Range {
            guards: Guards::Mark,
            start: free.user,
            len: free.usable(),
        },
    ];
    for r in &ranges {
        assert!(!r.start.is_aligned(PAGE), "{r:?} must start mid-page");
        assert!(
            r.start.page() + 2 <= r.start.offset(r.len - 1).page(),
            "{r:?} must span at least three pages"
        );
    }
    assert!(!ranges[1].len.is_multiple_of(8) && !ranges[2].start.is_aligned(8));
    assert!(!ranges[0].len.is_multiple_of(8));
    ext.scan(&mut mem).unwrap();
    assert!(
        ext.manifestations().is_empty(),
        "the untouched state is clean"
    );
    Fixture { mem, ext, ranges }
}

/// Flips the bytes at `offs` of `range` in a clone of the fixture, and
/// returns what `scan` reports.
fn scan_with_flips(fx: &Fixture, range: &Range, offs: &[u64]) -> Vec<Manifestation> {
    let mut mem = fx.mem.clone();
    let mut ext = fx.ext.clone();
    for &off in offs {
        // One bit, a different one per lane: the smallest possible damage.
        let flipped = CANARY_BYTE ^ (1 << (off % 8));
        mem.write_u8(range.start.offset(off), flipped).unwrap();
    }
    ext.scan(&mut mem).unwrap();
    ext.manifestations().to_vec()
}

#[test]
fn every_single_flip_is_reported_once_at_its_offset() {
    let fx = fixture();
    for range in &fx.ranges {
        for off in range.positions() {
            assert_eq!(
                scan_with_flips(&fx, range, &[off]),
                vec![range.expect(off)],
                "flip at offset {off} of {range:?}"
            );
        }
    }
}

#[test]
fn two_flips_report_the_lower_offset() {
    let fx = fixture();
    for range in &fx.ranges {
        let at = range.positions();
        // Neighbouring positions (two lanes of one word, or the two sides
        // of a page boundary) and the range's two ends.
        let pairs = at.windows(2).map(|w| (w[0], w[1]));
        for (lo, hi) in pairs.chain([(0, range.len - 1)]) {
            for offs in [[lo, hi], [hi, lo]] {
                assert_eq!(
                    scan_with_flips(&fx, range, &offs),
                    vec![range.expect(lo)],
                    "flips at offsets {offs:?} of {range:?}"
                );
            }
        }
    }
}
