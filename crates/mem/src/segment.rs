//! Segment storage for the [`Arena`](crate::Arena).
//!
//! A [`Segment`] is one contiguous run of nodes. The arena adds one each
//! time its free list runs dry and frees them only when it drops: nodes
//! never move and are never unmapped while the arena lives, which is the
//! type stability the §5 protocol relies on (see the crate docs).
//!
//! Because segments are long-lived and fixed in place, large ones are
//! safe to back with 2 MiB pages. A segment of [`HUGE_PAGE`] bytes or more
//! starts on a 2 MiB boundary, and on Linux its whole-2-MiB prefix is
//! advised `MADV_HUGEPAGE` before any node is written, so the first touch
//! of each 2 MiB can fault in one transparent huge page: a pointer chase
//! over a large arena then needs one TLB entry per 2 MiB instead of one
//! per 4 KiB. The tail past the last 2 MiB boundary keeps 4 KiB pages.
//! Smaller segments have the layout of a `Box<[N]>`, and no size is
//! rounded up, so resident memory does not grow.

use std::alloc::{self, Layout};
use std::ops::Deref;
use std::ptr::NonNull;

use crate::managed::Managed;

/// Size of one transparent huge page with 4 KiB base pages (x86-64,
/// aarch64). Segments at least this large are aligned to it.
const HUGE_PAGE: usize = 2 << 20;

/// A fixed block of `len` initialized nodes, owned like a `Box<[N]>` and
/// read through `Deref<Target = [N]>`.
pub(crate) struct Segment<N> {
    nodes: NonNull<N>,
    len: usize,
}

// SAFETY: a segment owns its nodes exactly as a `Box<[N]>` does, so
// sending it sends them; the pointer is never shared with another owner.
unsafe impl<N: Send> Send for Segment<N> {}
// SAFETY: `&Segment` gives out only `&[N]`, exactly as `&Box<[N]>` does.
unsafe impl<N: Sync> Sync for Segment<N> {}

impl<N> Segment<N> {
    /// The layout of a `len`-node segment: the array layout, aligned to
    /// [`HUGE_PAGE`] once it spans one. Allocation and deallocation both
    /// derive it from `len`, so they always agree.
    fn layout(len: usize) -> Layout {
        let array = Layout::array::<N>(len).expect("segment size overflows isize");
        if array.size() >= HUGE_PAGE {
            array
                .align_to(HUGE_PAGE)
                .expect("2 MiB alignment fits any segment that passed Layout::array")
        } else {
            array
        }
    }
}

impl<N: Managed + Default> Segment<N> {
    /// Allocates `len` default nodes and threads them into one free
    /// chain, each node counted once for its incoming chain link.
    /// Returns the segment with the chain's head and tail; the caller
    /// splices the chain onto the free list, which takes over the head's
    /// count.
    pub(crate) fn with_free_chain(len: usize) -> (Self, *mut N, *mut N) {
        let layout = Self::layout(len);
        assert!(layout.size() > 0, "a segment holds at least one sized node");
        // COUNT: raw memory, not a counted node reference: the nodes
        // written into it below start detached, and each is counted once
        // for the chain link that reaches it.
        // SAFETY: the layout has non-zero size (asserted above).
        let raw = unsafe { alloc::alloc(layout) }.cast::<N>();
        let Some(nodes) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        if layout.align() == HUGE_PAGE {
            advise_huge_pages(raw.cast(), layout.size() & !(HUGE_PAGE - 1));
        }
        let mut head: *mut N = std::ptr::null_mut();
        let mut tail: *mut N = std::ptr::null_mut();
        for i in 0..len {
            // SAFETY: cell `i < len` lies in the fresh allocation, which
            // is still private to this call; it is written once here
            // before anything reads it. Fresh nodes are born detached
            // (count 0, claim set): install the chain's incoming-pointer
            // count, then link the node in front of the chain.
            unsafe {
                let p = raw.add(i);
                p.write(N::default());
                (*p).header().incr_ref();
                (*p).free_link().write(head);
                if tail.is_null() {
                    tail = p;
                }
                head = p;
            }
        }
        (Self { nodes, len }, head, tail)
    }
}

impl<N> Deref for Segment<N> {
    type Target = [N];

    fn deref(&self) -> &[N] {
        // SAFETY: construction initialized all `len` cells, and they stay
        // allocated and in place until `drop`.
        unsafe { std::slice::from_raw_parts(self.nodes.as_ptr(), self.len) }
    }
}

impl<N> Drop for Segment<N> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`: nothing else reaches the nodes. Each of the
        // `len` initialized cells is dropped once, then the memory is
        // freed with the layout it was allocated with (same `len`).
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.nodes.as_ptr(),
                self.len,
            ));
            alloc::dealloc(self.nodes.as_ptr().cast(), Self::layout(self.len));
        }
    }
}

/// Asks the kernel to back `len` bytes at `addr` with transparent huge
/// pages. What it does with the advice depends on
/// `/sys/kernel/mm/transparent_hugepage/enabled`: under `always` the
/// range gets huge pages with or without it, under `madvise` only because
/// of it, and under `never` it is ignored and the range keeps 4 KiB
/// pages. A failure (a kernel built without THP) is ignored the same way.
#[cfg(all(target_os = "linux", not(miri), not(loom)))]
fn advise_huge_pages(addr: *mut u8, len: usize) {
    use std::ffi::{c_int, c_void};
    /// The generic Linux value (`asm-generic/mman-common.h`).
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `addr` is page-aligned (2 MiB-aligned) and the range lies
    // inside a live allocation the caller owns. The advice changes only
    // how the kernel backs the pages, never their contents or mapping.
    unsafe {
        madvise(addr.cast(), len, MADV_HUGEPAGE);
    }
}

/// Miri and the loom shim model no kernel; elsewhere there is no THP.
#[cfg(not(all(target_os = "linux", not(miri), not(loom))))]
fn advise_huge_pages(_addr: *mut u8, _len: usize) {}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::managed::{Link, NodeHeader, ReclaimedLinks};
    use crate::{Arena, ArenaConfig};
    use std::collections::HashSet;
    use valois_sync::shim::atomic::{AtomicUsize, Ordering};

    /// A node with `B` payload bytes, so a few hundred nodes cross 2 MiB.
    struct Cell<const B: usize> {
        header: NodeHeader,
        next: Link<Self>,
        _payload: [u8; B],
    }

    impl<const B: usize> Default for Cell<B> {
        fn default() -> Self {
            Self {
                header: NodeHeader::default(),
                next: Link::null(),
                _payload: [0; B],
            }
        }
    }

    impl<const B: usize> Managed for Cell<B> {
        fn header(&self) -> &NodeHeader {
            &self.header
        }
        fn free_link(&self) -> &Link<Self> {
            &self.next
        }
        fn drain_links(&self) -> ReclaimedLinks<Self> {
            let mut links = ReclaimedLinks::new();
            links.push(self.next.swap(std::ptr::null_mut()));
            links
        }
        fn reset_for_alloc(&self) {
            self.next.write(std::ptr::null_mut());
        }
    }

    type Big = Cell<4096>;

    #[test]
    fn layout_aligns_from_one_huge_page_and_keeps_its_size() {
        let node = std::mem::size_of::<Cell<0>>();
        let at = HUGE_PAGE.div_ceil(node);
        for len in [1, 4096, at - 1, at, 3 * at] {
            let array = Layout::array::<Cell<0>>(len).unwrap();
            let layout = Segment::<Cell<0>>::layout(len);
            assert_eq!(layout.size(), array.size(), "len {len}: size unchanged");
            let want = if array.size() >= HUGE_PAGE {
                HUGE_PAGE
            } else {
                array.align()
            };
            assert_eq!(layout.align(), want, "len {len}");
        }
    }

    #[test]
    fn large_segment_starts_on_a_huge_page_boundary() {
        let len = 600; // 600 × > 4 KiB > 2 MiB
        let (seg, head, tail) = Segment::<Big>::with_free_chain(len);
        assert!(std::mem::size_of_val(&*seg) >= HUGE_PAGE);
        assert_eq!(seg.as_ptr() as usize % HUGE_PAGE, 0);
        // The chain threads every node once, head to tail, each counted
        // once for its incoming link.
        let mut seen = 0;
        let mut p = head;
        while !p.is_null() {
            seen += 1;
            // SAFETY: `p` is a node of the live segment `seg`.
            unsafe {
                assert_eq!((*p).header().refcount(), 1);
                if (*p).free_link().read().is_null() {
                    assert_eq!(p, tail);
                }
                p = (*p).free_link().read();
            }
        }
        assert_eq!(seen, len);
    }

    #[test]
    fn for_each_node_visits_every_node_of_every_segment() {
        let arena: Arena<Big> = Arena::with_config(ArenaConfig::new().initial_capacity(4));
        // 4 + 4 + 8 + ... + 512: the last segment crosses 2 MiB.
        let held: Vec<*mut Big> = (0..600).map(|_| arena.alloc().unwrap()).collect();
        assert_eq!(arena.capacity(), 1024);
        assert_eq!(arena.stats().grows, 9);
        let mut seen = HashSet::new();
        arena.for_each_node(|p| assert!(seen.insert(p as usize), "visited twice"));
        assert_eq!(seen.len(), arena.capacity());
        for p in held {
            assert!(seen.contains(&(p as usize)));
            // SAFETY: each pointer is the counted reference `alloc` gave.
            unsafe { arena.release(p) };
        }
    }

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    /// A `Big`-sized node that counts its drops in `DROPS`; only
    /// `teardown_drops_each_cell_once` builds it.
    struct Tracked {
        header: NodeHeader,
        next: Link<Self>,
        _payload: [u8; 4096],
    }

    impl Default for Tracked {
        fn default() -> Self {
            Self {
                header: NodeHeader::default(),
                next: Link::null(),
                _payload: [0; 4096],
            }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Managed for Tracked {
        fn header(&self) -> &NodeHeader {
            &self.header
        }
        fn free_link(&self) -> &Link<Self> {
            &self.next
        }
        fn drain_links(&self) -> ReclaimedLinks<Self> {
            let mut links = ReclaimedLinks::new();
            links.push(self.next.swap(std::ptr::null_mut()));
            links
        }
        fn reset_for_alloc(&self) {
            self.next.write(std::ptr::null_mut());
        }
    }

    #[test]
    fn teardown_drops_each_cell_once() {
        let arena: Arena<Tracked> = Arena::with_config(ArenaConfig::new().initial_capacity(4));
        for p in (0..600).map(|_| arena.alloc().unwrap()).collect::<Vec<_>>() {
            // SAFETY: each pointer is the counted reference `alloc` gave.
            unsafe { arena.release(p) };
        }
        let cells = arena.capacity();
        assert_eq!(DROPS.load(Ordering::Relaxed), 0, "no cell drops early");
        drop(arena);
        assert_eq!(DROPS.load(Ordering::Relaxed), cells);
    }
}
