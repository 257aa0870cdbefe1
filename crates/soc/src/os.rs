//! Minimal OS services: an SMP process address space with eager and lazy
//! (demand-paged) allocation, MMIO mapping of MAPLE instances, and the
//! page-fault handling the MAPLE driver performs.
//!
//! Stands in for the SMP Linux of the FPGA evaluation: same observable
//! behaviour at the points the paper depends on — user-mode MMIO mappings
//! per MAPLE instance, demand paging with fault service, and TLB
//! shootdowns forwarded to engine MMUs.

use maple_mem::phys::{PAddr, PhysMem, PAGE_SIZE};
use maple_vm::page_table::{FrameAllocator, PageFlags, PageTable};
use maple_vm::VAddr;

/// Base of the process heap.
const HEAP_BASE: u64 = 0x4000_0000;
/// Base of the MMIO mapping area.
const MMIO_BASE: u64 = 0x7000_0000;

/// A process address space.
#[derive(Debug)]
pub struct AddressSpace {
    pt: PageTable,
    next_heap: u64,
    next_mmio: u64,
    /// Ranges allocated lazily: touched pages fault and are mapped on
    /// demand by [`AddressSpace::handle_fault`].
    lazy: Vec<(u64, u64)>,
}

impl AddressSpace {
    /// Creates an empty address space with a fresh root table.
    #[must_use]
    pub fn new(mem: &mut PhysMem, frames: &mut FrameAllocator) -> Self {
        AddressSpace {
            pt: PageTable::new(mem, frames),
            next_heap: HEAP_BASE,
            next_mmio: MMIO_BASE,
            lazy: Vec::new(),
        }
    }

    /// The page-table handle (programmed into core and engine MMUs).
    #[must_use]
    pub fn page_table(&self) -> PageTable {
        self.pt
    }

    /// Allocates `bytes` of zeroed heap, eagerly mapping every page
    /// (what the evaluation programs do before timing starts).
    pub fn alloc(&mut self, mem: &mut PhysMem, frames: &mut FrameAllocator, bytes: u64) -> VAddr {
        let va = self.reserve(bytes);
        let pages = bytes.div_ceil(PAGE_SIZE);
        // Allocate all data frames first so they are physically
        // contiguous (page-table nodes allocated during mapping would
        // otherwise interleave) — large eager allocations behave like
        // hugepage-backed buffers, which DROPLET's range watches rely on.
        let data_frames: Vec<_> = (0..pages).map(|_| frames.alloc(mem)).collect();
        for (i, frame) in data_frames.into_iter().enumerate() {
            self.pt.map(
                mem,
                frames,
                VAddr(va.0 + i as u64 * PAGE_SIZE),
                frame,
                PageFlags::rw(),
            );
        }
        va
    }

    /// Allocates `bytes` of *demand-paged* heap: pages are mapped by
    /// [`AddressSpace::handle_fault`] on first touch (exercises the fault
    /// path, including MAPLE-side faults).
    pub fn alloc_lazy(&mut self, bytes: u64) -> VAddr {
        let va = self.reserve(bytes);
        self.lazy.push((va.0, va.0 + bytes));
        va
    }

    fn reserve(&mut self, bytes: u64) -> VAddr {
        let bytes = bytes.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let va = VAddr(self.next_heap);
        self.next_heap += bytes;
        va
    }

    /// Maps a device page (a MAPLE instance) into user space; returns the
    /// user virtual address.
    pub fn map_device(
        &mut self,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        device_page: PAddr,
    ) -> VAddr {
        let va = VAddr(self.next_mmio);
        self.next_mmio += PAGE_SIZE;
        self.pt
            .map(mem, frames, va, device_page, PageFlags::device());
        va
    }

    /// Services a page fault at `va`. Returns `true` when the address lay
    /// in a lazily-allocated range and is now mapped.
    pub fn handle_fault(
        &mut self,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        va: VAddr,
    ) -> bool {
        let inside = self.lazy.iter().any(|&(lo, hi)| va.0 >= lo && va.0 < hi);
        if !inside {
            return false;
        }
        let page_va = VAddr(va.0 & !(PAGE_SIZE - 1));
        if self.pt.translate(mem, page_va).is_ok() {
            return true; // already mapped (racing faulters)
        }
        let frame = frames.alloc(mem);
        self.pt.map(mem, frames, page_va, frame, PageFlags::rw());
        true
    }

    /// Functional translation (for host-side data initialization).
    #[must_use]
    pub fn translate(&self, mem: &PhysMem, va: VAddr) -> Option<PAddr> {
        self.pt.translate(mem, va).ok().map(|t| t.paddr)
    }

    /// Unmaps one page (e.g. a poisoned device mapping). Returns whether
    /// the page was mapped.
    pub fn unmap(&mut self, mem: &mut PhysMem, va: VAddr) -> bool {
        self.pt.unmap(mem, va)
    }

    /// The heap span allocated so far, `[HEAP_BASE, next)`. The fault
    /// plane draws TLB-shootdown targets from this range.
    #[must_use]
    pub fn heap_span(&self) -> (u64, u64) {
        (HEAP_BASE, self.next_heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, FrameAllocator, AddressSpace) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PAddr(0x100_0000), 64 << 20);
        let aspace = AddressSpace::new(&mut mem, &mut frames);
        (mem, frames, aspace)
    }

    #[test]
    fn eager_alloc_is_mapped_and_zeroed() {
        let (mut mem, mut frames, mut aspace) = setup();
        let va = aspace.alloc(&mut mem, &mut frames, 3 * PAGE_SIZE + 5);
        for page in 0..4 {
            let pa = aspace
                .translate(&mem, VAddr(va.0 + page * PAGE_SIZE))
                .expect("mapped");
            assert_eq!(mem.read_u64(pa), 0);
        }
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut mem, mut frames, mut aspace) = setup();
        let a = aspace.alloc(&mut mem, &mut frames, 100);
        let b = aspace.alloc(&mut mem, &mut frames, 100);
        assert!(b.0 >= a.0 + PAGE_SIZE, "page-granular separation");
        let pa_a = aspace.translate(&mem, a).unwrap();
        let pa_b = aspace.translate(&mem, b).unwrap();
        assert_ne!(pa_a.frame(), pa_b.frame());
    }

    #[test]
    fn lazy_alloc_faults_then_maps() {
        let (mut mem, mut frames, mut aspace) = setup();
        let va = aspace.alloc_lazy(2 * PAGE_SIZE);
        assert!(
            aspace.translate(&mem, va).is_none(),
            "unmapped before touch"
        );
        assert!(aspace.handle_fault(&mut mem, &mut frames, VAddr(va.0 + 8)));
        assert!(aspace.translate(&mem, va).is_some());
        // Second page still unmapped until touched.
        assert!(aspace.translate(&mem, VAddr(va.0 + PAGE_SIZE)).is_none());
        // Faults outside any lazy region are not ours.
        assert!(!aspace.handle_fault(&mut mem, &mut frames, VAddr(0x100)));
    }

    #[test]
    fn device_mapping_has_mmio_flags() {
        let (mut mem, mut frames, mut aspace) = setup();
        let va = aspace.map_device(&mut mem, &mut frames, PAddr(0xF000_0000));
        let t = aspace.page_table().translate(&mem, va).unwrap();
        assert!(t.flags.mmio);
        assert_eq!(t.paddr, PAddr(0xF000_0000));
    }

    #[test]
    fn double_fault_is_idempotent() {
        let (mut mem, mut frames, mut aspace) = setup();
        let va = aspace.alloc_lazy(PAGE_SIZE);
        assert!(aspace.handle_fault(&mut mem, &mut frames, va));
        let pa1 = aspace.translate(&mem, va).unwrap();
        assert!(aspace.handle_fault(&mut mem, &mut frames, va));
        assert_eq!(aspace.translate(&mem, va).unwrap(), pa1);
    }
}
