//! Three-level page tables stored inside simulated physical memory.
//!
//! Table nodes are 4 KiB pages of 512 eight-byte PTEs, allocated from a
//! [`FrameAllocator`], exactly as an OS builds Sv39 tables. Because the
//! tables live in [`PhysMem`], the hardware page-table walkers (core-side
//! and MAPLE-side) walk the same bytes the OS wrote.

use maple_mem::phys::{PAddr, PhysMem, PAGE_SIZE};

use crate::addr::VAddr;

/// Page permission and attribute bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// User-mode accessible.
    pub user: bool,
    /// Memory-mapped IO (MAPLE instance pages); accesses are routed to a
    /// device rather than memory.
    pub mmio: bool,
}

impl PageFlags {
    /// Read-write user data.
    #[must_use]
    pub fn rw() -> Self {
        PageFlags {
            read: true,
            write: true,
            user: true,
            mmio: false,
        }
    }

    /// Read-only user data.
    #[must_use]
    pub fn ro() -> Self {
        PageFlags {
            read: true,
            write: false,
            user: true,
            mmio: false,
        }
    }

    /// A user-mapped MMIO device page (how the OS exposes a MAPLE
    /// instance).
    #[must_use]
    pub fn device() -> Self {
        PageFlags {
            read: true,
            write: true,
            user: true,
            mmio: true,
        }
    }

    fn encode(self) -> u64 {
        (u64::from(self.read) << 1)
            | (u64::from(self.write) << 2)
            | (u64::from(self.user) << 4)
            | (u64::from(self.mmio) << 5)
    }

    fn decode(pte: u64) -> Self {
        PageFlags {
            read: pte & (1 << 1) != 0,
            write: pte & (1 << 2) != 0,
            user: pte & (1 << 4) != 0,
            mmio: pte & (1 << 5) != 0,
        }
    }
}

const PTE_VALID: u64 = 1;
const PTE_PPN_SHIFT: u64 = 10;

/// The reason a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// No valid mapping exists for the page.
    NotMapped(VAddr),
    /// A mapping exists but forbids the attempted access.
    Protection(VAddr),
}

impl std::fmt::Display for PageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageFault::NotMapped(va) => write!(f, "page fault: {va} not mapped"),
            PageFault::Protection(va) => write!(f, "page fault: {va} protection violation"),
        }
    }
}

impl std::error::Error for PageFault {}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: PAddr,
    /// Flags of the containing page.
    pub flags: PageFlags,
}

/// Hands out free physical frames for data pages and page-table nodes.
///
/// A simple bump allocator over a physical range — the simulator's stand-in
/// for the kernel's frame allocator.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    next: u64,
    limit: u64,
}

impl FrameAllocator {
    /// Manages frames in `[start, start + len)` (byte addresses,
    /// page-aligned).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or unaligned.
    #[must_use]
    pub fn new(start: PAddr, len: u64) -> Self {
        assert!(len >= PAGE_SIZE, "allocator needs at least one frame");
        assert_eq!(start.0 % PAGE_SIZE, 0, "start must be page-aligned");
        FrameAllocator {
            next: start.0,
            limit: start.0 + len,
        }
    }

    /// Allocates one zeroed frame.
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted (simulation
    /// misconfiguration).
    pub fn alloc(&mut self, mem: &mut PhysMem) -> PAddr {
        assert!(
            self.next + PAGE_SIZE <= self.limit,
            "physical memory exhausted"
        );
        let frame = PAddr(self.next);
        self.next += PAGE_SIZE;
        // Ensure the frame reads as zero even if re-used in a later epoch.
        mem.write_bytes(frame, &[0u8; PAGE_SIZE as usize]);
        frame
    }

    /// Bytes still available.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.limit - self.next
    }
}

/// A three-level page table rooted at a physical frame.
///
/// # Example
///
/// ```
/// use maple_mem::phys::{PAddr, PhysMem};
/// use maple_vm::page_table::{FrameAllocator, PageFlags, PageTable};
/// use maple_vm::VAddr;
///
/// let mut mem = PhysMem::new();
/// let mut frames = FrameAllocator::new(PAddr(0x10_0000), 1 << 20);
/// let mut pt = PageTable::new(&mut mem, &mut frames);
/// pt.map(&mut mem, &mut frames, VAddr(0x4000), PAddr(0x8000), PageFlags::rw());
/// let t = pt.translate(&mem, VAddr(0x4008)).unwrap();
/// assert_eq!(t.paddr, PAddr(0x8008));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PageTable {
    root: PAddr,
}

impl PageTable {
    /// Allocates an empty root table.
    #[must_use]
    pub fn new(mem: &mut PhysMem, frames: &mut FrameAllocator) -> Self {
        PageTable {
            root: frames.alloc(mem),
        }
    }

    /// The physical address of the root node (the value an OS would load
    /// into `satp`, and the register the MAPLE driver programs into the
    /// engine's MMU).
    #[must_use]
    pub fn root(&self) -> PAddr {
        self.root
    }

    /// Reconstructs a handle from a raw root address — what a hardware MMU
    /// does when the driver programs its root register.
    #[must_use]
    pub fn from_root(root: PAddr) -> Self {
        PageTable { root }
    }

    fn pte_addr(table: PAddr, index: u64) -> PAddr {
        PAddr(table.0 + index * 8)
    }

    /// Maps the page containing `va` to the frame containing `pa`.
    ///
    /// Remapping an already-mapped page overwrites the mapping (as the
    /// kernel does on `mprotect`/`mmap` over an existing range).
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not page-aligned.
    pub fn map(
        &mut self,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        va: VAddr,
        pa: PAddr,
        flags: PageFlags,
    ) {
        assert_eq!(pa.0 % PAGE_SIZE, 0, "frame must be page-aligned");
        let mut table = self.root;
        for level in [2u8, 1] {
            let slot = Self::pte_addr(table, va.vpn_index(level));
            let pte = mem.read_u64(slot);
            if pte & PTE_VALID == 0 {
                let node = frames.alloc(mem);
                mem.write_u64(slot, (node.0 >> 12) << PTE_PPN_SHIFT | PTE_VALID);
                table = node;
            } else {
                table = PAddr((pte >> PTE_PPN_SHIFT) << 12);
            }
        }
        let leaf = Self::pte_addr(table, va.vpn_index(0));
        mem.write_u64(
            leaf,
            (pa.0 >> 12) << PTE_PPN_SHIFT | flags.encode() | PTE_VALID,
        );
    }

    /// Removes the mapping for the page containing `va`; returns whether a
    /// mapping existed.
    pub fn unmap(&mut self, mem: &mut PhysMem, va: VAddr) -> bool {
        let mut table = self.root;
        for level in [2u8, 1] {
            let pte = mem.read_u64(Self::pte_addr(table, va.vpn_index(level)));
            if pte & PTE_VALID == 0 {
                return false;
            }
            table = PAddr((pte >> PTE_PPN_SHIFT) << 12);
        }
        let leaf = Self::pte_addr(table, va.vpn_index(0));
        let pte = mem.read_u64(leaf);
        if pte & PTE_VALID == 0 {
            return false;
        }
        mem.write_u64(leaf, 0);
        true
    }

    /// Walks the table for `va`.
    ///
    /// This is the functional walk shared by the core PTW, the MAPLE PTW
    /// and the OS fault handler; timing is charged by the caller
    /// ([`crate::walker`]).
    ///
    /// # Errors
    ///
    /// Returns [`PageFault::NotMapped`] when any level is invalid.
    pub fn translate(&self, mem: &PhysMem, va: VAddr) -> Result<Translation, PageFault> {
        let mut table = self.root;
        for level in [2u8, 1] {
            let pte = mem.read_u64(Self::pte_addr(table, va.vpn_index(level)));
            if pte & PTE_VALID == 0 {
                return Err(PageFault::NotMapped(va));
            }
            table = PAddr((pte >> PTE_PPN_SHIFT) << 12);
        }
        let pte = mem.read_u64(Self::pte_addr(table, va.vpn_index(0)));
        if pte & PTE_VALID == 0 {
            return Err(PageFault::NotMapped(va));
        }
        let base = PAddr((pte >> PTE_PPN_SHIFT) << 12);
        Ok(Translation {
            paddr: base.offset(va.page_offset()),
            flags: PageFlags::decode(pte),
        })
    }

    /// Translates and checks the access kind (`write == true` for stores).
    ///
    /// # Errors
    ///
    /// Returns [`PageFault::NotMapped`] for missing mappings and
    /// [`PageFault::Protection`] when permissions forbid the access.
    pub fn translate_checked(
        &self,
        mem: &PhysMem,
        va: VAddr,
        write: bool,
    ) -> Result<Translation, PageFault> {
        let t = self.translate(mem, va)?;
        let ok = if write { t.flags.write } else { t.flags.read };
        if ok {
            Ok(t)
        } else {
            Err(PageFault::Protection(va))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, FrameAllocator, PageTable) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PAddr(0x100_0000), 8 << 20);
        let pt = PageTable::new(&mut mem, &mut frames);
        (mem, frames, pt)
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut mem, mut frames, mut pt) = setup();
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0x4000),
            PAddr(0x9000),
            PageFlags::rw(),
        );
        let t = pt.translate(&mem, VAddr(0x4abc)).unwrap();
        assert_eq!(t.paddr, PAddr(0x9abc));
        assert!(t.flags.write);
        assert!(!t.flags.mmio);
    }

    #[test]
    fn unmapped_faults() {
        let (mem, _frames, pt) = setup();
        assert_eq!(
            pt.translate(&mem, VAddr(0x7000)),
            Err(PageFault::NotMapped(VAddr(0x7000)))
        );
    }

    #[test]
    fn protection_fault_on_readonly_store() {
        let (mut mem, mut frames, mut pt) = setup();
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0x1000),
            PAddr(0x8000),
            PageFlags::ro(),
        );
        assert!(pt.translate_checked(&mem, VAddr(0x1000), false).is_ok());
        assert_eq!(
            pt.translate_checked(&mem, VAddr(0x1000), true),
            Err(PageFault::Protection(VAddr(0x1000)))
        );
        let msg = PageFault::Protection(VAddr(0x1000)).to_string();
        assert!(msg.contains("protection"));
    }

    #[test]
    fn distant_pages_share_nothing() {
        let (mut mem, mut frames, mut pt) = setup();
        // Far apart in vpn2 space: exercises multi-node allocation.
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0x40_0000_0000),
            PAddr(0x8000),
            PageFlags::rw(),
        );
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0x1000),
            PAddr(0xa000),
            PageFlags::rw(),
        );
        assert_eq!(
            pt.translate(&mem, VAddr(0x40_0000_0010)).unwrap().paddr,
            PAddr(0x8010)
        );
        assert_eq!(
            pt.translate(&mem, VAddr(0x1004)).unwrap().paddr,
            PAddr(0xa004)
        );
    }

    #[test]
    fn unmap_then_fault() {
        let (mut mem, mut frames, mut pt) = setup();
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0x2000),
            PAddr(0xb000),
            PageFlags::rw(),
        );
        assert!(pt.unmap(&mut mem, VAddr(0x2000)));
        assert!(!pt.unmap(&mut mem, VAddr(0x2000)), "double unmap is no-op");
        assert!(pt.translate(&mem, VAddr(0x2000)).is_err());
    }

    #[test]
    fn remap_overwrites() {
        let (mut mem, mut frames, mut pt) = setup();
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0x3000),
            PAddr(0xc000),
            PageFlags::rw(),
        );
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0x3000),
            PAddr(0xd000),
            PageFlags::ro(),
        );
        let t = pt.translate(&mem, VAddr(0x3000)).unwrap();
        assert_eq!(t.paddr, PAddr(0xd000));
        assert!(!t.flags.write);
    }

    #[test]
    fn device_flags_roundtrip() {
        let (mut mem, mut frames, mut pt) = setup();
        pt.map(
            &mut mem,
            &mut frames,
            VAddr(0xf000),
            PAddr(0xe000),
            PageFlags::device(),
        );
        let t = pt.translate(&mem, VAddr(0xf010)).unwrap();
        assert!(t.flags.mmio);
        assert!(t.flags.user);
    }

    #[test]
    fn allocator_exhaustion_panics() {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PAddr(0x1000), PAGE_SIZE);
        let _ = frames.alloc(&mut mem);
        assert_eq!(frames.remaining(), 0);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| frames.alloc(&mut mem)));
        assert!(result.is_err());
    }

    #[test]
    fn two_tables_are_isolated() {
        let (mut mem, mut frames, mut pt1) = setup();
        let mut pt2 = PageTable::new(&mut mem, &mut frames);
        pt1.map(
            &mut mem,
            &mut frames,
            VAddr(0x5000),
            PAddr(0x9000),
            PageFlags::rw(),
        );
        pt2.map(
            &mut mem,
            &mut frames,
            VAddr(0x5000),
            PAddr(0xa000),
            PageFlags::rw(),
        );
        assert_eq!(
            pt1.translate(&mem, VAddr(0x5000)).unwrap().paddr,
            PAddr(0x9000)
        );
        assert_eq!(
            pt2.translate(&mem, VAddr(0x5000)).unwrap().paddr,
            PAddr(0xa000)
        );
    }
}
