//! Physical memory: the functional backing store.
//!
//! The workspace uses a functional/timing split: caches and DRAM model
//! *timing* with tag arrays and delay queues, while all *data* lives here in
//! a single sparse page-granular byte store. Loads read the backing store at
//! completion time, stores are staged per core in a [`WriteStage`] and
//! applied in deterministic core order at the end of the cycle, and atomics
//! are applied at the shared L2 — the single serialization point — so
//! parallel kernels compute bit-exact results regardless of cache state.
//! Cores only ever *read* `PhysMem` while they tick: staging is the
//! simulator's store-visibility rule, not a host-threading device.

use maple_sim::hash::FxHashMap;

/// Size of a physical page in bytes (4 KiB, as on the paper's RISC-V SoC).
pub const PAGE_SIZE: u64 = 4096;

/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PAddr(pub u64);

impl PAddr {
    /// The page frame number containing this address.
    #[must_use]
    pub fn frame(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Offset within the page.
    #[must_use]
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// The address rounded down to its cache-line base.
    #[must_use]
    pub fn line_base(self) -> PAddr {
        PAddr(self.0 & !(LINE_SIZE - 1))
    }

    /// Byte offset within the cache line.
    #[must_use]
    pub fn line_offset(self) -> u64 {
        self.0 % LINE_SIZE
    }

    /// Address advanced by `n` bytes.
    #[must_use]
    pub fn offset(self, n: u64) -> PAddr {
        PAddr(self.0 + n)
    }
}

impl std::fmt::Display for PAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// Atomic read-modify-write operations, executed at the shared L2.
///
/// These model the RISC-V A-extension operations the kernels need: fetch-add
/// for barriers and work distribution, swap/CAS for locks and BFS visited
/// flags, min/max for relaxation updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoKind {
    /// Fetch-and-add: returns old value, stores `old + operand`.
    Add,
    /// Swap: returns old value, stores `operand`.
    Swap,
    /// Compare-and-swap: if `old == expected` stores `operand`; returns old.
    Cas {
        /// Value the memory word must hold for the swap to occur.
        expected: u64,
    },
    /// Unsigned fetch-min.
    MinU,
    /// Unsigned fetch-max.
    MaxU,
}

/// Sparse physical memory.
///
/// Pages materialize on first touch, zero-filled — the same observable
/// behaviour as the 1 GB FPGA DRAM after Linux hands out fresh pages.
///
/// # Example
///
/// ```
/// use maple_mem::phys::{PAddr, PhysMem};
///
/// let mut m = PhysMem::new();
/// m.write_u64(PAddr(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(PAddr(0x1000)), 0xdead_beef);
/// assert_eq!(m.read_u64(PAddr(0x2000)), 0, "untouched memory reads zero");
/// ```
#[derive(Debug, Default)]
pub struct PhysMem {
    pages: FxHashMap<u64, Box<[u8]>>,
}

impl PhysMem {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        PhysMem {
            pages: FxHashMap::default(),
        }
    }

    /// Number of pages materialized so far.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, frame: u64) -> &mut [u8] {
        self.pages
            .entry(frame)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    fn page(&self, frame: u64) -> Option<&[u8]> {
        self.pages.get(&frame).map(|p| &p[..])
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: PAddr) -> u8 {
        self.page(addr.frame())
            .map_or(0, |p| p[addr.page_offset() as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: PAddr, value: u8) {
        let off = addr.page_offset() as usize;
        self.page_mut(addr.frame())[off] = value;
    }

    /// Reads `len` bytes (may straddle pages) into a vector, one page
    /// lookup per page touched.
    #[must_use]
    pub fn read_bytes(&self, addr: PAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let at = addr.offset(out.len() as u64);
            let off = at.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(len - out.len());
            match self.page(at.frame()) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
        }
        out
    }

    /// Writes a byte slice (may straddle pages), one page lookup per page
    /// touched.
    pub fn write_bytes(&mut self, addr: PAddr, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let at = addr.offset(done as u64);
            let off = at.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(bytes.len() - done);
            self.page_mut(at.frame())[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    /// Reads a naturally-ordered little-endian value of `size` bytes
    /// (1, 2, 4 or 8), zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn read_uint(&self, addr: PAddr, size: u8) -> u64 {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        let mut v = 0u64;
        for i in (0..u64::from(size)).rev() {
            v = (v << 8) | u64::from(self.read_u8(addr.offset(i)));
        }
        v
    }

    /// Writes the low `size` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write_uint(&mut self, addr: PAddr, size: u8, value: u64) {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        for i in 0..u64::from(size) {
            self.write_u8(addr.offset(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads a 64-bit little-endian word.
    #[must_use]
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: PAddr, value: u64) {
        self.write_uint(addr, 8, value);
    }

    /// Reads a 32-bit little-endian word.
    #[must_use]
    pub fn read_u32(&self, addr: PAddr) -> u32 {
        self.read_uint(addr, 4) as u32
    }

    /// Writes a 32-bit little-endian word.
    pub fn write_u32(&mut self, addr: PAddr, value: u32) {
        self.write_uint(addr, 4, u64::from(value));
    }

    /// Applies an atomic read-modify-write of `size` bytes and returns the
    /// previous value.
    ///
    /// The simulator is single-threaded so the operation is trivially
    /// atomic; what matters architecturally is that *all* AMOs funnel
    /// through the shared L2, giving a single serialization order.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 4 or 8 (RISC-V A-extension widths).
    pub fn amo(&mut self, addr: PAddr, size: u8, kind: AmoKind, operand: u64) -> u64 {
        assert!(matches!(size, 4 | 8), "AMO size must be 4 or 8, got {size}");
        let old = self.read_uint(addr, size);
        let new = match kind {
            AmoKind::Add => old.wrapping_add(operand),
            AmoKind::Swap => operand,
            AmoKind::Cas { expected } => {
                if old == expected {
                    operand
                } else {
                    old
                }
            }
            AmoKind::MinU => old.min(operand),
            AmoKind::MaxU => old.max(operand),
        };
        self.write_uint(addr, size, new);
        old
    }
}

/// A per-core buffer of plain stores accepted this cycle, applied to
/// [`PhysMem`] in deterministic core order at the end of the cycle.
///
/// This is what lets every core (and engine) of a cycle tick against a
/// shared `&PhysMem`: the only memory *writer* on the core side — the L1
/// write-through store path — pushes here instead of mutating the backing
/// store, and the simulation hub drains every stage (cores in ascending
/// index order) before the shared L2 ticks. A store therefore becomes
/// visible to *other* agents exactly one cycle after acceptance, and to
/// its own core on the next cycle it can possibly issue a load (an
/// in-order core never loads on the cycle it stores) — identical timing
/// whether the system is stepped densely or with event-horizon skipping.
/// Writing stores live instead would let a core that ticks later in the
/// same cycle see them a cycle early.
#[derive(Debug, Default)]
pub struct WriteStage {
    writes: Vec<(PAddr, u8, u64)>,
}

impl WriteStage {
    /// Creates an empty stage.
    #[must_use]
    pub fn new() -> Self {
        WriteStage { writes: Vec::new() }
    }

    /// Stages a little-endian write of the low `size` bytes of `value`.
    pub fn push(&mut self, addr: PAddr, size: u8, value: u64) {
        self.writes.push((addr, size, value));
    }

    /// Applies every staged write in push order and empties the stage.
    pub fn apply(&mut self, mem: &mut PhysMem) {
        for (addr, size, value) in self.writes.drain(..) {
            mem.write_uint(addr, size, value);
        }
    }

    /// Number of writes currently staged.
    #[must_use]
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether the stage holds no writes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paddr_helpers() {
        let a = PAddr(0x1234);
        assert_eq!(a.frame(), 1);
        assert_eq!(a.page_offset(), 0x234);
        assert_eq!(a.line_base(), PAddr(0x1200));
        assert_eq!(a.line_offset(), 0x34);
        assert_eq!(a.offset(4), PAddr(0x1238));
        assert_eq!(a.to_string(), "pa:0x1234");
    }

    #[test]
    fn zero_fill_semantics() {
        let m = PhysMem::new();
        assert_eq!(m.read_u64(PAddr(0x0dea_d000)), 0);
        assert_eq!(m.resident_pages(), 0, "reads do not materialize pages");
    }

    #[test]
    fn read_write_roundtrip_all_sizes() {
        let mut m = PhysMem::new();
        for (size, val) in [
            (1u8, 0xabu64),
            (2, 0xbeef),
            (4, 0xdead_beef),
            (8, u64::MAX - 5),
        ] {
            let addr = PAddr(0x4000 + u64::from(size) * 64);
            m.write_uint(addr, size, val);
            assert_eq!(m.read_uint(addr, size), val);
        }
    }

    #[test]
    fn partial_width_masks_value() {
        let mut m = PhysMem::new();
        m.write_uint(PAddr(0x100), 2, 0xffff_ffff);
        assert_eq!(m.read_uint(PAddr(0x100), 2), 0xffff);
        assert_eq!(m.read_u8(PAddr(0x102)), 0, "adjacent bytes untouched");
    }

    #[test]
    fn cross_page_access() {
        let mut m = PhysMem::new();
        let addr = PAddr(PAGE_SIZE - 4);
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = PhysMem::new();
        let data: Vec<u8> = (0..100).collect();
        m.write_bytes(PAddr(0x7ff0), &data);
        assert_eq!(m.read_bytes(PAddr(0x7ff0), 100), data);
    }

    #[test]
    fn amo_add_swap() {
        let mut m = PhysMem::new();
        let a = PAddr(0x100);
        m.write_u64(a, 10);
        assert_eq!(m.amo(a, 8, AmoKind::Add, 5), 10);
        assert_eq!(m.read_u64(a), 15);
        assert_eq!(m.amo(a, 8, AmoKind::Swap, 99), 15);
        assert_eq!(m.read_u64(a), 99);
    }

    #[test]
    fn amo_cas() {
        let mut m = PhysMem::new();
        let a = PAddr(0x200);
        m.write_u32(a, 7);
        // Failing CAS leaves memory unchanged.
        assert_eq!(m.amo(a, 4, AmoKind::Cas { expected: 8 }, 1), 7);
        assert_eq!(m.read_u32(a), 7);
        // Succeeding CAS stores the new value.
        assert_eq!(m.amo(a, 4, AmoKind::Cas { expected: 7 }, 1), 7);
        assert_eq!(m.read_u32(a), 1);
    }

    #[test]
    fn amo_min_max() {
        let mut m = PhysMem::new();
        let a = PAddr(0x300);
        m.write_u64(a, 50);
        assert_eq!(m.amo(a, 8, AmoKind::MinU, 40), 50);
        assert_eq!(m.read_u64(a), 40);
        assert_eq!(m.amo(a, 8, AmoKind::MaxU, 45), 40);
        assert_eq!(m.read_u64(a), 45);
    }

    #[test]
    fn amo_32bit_wraps() {
        let mut m = PhysMem::new();
        let a = PAddr(0x400);
        m.write_u32(a, u32::MAX);
        m.amo(a, 4, AmoKind::Add, 1);
        // 32-bit add wraps within the stored 4 bytes.
        assert_eq!(m.read_u32(a), 0);
        assert_eq!(m.read_u8(a.offset(4)), 0, "no spill into next word");
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn bad_size_panics() {
        let _ = PhysMem::new().read_uint(PAddr(0), 3);
    }
}
