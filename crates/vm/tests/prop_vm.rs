//! Property tests for virtual memory: page tables against a map model,
//! TLBs against the table they cache (shootdown coherence).

use maple_mem::phys::{PAddr, PhysMem, PAGE_SIZE};
use maple_testkit::{check, gen, tk_assert, tk_assert_eq, Config, Gen, SimRng};
use maple_vm::page_table::{FrameAllocator, PageFlags, PageTable};
use maple_vm::tlb::Tlb;
use maple_vm::{VAddr, VirtPage};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
enum VmOp {
    /// Map page `vpn` to a fresh frame.
    Map(u64),
    /// Unmap page `vpn`.
    Unmap(u64),
    /// Translate an address inside page `vpn`.
    Translate(u64, u64),
}

/// Generates VM operations over a 64-page window; shrinks page numbers
/// and offsets toward zero and demotes maps/unmaps to translations (the
/// read-only op).
struct VmOpGen;

impl Gen for VmOpGen {
    type Value = VmOp;

    fn generate(&self, rng: &mut SimRng) -> VmOp {
        let vpn = rng.below(64);
        match rng.below(3) {
            0 => VmOp::Map(vpn),
            1 => VmOp::Unmap(vpn),
            _ => VmOp::Translate(vpn, rng.below(PAGE_SIZE)),
        }
    }

    fn shrink(&self, op: &VmOp) -> Vec<VmOp> {
        let mut out = Vec::new();
        match *op {
            VmOp::Map(vpn) => {
                out.push(VmOp::Translate(vpn, 0));
                out.extend(gen::shrink_u64(vpn).into_iter().take(3).map(VmOp::Map));
            }
            VmOp::Unmap(vpn) => {
                out.push(VmOp::Translate(vpn, 0));
                out.extend(gen::shrink_u64(vpn).into_iter().take(3).map(VmOp::Unmap));
            }
            VmOp::Translate(vpn, off) => {
                out.extend(
                    gen::shrink_u64(vpn)
                        .into_iter()
                        .take(2)
                        .map(|v| VmOp::Translate(v, off)),
                );
                out.extend(
                    gen::shrink_u64(off)
                        .into_iter()
                        .take(2)
                        .map(|o| VmOp::Translate(vpn, o)),
                );
            }
        }
        out
    }
}

#[test]
fn page_table_matches_map_model() {
    let ops_gen = gen::vec_of(VmOpGen, 0, 120);
    check(
        &Config::new("page_table_matches_map_model"),
        &ops_gen,
        |ops| {
            let mut mem = PhysMem::new();
            let mut frames = FrameAllocator::new(PAddr(0x100_0000), 32 << 20);
            let mut pt = PageTable::new(&mut mem, &mut frames);
            let mut model: HashMap<u64, u64> = HashMap::new(); // vpn -> frame base
            for op in ops {
                match *op {
                    VmOp::Map(vpn) => {
                        let frame = frames.alloc(&mut mem);
                        pt.map(
                            &mut mem,
                            &mut frames,
                            VAddr(vpn * PAGE_SIZE),
                            frame,
                            PageFlags::rw(),
                        );
                        model.insert(vpn, frame.0);
                    }
                    VmOp::Unmap(vpn) => {
                        let existed = pt.unmap(&mut mem, VAddr(vpn * PAGE_SIZE));
                        tk_assert_eq!(existed, model.remove(&vpn).is_some());
                    }
                    VmOp::Translate(vpn, off) => {
                        let got = pt.translate(&mem, VAddr(vpn * PAGE_SIZE + off));
                        match model.get(&vpn) {
                            Some(frame) => {
                                tk_assert_eq!(got.unwrap().paddr, PAddr(frame + off));
                            }
                            None => tk_assert!(got.is_err()),
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn tlb_never_serves_stale_translations() {
    let ops_gen = gen::vec_of((gen::u64_in(0..32), gen::bools()), 0, 200);
    check(
        &Config::new("tlb_never_serves_stale_translations"),
        &ops_gen,
        |ops| {
            // Interleave inserts and shootdowns; a lookup must only ever
            // return what the "page table" (model) currently says.
            let mut tlb = Tlb::new(16);
            let mut table: HashMap<u64, u64> = HashMap::new();
            let mut next_frame = 0x1000u64;
            for &(vpn, remap) in ops {
                if remap {
                    // Kernel remaps the page: shootdown + new translation.
                    tlb.shootdown(VirtPage(vpn));
                    next_frame += PAGE_SIZE;
                    table.insert(vpn, next_frame);
                }
                // Hardware path: TLB hit must agree with the table; on a
                // miss, walk and refill.
                match tlb.lookup(VirtPage(vpn)) {
                    Some(e) => {
                        let expect = table.get(&vpn).copied();
                        tk_assert_eq!(Some(e.frame.0), expect, "stale TLB entry for vpn {vpn}");
                    }
                    None => {
                        if let Some(&f) = table.get(&vpn) {
                            tlb.insert(VirtPage(vpn), PAddr(f), PageFlags::rw());
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn tlb_shootdown_on_device_remap_never_serves_stale() {
    // The serving driver's engine-remap flow: an MMIO page moves to a new
    // VA (unmap old + map new + shootdown broadcast to every core and
    // engine TLB). Under random interleavings of remaps and accesses
    // through several independent TLBs, no post-remap access may ever be
    // served by a stale translation — neither at the retired VA (it must
    // fault) nor at the live VA (it must reach the current frame).
    let ops_gen = gen::vec_of((gen::u64_in(0..4), gen::u64_in(0..3), gen::bools()), 0, 160);
    check(
        &Config::new("tlb_shootdown_on_device_remap_never_serves_stale"),
        &ops_gen,
        |ops| {
            let mut mem = PhysMem::new();
            let mut frames = FrameAllocator::new(PAddr(0x100_0000), 32 << 20);
            let mut pt = PageTable::new(&mut mem, &mut frames);
            // 3 TLBs: two "cores" and one "engine", all caching one table.
            let mut tlbs = vec![Tlb::new(16), Tlb::new(16), Tlb::new(4)];
            // 4 devices, each with a fixed frame and a movable VA. VAs are
            // bump-allocated from a window no data mapping uses.
            let dev_frames: Vec<PAddr> = (0..4).map(|_| frames.alloc(&mut mem)).collect();
            let mut dev_vpn = [0u64; 4];
            let mut next_vpn = 0x400u64;
            for (d, &frame) in dev_frames.iter().enumerate() {
                dev_vpn[d] = next_vpn;
                next_vpn += 1;
                pt.map(
                    &mut mem,
                    &mut frames,
                    VAddr(dev_vpn[d] * PAGE_SIZE),
                    frame,
                    PageFlags::device(),
                );
            }
            for &(dev, tlb_i, remap) in ops {
                let d = dev as usize;
                if remap {
                    // Driver remap: retire the old VA, bump-allocate a new
                    // one, broadcast the shootdown for the retired page.
                    let old = VirtPage(dev_vpn[d]);
                    tk_assert!(pt.unmap(&mut mem, VAddr(old.0 * PAGE_SIZE)));
                    dev_vpn[d] = next_vpn;
                    next_vpn += 1;
                    pt.map(
                        &mut mem,
                        &mut frames,
                        VAddr(dev_vpn[d] * PAGE_SIZE),
                        dev_frames[d],
                        PageFlags::device(),
                    );
                    for t in &mut tlbs {
                        t.shootdown(old);
                    }
                }
                // Access the device through one TLB at its live VA, and
                // probe every TLB for all retired VPNs of this device.
                let live = VirtPage(dev_vpn[d]);
                let t = &mut tlbs[tlb_i as usize];
                let frame = match t.lookup(live) {
                    Some(e) => e.frame,
                    None => {
                        let tr = pt.translate(&mem, VAddr(live.0 * PAGE_SIZE));
                        let tr = tr.expect("live device VA must be mapped");
                        t.insert(live, tr.paddr, PageFlags::device());
                        tr.paddr
                    }
                };
                tk_assert_eq!(frame, dev_frames[d], "live VA serves the device frame");
                for t in &tlbs {
                    for vpn in 0x400..dev_vpn[d] {
                        if dev_vpn.contains(&vpn) {
                            continue; // another device's live VA
                        }
                        tk_assert!(
                            t.probe(VirtPage(vpn)).is_none(),
                            "retired VA {vpn:#x} still cached after shootdown"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn walk_reads_go_through_simulated_memory() {
    // Corrupting the page-table bytes in memory corrupts translation —
    // proof the walker really reads the simulated table.
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(PAddr(0x100_0000), 8 << 20);
    let mut pt = PageTable::new(&mut mem, &mut frames);
    let frame = frames.alloc(&mut mem);
    pt.map(&mut mem, &mut frames, VAddr(0x5000), frame, PageFlags::rw());
    assert!(pt.translate(&mem, VAddr(0x5000)).is_ok());
    // Zero the root table: every translation must now fault.
    mem.write_bytes(pt.root(), &[0u8; PAGE_SIZE as usize]);
    assert!(pt.translate(&mem, VAddr(0x5000)).is_err());
}
