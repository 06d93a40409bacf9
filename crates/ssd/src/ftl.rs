//! Page-mapped flash translation layer with greedy garbage collection.
//!
//! The paper keeps all SSDs in the FOB (fresh-out-of-box) state so
//! that FTL activity never pollutes its latency measurements (§III-B),
//! and defers GC analysis to future work (§VI). We implement the FTL
//! anyway: (a) `Format` must genuinely reset state, (b) write workloads
//! need a real allocation path, and (c) the `ablate_gc` experiment
//! reproduces the future-work scenario on aged devices.
//!
//! Logical space is addressed in 4 KiB pages; flash pages are larger
//! (16 KiB on the Table I device), so `page_kib / 4` logical pages pack
//! into one flash page. Writes stripe across dies at flash-page
//! granularity. When a die's free-block count reaches the low
//! watermark, greedy GC picks its minimum-valid sealed block, relocates
//! the survivors and erases it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use afa_sim::rng::splitmix64;

use crate::flash::{DieAddress, FlashGeometry};

/// A physical 4 KiB slot: `flash_page_index * subs_per_page + sub`.
type Slot = u64;

/// The FTL maps' hasher: a fixed splitmix64 finalizer over each `u64`
/// key, where the std default is a randomly keyed SipHash. The maps
/// are only probed, never iterated, so a fixed hash moves no result,
/// and their keys are the simulation's own page and slot numbers, so
/// SipHash's resistance to crafted collisions buys nothing.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut state = self.0 ^ key;
        self.0 = splitmix64(&mut state);
    }
}

/// A map keyed by logical page or physical slot.
type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// FTL tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FtlConfig {
    /// GC starts when a die's free-block count drops to this value.
    pub gc_low_watermark: u32,
    /// Static wear leveling: when a die's erase-count spread exceeds
    /// this, the coldest sealed block is relocated onto a hot one.
    /// `None` disables wear leveling.
    pub wear_level_threshold: Option<u32>,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            gc_low_watermark: 2,
            wear_level_threshold: Some(16),
        }
    }
}

/// A physical flash operation the device must account for in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtlAction {
    /// Program one flash page on `die` (host or buffered data).
    Program {
        /// Die receiving the program.
        die: DieAddress,
    },
    /// GC relocation read of one flash page on `die`.
    GcRead {
        /// Die being read for relocation.
        die: DieAddress,
    },
    /// GC relocation program of one flash page on `die`.
    GcProgram {
        /// Die receiving relocated data.
        die: DieAddress,
    },
    /// Erase of one block on `die`.
    Erase {
        /// Die whose block is erased.
        die: DieAddress,
    },
}

/// Summary of one completed GC cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcEvent {
    /// Die the cycle ran on.
    pub die: DieAddress,
    /// Flash pages whose data was relocated.
    pub pages_copied: u32,
    /// Valid 4 KiB slots relocated.
    pub slots_copied: u32,
}

/// Lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host 4 KiB pages written.
    pub host_slots_written: u64,
    /// 4 KiB slots rewritten by GC.
    pub gc_slots_copied: u64,
    /// Blocks erased.
    pub blocks_erased: u64,
    /// GC cycles run.
    pub gc_cycles: u64,
    /// Static wear-leveling swaps performed.
    pub wl_swaps: u64,
    /// 4 KiB slots relocated by wear leveling.
    pub wl_slots_copied: u64,
}

impl FtlStats {
    /// Write amplification: (host + GC writes) / host writes.
    /// 1.0 when no GC has run (or nothing written).
    pub fn write_amplification(&self) -> f64 {
        if self.host_slots_written == 0 {
            1.0
        } else {
            (self.host_slots_written + self.gc_slots_copied) as f64 / self.host_slots_written as f64
        }
    }
}

#[derive(Clone, Debug)]
struct BlockInfo {
    valid: u32,
    sealed: bool,
}

#[derive(Clone, Debug)]
struct DieState {
    free_blocks: Vec<u32>,
    active_block: u32,
    next_page: u32,
    next_sub: u32,
}

/// The page-mapped FTL.
///
/// # Example
///
/// ```
/// use afa_ssd::{FlashGeometry, Ftl, FtlConfig};
///
/// let mut ftl = Ftl::new(FlashGeometry::scaled(64), FtlConfig::default());
/// assert!(ftl.read_slot(7).is_none()); // FOB: nothing mapped
/// ftl.write_slot(7);
/// assert!(ftl.read_slot(7).is_some());
/// ftl.format();
/// assert!(ftl.read_slot(7).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Ftl {
    geometry: FlashGeometry,
    config: FtlConfig,
    map: KeyMap<Slot>,
    reverse: KeyMap<u64>,
    blocks: Vec<BlockInfo>,
    /// Lifetime erase count per (global) block.
    erase_counts: Vec<u32>,
    dies: Vec<DieState>,
    current_die: u32,
    stats: FtlStats,
    gc_events: Vec<GcEvent>,
}

impl Ftl {
    /// Creates an FTL in FOB state.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer blocks per die than the GC
    /// watermark requires (watermark + 2).
    pub fn new(geometry: FlashGeometry, config: FtlConfig) -> Self {
        assert!(
            geometry.blocks_per_die >= config.gc_low_watermark + 2,
            "geometry too small for GC watermark"
        );
        let total_blocks = geometry.total_dies() as usize * geometry.blocks_per_die as usize;
        let mut ftl = Ftl {
            geometry,
            config,
            map: KeyMap::default(),
            reverse: KeyMap::default(),
            blocks: Vec::new(),
            erase_counts: vec![0; total_blocks],
            dies: Vec::new(),
            current_die: 0,
            stats: FtlStats::default(),
            gc_events: Vec::new(),
        };
        ftl.reset_layout();
        ftl
    }

    fn reset_layout(&mut self) {
        let total_blocks =
            self.geometry.total_dies() as usize * self.geometry.blocks_per_die as usize;
        self.blocks = (0..total_blocks)
            .map(|_| BlockInfo {
                valid: 0,
                sealed: false,
            })
            .collect();
        self.dies = (0..self.geometry.total_dies())
            .map(|_| {
                // Highest block index first so pops allocate block 0 first.
                let mut free: Vec<u32> = (1..self.geometry.blocks_per_die).rev().collect();
                let active = 0;
                free.shrink_to_fit();
                DieState {
                    free_blocks: free,
                    active_block: active,
                    next_page: 0,
                    next_sub: 0,
                }
            })
            .collect();
        self.current_die = 0;
    }

    /// 4 KiB slots per flash page.
    pub fn subs_per_page(&self) -> u32 {
        (self.geometry.page_kib / 4) as u32
    }

    /// The flash geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// GC cycles completed so far (drain with
    /// [`Ftl::take_gc_events`]).
    pub fn gc_events(&self) -> &[GcEvent] {
        &self.gc_events
    }

    /// Removes and returns the recorded GC events.
    pub fn take_gc_events(&mut self) -> Vec<GcEvent> {
        std::mem::take(&mut self.gc_events)
    }

    /// Returns the die holding logical 4 KiB page `lpn`, or `None` if
    /// the page has never been written (FOB reads).
    pub fn read_slot(&self, lpn: u64) -> Option<DieAddress> {
        self.map.get(&lpn).map(|&slot| self.die_of_slot(slot))
    }

    /// Fraction of the drive's logical slots currently mapped.
    pub fn utilization(&self, logical_slots: u64) -> f64 {
        if logical_slots == 0 {
            0.0
        } else {
            self.map.len() as f64 / logical_slots as f64
        }
    }

    fn slots_per_block(&self) -> u64 {
        self.geometry.pages_per_block as u64 * self.subs_per_page() as u64
    }

    fn slots_per_die(&self) -> u64 {
        self.geometry.blocks_per_die as u64 * self.slots_per_block()
    }

    fn die_of_slot(&self, slot: Slot) -> DieAddress {
        let die_idx = (slot / self.slots_per_die()) as u32;
        DieAddress::from_index(die_idx, &self.geometry)
    }

    fn global_block_of_slot(&self, slot: Slot) -> usize {
        (slot / self.slots_per_block()) as usize
    }

    fn slot_at(&self, die_idx: u32, block_in_die: u32, page: u32, sub: u32) -> Slot {
        let base =
            die_idx as u64 * self.slots_per_die() + block_in_die as u64 * self.slots_per_block();
        base + page as u64 * self.subs_per_page() as u64 + sub as u64
    }

    /// Writes logical page `lpn`, returning the physical actions the
    /// device must charge time for (page programs when a flash page
    /// seals, plus any GC work triggered).
    pub fn write_slot(&mut self, lpn: u64) -> Vec<FtlAction> {
        let mut actions = Vec::new();
        self.stats.host_slots_written += 1;
        self.invalidate(lpn);
        let die = self.current_die;
        self.append(lpn, die, false, &mut actions);
        actions
    }

    fn invalidate(&mut self, lpn: u64) {
        if let Some(old) = self.map.remove(&lpn) {
            self.reverse.remove(&old);
            let b = self.global_block_of_slot(old);
            self.blocks[b].valid = self.blocks[b].valid.saturating_sub(1);
        }
    }

    /// Appends `lpn` to `die_idx`'s write frontier. Host writes target
    /// [`Ftl::current_die`] (striping); GC relocations target the
    /// victim's own die so collection never consumes other dies' free
    /// blocks. `is_gc` selects accounting and suppresses recursive GC.
    fn append(&mut self, lpn: u64, die_idx: u32, is_gc: bool, actions: &mut Vec<FtlAction>) {
        let geometry = self.geometry;
        let subs = self.subs_per_page();

        let (page, sub, block) = {
            let die = &self.dies[die_idx as usize];
            (die.next_page, die.next_sub, die.active_block)
        };
        let slot = self.slot_at(die_idx, block, page, sub);
        self.map.insert(lpn, slot);
        self.reverse.insert(slot, lpn);
        let gb = die_idx as usize * geometry.blocks_per_die as usize + block as usize;
        self.blocks[gb].valid += 1;

        // Advance the frontier.
        let die = &mut self.dies[die_idx as usize];
        die.next_sub += 1;
        let mut sealed_page = false;
        if die.next_sub == subs {
            die.next_sub = 0;
            die.next_page += 1;
            sealed_page = true;
        }
        let mut need_new_block = false;
        if die.next_page == geometry.pages_per_block {
            die.next_page = 0;
            self.blocks[gb].sealed = true;
            need_new_block = true;
        }

        if sealed_page {
            let die_addr = DieAddress::from_index(die_idx, &geometry);
            actions.push(if is_gc {
                FtlAction::GcProgram { die: die_addr }
            } else {
                FtlAction::Program { die: die_addr }
            });
            if !is_gc {
                // Stripe host writes across dies at flash-page
                // granularity.
                self.current_die = (self.current_die + 1) % geometry.total_dies();
            }
        }

        if need_new_block {
            let die = &mut self.dies[die_idx as usize];
            let next = die.free_blocks.pop().expect(
                "out of free blocks: the die has no reclaimable space \
                 (over-provisioning exhausted relative to the GC watermark)",
            );
            die.active_block = next;
            if !is_gc {
                self.collect_until_watermark(die_idx, actions);
            }
        }
    }

    /// Runs GC cycles until the die's free-block count clears the
    /// watermark. A single greedy cycle can net *zero* free blocks
    /// (the relocation itself consumed the block the erase returned),
    /// so one-cycle-per-seal decays free space under sustained
    /// full-capacity writes; looping with a progress guard restores
    /// the invariant the allocator relies on.
    fn collect_until_watermark(&mut self, die_idx: u32, actions: &mut Vec<FtlAction>) {
        let limit = self.geometry.blocks_per_die as usize * 4;
        let mut rounds = 0;
        while (self.dies[die_idx as usize].free_blocks.len() as u32) <= self.config.gc_low_watermark
        {
            rounds += 1;
            if rounds > limit || !self.collect(die_idx, actions) {
                // No sealed victim, a fully-valid victim (nothing
                // reclaimable), or a runaway loop: stop. The device
                // is genuinely out of reclaimable space on this die;
                // the next allocation failure will say so loudly.
                break;
            }
        }
    }

    /// One greedy GC cycle on one die: relocate the minimum-valid
    /// sealed block. Returns `false` when no progress is possible
    /// (no sealed victim, or the best victim is fully valid).
    fn collect(&mut self, die_idx: u32, actions: &mut Vec<FtlAction>) -> bool {
        let geometry = self.geometry;
        let blocks_per_die = geometry.blocks_per_die as usize;
        let base = die_idx as usize * blocks_per_die;
        let active = self.dies[die_idx as usize].active_block as usize;

        let victim_local = (0..blocks_per_die)
            .filter(|&b| b != active && self.blocks[base + b].sealed)
            .min_by_key(|&b| self.blocks[base + b].valid);
        let Some(victim_local) = victim_local else {
            return false; // nothing sealed yet
        };
        if self.blocks[base + victim_local].valid as u64 >= self.slots_per_block() {
            // Fully valid: relocating it reclaims nothing.
            return false;
        }
        // With no spare block, relocation is only safe when the
        // survivors fit into the active block's remaining slots
        // (true right after a fresh allocation, which is exactly when
        // the free list bottoms out).
        if self.dies[die_idx as usize].free_blocks.is_empty() {
            let die = &self.dies[die_idx as usize];
            let used = die.next_page as u64 * self.subs_per_page() as u64 + die.next_sub as u64;
            let remaining = self.slots_per_block() - used;
            // Strictly less: filling the block to the brim would seal
            // it and demand another allocation mid-relocation.
            if (self.blocks[base + victim_local].valid as u64) >= remaining {
                return false;
            }
        }
        let die_addr = DieAddress::from_index(die_idx, &geometry);
        let victim_global = base + victim_local;

        // Gather surviving lpns.
        let spb = self.slots_per_block();
        let first_slot = die_idx as u64 * self.slots_per_die() + victim_local as u64 * spb;
        let mut survivors = Vec::new();
        for s in first_slot..first_slot + spb {
            if let Some(&lpn) = self.reverse.get(&s) {
                survivors.push(lpn);
            }
        }

        // Relocation reads: one per flash page that holds a survivor.
        let subs = self.subs_per_page() as u64;
        let mut pages_read = 0u32;
        {
            let mut last_page = u64::MAX;
            for lpn in &survivors {
                let slot = self.map[lpn];
                let page = slot / subs;
                if page != last_page {
                    pages_read += 1;
                    last_page = page;
                    actions.push(FtlAction::GcRead { die: die_addr });
                }
            }
        }

        // Relocate survivors into this die (GC appends; no recursive
        // GC).
        for lpn in &survivors {
            self.invalidate(*lpn);
            self.stats.gc_slots_copied += 1;
            self.append(*lpn, die_idx, true, actions);
        }

        // Erase and free the victim.
        self.blocks[victim_global] = BlockInfo {
            valid: 0,
            sealed: false,
        };
        self.erase_counts[victim_global] += 1;
        self.dies[die_idx as usize]
            .free_blocks
            .push(victim_local as u32);
        actions.push(FtlAction::Erase { die: die_addr });
        self.stats.blocks_erased += 1;
        self.stats.gc_cycles += 1;
        self.gc_events.push(GcEvent {
            die: die_addr,
            pages_copied: pages_read,
            slots_copied: survivors.len() as u32,
        });
        self.maybe_wear_level(die_idx, actions);
        true
    }

    /// Erase-count spread (max − min) within one die.
    pub fn erase_spread(&self, die_idx: u32) -> u32 {
        let base = die_idx as usize * self.geometry.blocks_per_die as usize;
        let counts = &self.erase_counts[base..base + self.geometry.blocks_per_die as usize];
        let min = counts.iter().min().copied().unwrap_or(0);
        let max = counts.iter().max().copied().unwrap_or(0);
        max - min
    }

    /// Largest erase-count spread across all dies.
    pub fn max_erase_spread(&self) -> u32 {
        (0..self.geometry.total_dies())
            .map(|d| self.erase_spread(d))
            .max()
            .unwrap_or(0)
    }

    /// Static wear leveling: if this die's erase-count spread exceeds
    /// the threshold, relocate the *coldest* sealed block (its data is
    /// static, pinning its low erase count) so the block re-enters
    /// circulation.
    fn maybe_wear_level(&mut self, die_idx: u32, actions: &mut Vec<FtlAction>) {
        let Some(threshold) = self.config.wear_level_threshold else {
            return;
        };
        if self.erase_spread(die_idx) <= threshold {
            return;
        }
        // Relocating a (typically fully-valid) cold block consumes up
        // to one spare block before the erase returns it — net zero,
        // but it needs the spare to exist.
        if self.dies[die_idx as usize].free_blocks.is_empty() {
            return;
        }
        let geometry = self.geometry;
        let blocks_per_die = geometry.blocks_per_die as usize;
        let base = die_idx as usize * blocks_per_die;
        let active = self.dies[die_idx as usize].active_block as usize;
        let Some(cold_local) = (0..blocks_per_die)
            .filter(|&b| b != active && self.blocks[base + b].sealed)
            .min_by_key(|&b| self.erase_counts[base + b])
        else {
            return;
        };
        let die_addr = DieAddress::from_index(die_idx, &geometry);
        let spb = self.slots_per_block();
        let first_slot = die_idx as u64 * self.slots_per_die() + cold_local as u64 * spb;
        let survivors: Vec<u64> = (first_slot..first_slot + spb)
            .filter_map(|slot| self.reverse.get(&slot).copied())
            .collect();
        // One relocation read per flash page that holds data.
        let pages = survivors.len().div_ceil(self.subs_per_page() as usize);
        for _ in 0..pages {
            actions.push(FtlAction::GcRead { die: die_addr });
        }
        for lpn in &survivors {
            self.invalidate(*lpn);
            self.stats.wl_slots_copied += 1;
            self.append(*lpn, die_idx, true, actions);
        }
        let cold_global = base + cold_local;
        self.blocks[cold_global] = BlockInfo {
            valid: 0,
            sealed: false,
        };
        self.erase_counts[cold_global] += 1;
        self.dies[die_idx as usize]
            .free_blocks
            .push(cold_local as u32);
        actions.push(FtlAction::Erase { die: die_addr });
        self.stats.blocks_erased += 1;
        self.stats.wl_swaps += 1;
    }

    /// NVMe Format: returns the device to FOB state and zeroes the
    /// mapping, keeping lifetime erase counters.
    pub fn format(&mut self) {
        self.map.clear();
        self.reverse.clear();
        self.gc_events.clear();
        self.reset_layout();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> Ftl {
        Ftl::new(FlashGeometry::scaled(16), FtlConfig::default())
    }

    #[test]
    fn fob_reads_are_unmapped() {
        let ftl = small_ftl();
        for lpn in [0u64, 1, 1_000, 123_456] {
            assert!(ftl.read_slot(lpn).is_none());
        }
    }

    #[test]
    fn write_then_read_maps_to_a_die() {
        let mut ftl = small_ftl();
        ftl.write_slot(42);
        let die = ftl.read_slot(42).expect("mapped");
        assert!(die.channel < ftl.geometry().channels);
    }

    #[test]
    fn overwrite_moves_the_page() {
        let mut ftl = small_ftl();
        ftl.write_slot(5);
        let subs = ftl.subs_per_page() as u64;
        // Fill the rest of the flash page so the next write lands elsewhere.
        for lpn in 100..100 + subs {
            ftl.write_slot(lpn);
        }
        ftl.write_slot(5);
        assert!(ftl.read_slot(5).is_some());
        assert_eq!(ftl.stats().host_slots_written, 2 + subs);
    }

    #[test]
    fn program_emitted_when_flash_page_seals() {
        let mut ftl = small_ftl();
        let subs = ftl.subs_per_page() as u64;
        let mut actions = Vec::new();
        for lpn in 0..subs {
            actions.extend(ftl.write_slot(lpn));
        }
        let programs = actions
            .iter()
            .filter(|a| matches!(a, FtlAction::Program { .. }))
            .count();
        assert_eq!(programs, 1, "exactly one program per sealed page");
    }

    #[test]
    fn striping_rotates_dies() {
        let mut ftl = small_ftl();
        let subs = ftl.subs_per_page() as u64;
        let mut dies_seen = Vec::new();
        for lpn in 0..subs * 4 {
            for action in ftl.write_slot(lpn) {
                if let FtlAction::Program { die } = action {
                    dies_seen.push(die);
                }
            }
        }
        assert_eq!(dies_seen.len(), 4);
        let mut unique = dies_seen.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            4,
            "pages must stripe across dies: {dies_seen:?}"
        );
    }

    #[test]
    fn gc_triggers_under_overwrite_pressure() {
        let mut ftl = small_ftl();
        let logical = ftl.slots_per_die() * ftl.geometry().total_dies() as u64 / 2;
        // Two full overwrite passes over half the logical space forces
        // block exhaustion and therefore GC.
        for pass in 0..6 {
            for lpn in 0..logical {
                ftl.write_slot(lpn + pass % 2);
            }
        }
        assert!(ftl.stats().gc_cycles > 0, "GC never ran");
        assert!(ftl.stats().write_amplification() >= 1.0);
        assert!(!ftl.gc_events().is_empty());
    }

    #[test]
    fn gc_preserves_all_mapped_data() {
        let mut ftl = small_ftl();
        let logical = ftl.slots_per_die() * ftl.geometry().total_dies() as u64 / 2;
        for pass in 0..6u64 {
            for lpn in 0..logical {
                ftl.write_slot(lpn.wrapping_mul(pass + 1) % logical);
            }
        }
        // Every previously written lpn in range must still resolve.
        for lpn in 0..logical {
            assert!(ftl.read_slot(lpn).is_some(), "lpn {lpn} lost after GC");
        }
    }

    #[test]
    fn format_restores_fob() {
        let mut ftl = small_ftl();
        for lpn in 0..1_000 {
            ftl.write_slot(lpn);
        }
        ftl.format();
        for lpn in 0..1_000 {
            assert!(ftl.read_slot(lpn).is_none());
        }
        assert_eq!(ftl.utilization(10_000), 0.0);
    }

    #[test]
    fn write_amplification_is_one_without_gc() {
        let mut ftl = small_ftl();
        for lpn in 0..100 {
            ftl.write_slot(lpn);
        }
        assert_eq!(ftl.stats().write_amplification(), 1.0);
    }

    #[test]
    fn take_gc_events_drains() {
        let mut ftl = small_ftl();
        let logical = ftl.slots_per_die() * ftl.geometry().total_dies() as u64 / 2;
        for _ in 0..6 {
            for lpn in 0..logical {
                ftl.write_slot(lpn);
            }
        }
        let events = ftl.take_gc_events();
        assert!(!events.is_empty());
        assert!(ftl.gc_events().is_empty());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_geometry_rejected() {
        let mut g = FlashGeometry::scaled(16);
        g.blocks_per_die = 2;
        let _ = Ftl::new(g, FtlConfig::default());
    }
}
