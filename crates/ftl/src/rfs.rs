//! An RFS-style log-structured file system on raw flash.
//!
//! BlueDBM's preferred software stack skips the FTL entirely: the file
//! system itself performs logical-to-physical mapping and garbage
//! collection, "achieving better garbage collection efficiency at much
//! lower memory requirement" (paper Section 4, citing its reference 26, RFS).
//!
//! The crucial BlueDBM-specific API is [`Rfs::physical_addrs`]: "user-level
//! applications can query the file system for the physical locations of
//! files on the flash ... Applications can then provide in-storage
//! processors with a stream of physical addresses, so that the in-storage
//! processors can directly read data from flash with very low latency"
//! (Figure 8).

use std::collections::{BTreeMap, VecDeque};

use bluedbm_sim::fxhash::FxHashMap;

use bluedbm_flash::array::FlashArray;
use bluedbm_flash::geometry::Ppa;

use crate::error::FtlError;

/// File-system tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RfsConfig {
    /// The segment cleaner runs when a plane's free-block queue drops to
    /// this size. Must be >= 1.
    pub(crate) cleaner_watermark: usize,
}

impl Default for RfsConfig {
    fn default() -> Self {
        RfsConfig {
            cleaner_watermark: 1,
        }
    }
}

/// Cumulative file-system statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RfsStats {
    /// Pages written on behalf of applications.
    pub(crate) logical_writes: u64,
    /// Pages programmed to flash (logical + cleaner relocation).
    pub(crate) flash_writes: u64,
    /// Cleaner victim blocks erased.
    pub cleaner_erases: u64,
    /// Valid pages relocated by the cleaner.
    pub(crate) cleaner_moves: u64,
}

#[derive(Clone, Debug, Default)]
struct Inode {
    pages: Vec<Ppa>,
    size: u64,
}

#[derive(Clone, Debug)]
struct Plane {
    bus: u16,
    chip: u16,
    free: VecDeque<u32>,
    active: Option<(u32, u32)>,
}

/// The log-structured file system. Names are flat strings (a hierarchical
/// namespace adds nothing to the experiments; a path-shaped name like
/// `"data/corpus.bin"` is just a string here).
#[derive(Debug)]
pub struct Rfs {
    array: FlashArray,
    config: RfsConfig,
    /// By name, ordered so [`Rfs::list`] needs no sort.
    files: BTreeMap<String, Inode>,
    /// Linear page -> (file, page index) for cleaner relocation.
    owner: FxHashMap<usize, (String, u32)>,
    valid: Vec<u32>,
    planes: Vec<Plane>,
    next_plane: usize,
    stats: RfsStats,
}

impl Rfs {
    /// Format `array` with an empty file system.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::NoSpace`] when a plane lacks even the cleaner
    /// reserve of good blocks.
    pub fn format(array: FlashArray, config: RfsConfig) -> Result<Self, FtlError> {
        assert!(config.cleaner_watermark >= 1, "cleaner needs a reserve");
        let geom = array.geometry();
        let mut planes = Vec::new();
        for bus in 0..geom.buses as u16 {
            for chip in 0..geom.chips_per_bus as u16 {
                let free: VecDeque<u32> = (0..geom.blocks_per_chip as u32)
                    .filter(|&b| !array.is_bad(Ppa::new(bus, chip, b, 0)))
                    .collect();
                if free.len() <= config.cleaner_watermark {
                    return Err(FtlError::NoSpace);
                }
                planes.push(Plane {
                    bus,
                    chip,
                    free,
                    active: None,
                });
            }
        }
        Ok(Rfs {
            valid: vec![0; geom.total_blocks()],
            files: BTreeMap::new(),
            owner: FxHashMap::default(),
            planes,
            next_plane: 0,
            array,
            config,
            stats: RfsStats::default(),
        })
    }

    /// Bytes per page.
    pub fn page_bytes(&self) -> usize {
        self.array.geometry().page_bytes
    }

    /// Statistics so far.
    pub fn stats(&self) -> RfsStats {
        self.stats
    }

    /// The wrapped array (wear inspection, direct ISP-style reads in
    /// tests).
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Mutable array access (the in-store processor path reads pages
    /// directly by physical address — paper Figure 8 step 3).
    pub fn array_mut(&mut self) -> &mut FlashArray {
        &mut self.array
    }

    /// Create an empty file.
    ///
    /// # Errors
    ///
    /// [`FtlError::FileExists`] if the name is taken.
    pub fn create(&mut self, name: &str) -> Result<(), FtlError> {
        if self.files.contains_key(name) {
            return Err(FtlError::FileExists(name.to_string()));
        }
        self.files.insert(name.to_string(), Inode::default());
        Ok(())
    }

    /// File size in bytes.
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`] when absent.
    pub(crate) fn size(&self, name: &str) -> Result<u64, FtlError> {
        self.files
            .get(name)
            .map(|i| i.size)
            .ok_or_else(|| FtlError::NoSuchFile(name.to_string()))
    }

    /// All file names, sorted.
    pub fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// **The BlueDBM API**: physical flash addresses of a file, in file
    /// order — the stream handed to in-store processors.
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`] when absent.
    pub fn physical_addrs(&self, name: &str) -> Result<Vec<Ppa>, FtlError> {
        self.files
            .get(name)
            .map(|i| i.pages.clone())
            .ok_or_else(|| FtlError::NoSuchFile(name.to_string()))
    }

    fn block_index(&self, ppa: Ppa) -> usize {
        let g = self.array.geometry();
        (ppa.bus as usize * g.chips_per_bus + ppa.chip as usize) * g.blocks_per_chip
            + ppa.block as usize
    }

    fn alloc_in_plane(&mut self, pi: usize) -> Option<Ppa> {
        let pages_per_block = self.array.geometry().pages_per_block as u32;
        let plane = &mut self.planes[pi];
        if plane.active.is_none() {
            let block = plane.free.pop_front()?;
            plane.active = Some((block, 0));
        }
        let (block, page) = plane.active.expect("just ensured");
        let ppa = Ppa::new(plane.bus, plane.chip, block, page);
        plane.active = if page + 1 == pages_per_block {
            None
        } else {
            Some((block, page + 1))
        };
        Some(ppa)
    }

    fn alloc(&mut self) -> Result<Ppa, FtlError> {
        let pi = self.next_plane;
        self.next_plane = (self.next_plane + 1) % self.planes.len();
        // Preferred plane first, then spill to any other plane: one plane
        // can jam with 100%-valid blocks while others still have room.
        let n = self.planes.len();
        for offset in 0..n {
            let p = (pi + offset) % n;
            loop {
                if self.planes[p].active.is_some()
                    || self.planes[p].free.len() > self.config.cleaner_watermark
                {
                    if let Some(ppa) = self.alloc_in_plane(p) {
                        return Ok(ppa);
                    }
                    break;
                }
                if !self.clean_one(p)? {
                    break;
                }
            }
        }
        Err(FtlError::NoSpace)
    }

    /// Append one already-padded page to `name`'s inode.
    fn append_page(&mut self, name: &str, data: &[u8]) -> Result<(), FtlError> {
        let ppa = self.alloc()?;
        self.array.program(ppa, data)?;
        self.stats.flash_writes += 1;
        let inode = self.files.get_mut(name).expect("caller checked");
        let idx = inode.pages.len() as u32;
        inode.pages.push(ppa);
        self.owner
            .insert(self.array.geometry().linear_of(ppa), (name.to_string(), idx));
        let bi = self.block_index(ppa);
        self.valid[bi] += 1;
        Ok(())
    }

    fn invalidate_page(&mut self, ppa: Ppa) {
        let linear = self.array.geometry().linear_of(ppa);
        if self.owner.remove(&linear).is_some() {
            let bi = self.block_index(ppa);
            self.valid[bi] -= 1;
        }
    }

    /// Replace the contents of `name` with `data` (creating it if absent
    /// is *not* implied — create first).
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`], [`FtlError::NoSpace`], or a flash error.
    pub fn write(&mut self, name: &str, data: &[u8]) -> Result<(), FtlError> {
        if !self.files.contains_key(name) {
            return Err(FtlError::NoSuchFile(name.to_string()));
        }
        // Invalidate the old extent.
        let old = std::mem::take(self.files.get_mut(name).expect("checked"));
        for ppa in old.pages {
            self.invalidate_page(ppa);
        }
        let page_bytes = self.page_bytes();
        for chunk in data.chunks(page_bytes) {
            self.stats.logical_writes += 1;
            if chunk.len() == page_bytes {
                self.append_page(name, chunk)?;
            } else {
                let mut padded = chunk.to_vec();
                padded.resize(page_bytes, 0);
                self.append_page(name, &padded)?;
            }
        }
        self.files.get_mut(name).expect("checked").size = data.len() as u64;
        Ok(())
    }

    /// Append `data` to `name`, read-modify-writing a partial tail page
    /// when needed.
    ///
    /// # Errors
    ///
    /// As for [`Rfs::write`].
    pub fn append(&mut self, name: &str, data: &[u8]) -> Result<(), FtlError> {
        let size = self.size(name)?;
        let page_bytes = self.page_bytes() as u64;
        let tail_len = (size % page_bytes) as usize;
        let mut data = data.to_vec();
        if tail_len != 0 {
            // Pull back the partial tail page, merge, rewrite.
            let inode = self.files.get_mut(name).expect("size() checked");
            let tail_ppa = inode.pages.pop().expect("partial tail implies a page");
            let idx = inode.pages.len() as u32;
            debug_assert_eq!(idx, (size / page_bytes) as u32);
            let mut tail = self.array.read(tail_ppa)?.data;
            tail.truncate(tail_len);
            tail.extend_from_slice(&data);
            self.invalidate_page(tail_ppa);
            data = tail;
        }
        let new_size = size - tail_len as u64 + data.len() as u64;
        let page_bytes = self.page_bytes();
        for chunk in data.chunks(page_bytes) {
            self.stats.logical_writes += 1;
            if chunk.len() == page_bytes {
                self.append_page(name, chunk)?;
            } else {
                let mut padded = chunk.to_vec();
                padded.resize(page_bytes, 0);
                self.append_page(name, &padded)?;
            }
        }
        self.files.get_mut(name).expect("checked").size = new_size;
        Ok(())
    }

    /// Read the whole file.
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`] or a flash error.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, FtlError> {
        let size = self.size(name)?;
        self.read_range(name, 0, size as usize)
    }

    /// Read `len` bytes at byte `offset`.
    ///
    /// # Errors
    ///
    /// [`FtlError::ReadPastEof`] when the range exceeds the file.
    pub(crate) fn read_range(
        &mut self,
        name: &str,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FtlError> {
        let size = self.size(name)?;
        if offset + len as u64 > size {
            return Err(FtlError::ReadPastEof {
                file: name.to_string(),
                offset,
                size,
            });
        }
        let page_bytes = self.page_bytes() as u64;
        let pages = self.physical_addrs(name)?;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let page_idx = (pos / page_bytes) as usize;
            let in_page = (pos % page_bytes) as usize;
            let take = ((end - pos) as usize).min(page_bytes as usize - in_page);
            let data = self.array.read(pages[page_idx])?.data;
            out.extend_from_slice(&data[in_page..in_page + take]);
            pos += take as u64;
        }
        Ok(out)
    }

    /// Read the `idx`-th page of a file (padded to a full page — the unit
    /// in-store processors consume).
    ///
    /// # Errors
    ///
    /// [`FtlError::ReadPastEof`] when the file has no such page.
    pub fn read_page(&mut self, name: &str, idx: u32) -> Result<Vec<u8>, FtlError> {
        let pages = self.physical_addrs(name)?;
        let ppa = *pages.get(idx as usize).ok_or_else(|| FtlError::ReadPastEof {
            file: name.to_string(),
            offset: u64::from(idx) * self.page_bytes() as u64,
            size: self.files[name].size,
        })?;
        Ok(self.array.read(ppa)?.data)
    }

    /// Delete a file, invalidating its pages for the cleaner.
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`] when absent.
    pub fn delete(&mut self, name: &str) -> Result<(), FtlError> {
        let inode = self
            .files
            .remove(name)
            .ok_or_else(|| FtlError::NoSuchFile(name.to_string()))?;
        for ppa in inode.pages {
            self.invalidate_page(ppa);
        }
        Ok(())
    }

    /// Compact the min-valid block of plane `pi`. Returns `false` when no
    /// victim frees anything.
    fn clean_one(&mut self, pi: usize) -> Result<bool, FtlError> {
        let geom = self.array.geometry();
        let pages_per_block = geom.pages_per_block as u32;
        let (bus, chip) = (self.planes[pi].bus, self.planes[pi].chip);
        let active_block = self.planes[pi].active.map(|(b, _)| b);

        let mut best: Option<(u32, u32)> = None;
        for block in 0..geom.blocks_per_chip as u32 {
            if Some(block) == active_block
                || self.array.is_bad(Ppa::new(bus, chip, block, 0))
                || self.planes[pi].free.contains(&block)
            {
                continue;
            }
            let v = self.valid[self.block_index(Ppa::new(bus, chip, block, 0))];
            if v == pages_per_block {
                continue;
            }
            if best.map(|(_, bv)| v < bv).unwrap_or(true) {
                best = Some((block, v));
            }
        }
        let Some((victim, _)) = best else {
            return Ok(false);
        };

        for page in 0..pages_per_block {
            let src = Ppa::new(bus, chip, victim, page);
            let linear = geom.linear_of(src);
            let Some((name, idx)) = self.owner.get(&linear).cloned() else {
                continue;
            };
            let data = self.array.read(src)?.data;
            // Relocate within the plane: the cleaner reserve guarantees a
            // destination and avoids cross-plane cleaning ping-pong.
            let dst = self.alloc_in_plane(pi).ok_or(FtlError::NoSpace)?;
            self.array.program(dst, &data)?;
            self.stats.flash_writes += 1;
            self.stats.cleaner_moves += 1;
            self.invalidate_page(src);
            self.files.get_mut(&name).expect("owner implies file").pages[idx as usize] = dst;
            self.owner.insert(geom.linear_of(dst), (name, idx));
            let bi = self.block_index(dst);
            self.valid[bi] += 1;
        }
        self.array.erase(Ppa::new(bus, chip, victim, 0))?;
        self.stats.cleaner_erases += 1;
        self.planes[pi].free.push_back(victim);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_flash::geometry::FlashGeometry;
    use bluedbm_sim::rng::Rng;

    fn fs() -> Rfs {
        Rfs::format(FlashArray::new(FlashGeometry::tiny(), 9), RfsConfig::default()).unwrap()
    }

    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let mut v = vec![0u8; n];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = fs();
        fs.create("a.bin").unwrap();
        let data = bytes(3 * fs.page_bytes() + 77, 1);
        fs.write("a.bin", &data).unwrap();
        assert_eq!(fs.read("a.bin").unwrap(), data);
        assert_eq!(fs.size("a.bin").unwrap(), data.len() as u64);
        assert!(fs.files.contains_key("a.bin"));
        assert_eq!(fs.list(), vec!["a.bin".to_string()]);
    }

    #[test]
    fn create_twice_fails() {
        let mut fs = fs();
        fs.create("x").unwrap();
        assert!(matches!(fs.create("x"), Err(FtlError::FileExists(_))));
    }

    #[test]
    fn missing_file_errors() {
        let mut fs = fs();
        assert!(matches!(fs.read("nope"), Err(FtlError::NoSuchFile(_))));
        assert!(matches!(fs.delete("nope"), Err(FtlError::NoSuchFile(_))));
        assert!(matches!(
            fs.write("nope", &[1]),
            Err(FtlError::NoSuchFile(_))
        ));
    }

    #[test]
    fn read_range_and_eof() {
        let mut fs = fs();
        fs.create("r").unwrap();
        let data = bytes(2 * fs.page_bytes(), 2);
        fs.write("r", &data).unwrap();
        let mid = fs.page_bytes() - 10;
        assert_eq!(
            fs.read_range("r", mid as u64, 20).unwrap(),
            &data[mid..mid + 20],
            "range crossing a page boundary"
        );
        assert!(matches!(
            fs.read_range("r", data.len() as u64 - 5, 10),
            Err(FtlError::ReadPastEof { .. })
        ));
    }

    #[test]
    fn append_merges_partial_tail() {
        let mut fs = fs();
        fs.create("log").unwrap();
        let mut expect = Vec::new();
        for i in 0..20 {
            let chunk = bytes(137 * (i + 1) % 700 + 1, 100 + i as u64);
            fs.append("log", &chunk).unwrap();
            expect.extend_from_slice(&chunk);
        }
        assert_eq!(fs.read("log").unwrap(), expect);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut fs = fs();
        fs.create("f").unwrap();
        fs.write("f", &bytes(1000, 3)).unwrap();
        let second = bytes(500, 4);
        fs.write("f", &second).unwrap();
        assert_eq!(fs.read("f").unwrap(), second);
    }

    #[test]
    fn physical_addrs_point_at_real_data() {
        let mut fs = fs();
        fs.create("isp.dat").unwrap();
        let data = bytes(4 * fs.page_bytes(), 5);
        fs.write("isp.dat", &data).unwrap();
        let addrs = fs.physical_addrs("isp.dat").unwrap();
        assert_eq!(addrs.len(), 4);
        // The ISP path: read straight from the array at those addresses.
        let page_bytes = fs.page_bytes();
        for (i, ppa) in addrs.into_iter().enumerate() {
            let raw = fs.array_mut().read(ppa).unwrap().data;
            assert_eq!(&raw, &data[i * page_bytes..(i + 1) * page_bytes]);
        }
    }

    #[test]
    fn delete_then_recreate() {
        let mut fs = fs();
        fs.create("d").unwrap();
        fs.write("d", &bytes(100, 6)).unwrap();
        fs.delete("d").unwrap();
        assert!(!fs.files.contains_key("d"));
        fs.create("d").unwrap();
        assert_eq!(fs.size("d").unwrap(), 0);
    }

    #[test]
    fn churn_triggers_cleaner_and_preserves_data() {
        let mut fs = fs();
        let page = fs.page_bytes();
        let geom = FlashGeometry::tiny();
        let budget = geom.total_pages(); // logical churn far above capacity
        fs.create("hot").unwrap();
        fs.create("cold").unwrap();
        let cold = bytes(8 * page, 7);
        fs.write("cold", &cold).unwrap();
        let mut latest = Vec::new();
        for round in 0..budget as u64 / 4 {
            latest = bytes(4 * page, 1000 + round);
            fs.write("hot", &latest).unwrap();
        }
        assert_eq!(fs.read("hot").unwrap(), latest);
        assert_eq!(fs.read("cold").unwrap(), cold, "cleaner must move cold data intact");
        let s = fs.stats();
        assert!(s.cleaner_erases > 0, "cleaner must have run");
        assert!(s.flash_writes >= s.logical_writes);
    }

    #[test]
    fn many_files_interleaved() {
        let mut fs = Rfs::format(
            FlashArray::new(FlashGeometry::small(), 11),
            RfsConfig::default(),
        )
        .unwrap();
        let mut contents: Vec<Vec<u8>> = Vec::new();
        for i in 0..12 {
            let name = format!("file{i}");
            fs.create(&name).unwrap();
            let data = bytes((i + 1) * 700, i as u64);
            fs.write(&name, &data).unwrap();
            contents.push(data);
        }
        // Interleaved appends.
        for (i, content) in contents.iter_mut().enumerate() {
            let name = format!("file{i}");
            let extra = bytes(333, 50 + i as u64);
            fs.append(&name, &extra).unwrap();
            content.extend_from_slice(&extra);
        }
        for (i, want) in contents.iter().enumerate() {
            assert_eq!(&fs.read(&format!("file{i}")).unwrap(), want, "file{i}");
        }
        assert_eq!(fs.list().len(), 12);
    }

    #[test]
    fn read_page_is_page_padded() {
        let mut fs = fs();
        fs.create("p").unwrap();
        fs.write("p", &bytes(100, 8)).unwrap();
        let page = fs.read_page("p", 0).unwrap();
        assert_eq!(page.len(), fs.page_bytes());
        assert!(matches!(
            fs.read_page("p", 1),
            Err(FtlError::ReadPastEof { .. })
        ));
    }
}
