//! An RFS-style file namespace on raw flash.
//!
//! BlueDBM's preferred software stack skips the FTL entirely: the file
//! system itself performs logical-to-physical mapping and garbage
//! collection, "achieving better garbage collection efficiency at much
//! lower memory requirement" (paper Section 4, citing its reference 26, RFS).
//!
//! Here that "no FTL" point is a layering choice, not a second flash
//! manager. [`Rfs`] keeps the namespace — names, sizes and each file's
//! logical pages — and hands every page to one [`Ftl`], the same
//! page-mapping and greedy-collection policy the cluster runs per card
//! and the conformance suite pins against an offline twin. Mapping and
//! collection still happen in host software over a raw array, as in the
//! paper; they are just one implementation, so a fix or a test of the
//! collector covers the file system too. What this does not model is
//! RFS's own claim: a collector that sees file boundaries and a smaller
//! map. Every file page costs one `Ftl` table entry like any other.
//!
//! The crucial BlueDBM-specific API is [`Rfs::physical_addrs`]: "user-level
//! applications can query the file system for the physical locations of
//! files on the flash ... Applications can then provide in-storage
//! processors with a stream of physical addresses, so that the in-storage
//! processors can directly read data from flash with very low latency"
//! (Figure 8). It reads each logical page's location off the `Ftl`'s map.

use std::collections::BTreeMap;

use bluedbm_flash::array::FlashArray;
use bluedbm_flash::geometry::Ppa;

use crate::error::FtlError;
use crate::ftl::{Ftl, FtlConfig, FtlStats};

#[derive(Clone, Debug, Default)]
struct Inode {
    /// The `Ftl` logical pages holding the file, in file order.
    pages: Vec<u64>,
    size: u64,
}

/// The file system. Names are flat strings (a hierarchical namespace
/// adds nothing to the experiments; a path-shaped name like
/// `"data/corpus.bin"` is just a string here).
#[derive(Debug)]
pub struct Rfs {
    array: FlashArray,
    ftl: Ftl,
    /// By name, ordered so [`Rfs::list`] needs no sort.
    files: BTreeMap<String, Inode>,
    /// Logical pages no file holds; the lowest is popped first on a
    /// fresh file system.
    free: Vec<u64>,
}

impl Rfs {
    /// Format `array` with an empty file system over a default-configured
    /// [`Ftl`].
    ///
    /// # Errors
    ///
    /// Whatever [`Ftl::new`] refuses the array with.
    pub fn format(array: FlashArray) -> Result<Self, FtlError> {
        let ftl = Ftl::new(&array, FtlConfig::default())?;
        Ok(Rfs {
            free: (0..ftl.capacity_pages()).rev().collect(),
            array,
            ftl,
            files: BTreeMap::new(),
        })
    }

    /// Bytes per page.
    pub fn page_bytes(&self) -> usize {
        self.array.geometry().page_bytes
    }

    /// The flash manager's statistics so far.
    pub fn stats(&self) -> FtlStats {
        self.ftl.stats()
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

    fn inode(&self, name: &str) -> Result<&Inode, FtlError> {
        self.files
            .get(name)
            .ok_or_else(|| FtlError::NoSuchFile(name.to_string()))
    }

    /// File size in bytes.
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`] when absent.
    pub(crate) fn size(&self, name: &str) -> Result<u64, FtlError> {
        Ok(self.inode(name)?.size)
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
        Ok(self
            .inode(name)?
            .pages
            .iter()
            .map(|&lba| self.ftl.physical_of(lba).expect("a file's pages are written"))
            .collect())
    }

    /// Make `data` the contents of `name` from page `from` on: the file
    /// keeps its own logical pages, overwriting them in place, takes
    /// more from the free list or trims and returns the ones past the
    /// end. Nothing changes when the pages would not fit.
    fn store(&mut self, name: &str, from: usize, data: &[u8]) -> Result<(), FtlError> {
        let page_bytes = self.page_bytes();
        let inode = self
            .files
            .get_mut(name)
            .ok_or_else(|| FtlError::NoSuchFile(name.to_string()))?;
        let wanted = from + data.len().div_ceil(page_bytes);
        if wanted > inode.pages.len() + self.free.len() {
            return Err(FtlError::NoSpace);
        }
        for lba in inode.pages.drain(wanted.min(inode.pages.len())..) {
            self.ftl.step_trim(lba)?;
            self.free.push(lba);
        }
        for (idx, chunk) in (from..).zip(data.chunks(page_bytes)) {
            if idx == inode.pages.len() {
                inode.pages.push(self.free.pop().expect("the fit was checked"));
            }
            let mut page = chunk.to_vec();
            page.resize(page_bytes, 0);
            self.ftl
                .step_write(inode.pages[idx])?
                .apply(&mut self.array, &page)?;
        }
        inode.size = (from * page_bytes + data.len()) as u64;
        Ok(())
    }

    /// Replace the contents of `name` with `data` (creating it if absent
    /// is *not* implied — create first).
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`], [`FtlError::NoSpace`] (the file is left
    /// as it was), or a flash error.
    pub fn write(&mut self, name: &str, data: &[u8]) -> Result<(), FtlError> {
        self.store(name, 0, data)
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
        let (from, tail_len) = (size / page_bytes, size % page_bytes);
        if tail_len == 0 {
            return self.store(name, from as usize, data);
        }
        let mut tail = self.read_range(name, from * page_bytes, tail_len as usize)?;
        tail.extend_from_slice(data);
        self.store(name, from as usize, &tail)
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

    /// Delete a file, trimming its pages so collection can reclaim them.
    ///
    /// # Errors
    ///
    /// [`FtlError::NoSuchFile`] when absent.
    pub fn delete(&mut self, name: &str) -> Result<(), FtlError> {
        self.store(name, 0, &[])?;
        self.files.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_flash::geometry::FlashGeometry;
    use bluedbm_sim::rng::Rng;

    fn fs() -> Rfs {
        Rfs::format(FlashArray::new(FlashGeometry::tiny(), 9)).unwrap()
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
        assert_eq!(fs.read("cold").unwrap(), cold, "collection must move cold data intact");
        let s = fs.stats();
        assert!(s.gc_erases > 0, "collection must have run");
        assert!(s.flash_writes >= s.host_writes);
    }

    /// A write or append that needs more pages than the file holds plus
    /// the free list fails with `NoSpace` and leaves every file as it
    /// was, so the space stays usable.
    #[test]
    fn a_write_that_does_not_fit_changes_nothing() {
        let mut fs = fs();
        let page = fs.page_bytes();
        fs.create("a").unwrap();
        let data = bytes(1000, 10);
        fs.write("a", &data).unwrap();
        let addrs = fs.physical_addrs("a").unwrap();
        let too_big = bytes(600 * page, 11);
        assert!(matches!(fs.write("a", &too_big), Err(FtlError::NoSpace)));
        assert!(matches!(fs.append("a", &too_big), Err(FtlError::NoSpace)));
        assert_eq!(fs.size("a").unwrap(), data.len() as u64);
        assert_eq!(fs.read("a").unwrap(), data);
        assert_eq!(fs.physical_addrs("a").unwrap(), addrs);
        fs.create("b").unwrap();
        fs.write("b", &data).unwrap();
        assert_eq!(fs.read("b").unwrap(), data);
    }

    #[test]
    fn many_files_interleaved() {
        let mut fs = Rfs::format(FlashArray::new(FlashGeometry::small(), 11)).unwrap();
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
