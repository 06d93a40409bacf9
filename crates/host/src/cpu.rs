//! CPU topology: sockets, cores, hyper-threads.

use std::fmt;

/// A logical CPU index.
///
/// The paper's numbering is used: on a 2-socket × 10-core × 2-HT
/// machine, cpus 0–9 are socket 0's first threads, 10–19 socket 1's
/// first threads, and 20–39 the respective hyper-thread siblings
/// (cpu *n* pairs with cpu *n* + 20).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u16);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu({})", self.0)
    }
}

/// A set of logical CPUs (bitmask; supports up to 64 logical CPUs,
/// enough for the paper's 40).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CpuSet(u64);

impl CpuSet {
    /// The empty set.
    pub const EMPTY: CpuSet = CpuSet(0);

    /// Builds a set from an iterator of CPU ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is ≥ 64.
    pub fn from_cpus<I: IntoIterator<Item = CpuId>>(cpus: I) -> Self {
        let mut s = CpuSet(0);
        for c in cpus {
            s.insert(c);
        }
        s
    }

    /// Builds a set from an inclusive range, like the kernel's
    /// `isolcpus=4-19` syntax.
    pub fn from_range(lo: u16, hi: u16) -> Self {
        Self::from_cpus((lo..=hi).map(CpuId))
    }

    /// Adds a CPU.
    ///
    /// # Panics
    ///
    /// Panics if the id is ≥ 64.
    pub fn insert(&mut self, cpu: CpuId) {
        assert!(cpu.0 < 64, "CpuSet supports ids 0..64");
        self.0 |= 1 << cpu.0;
    }

    /// Set-union.
    pub fn union(self, other: CpuSet) -> CpuSet {
        CpuSet(self.0 | other.0)
    }

    /// Membership test.
    pub fn contains(&self, cpu: CpuId) -> bool {
        cpu.0 < 64 && self.0 & (1 << cpu.0) != 0
    }

    /// Number of CPUs in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> + '_ {
        (0..64u16).map(CpuId).filter(move |c| self.contains(*c))
    }
}

/// Physical CPU layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CpuTopology {
    /// CPU packages.
    pub sockets: u16,
    /// Physical cores per socket.
    pub cores_per_socket: u16,
    /// Hardware threads per physical core.
    pub threads_per_core: u16,
}

impl CpuTopology {
    /// The paper's host: two Intel Xeon E5-2690 v2, each 10 physical /
    /// 20 logical cores (§III-A).
    pub fn xeon_e5_2690_v2_dual() -> Self {
        CpuTopology {
            sockets: 2,
            cores_per_socket: 10,
            threads_per_core: 2,
        }
    }

    /// Total logical CPUs.
    #[inline]
    pub fn logical_cpus(&self) -> u16 {
        self.sockets * self.cores_per_socket * self.threads_per_core
    }

    /// Total physical cores.
    #[inline]
    pub fn physical_cores(&self) -> u16 {
        self.sockets * self.cores_per_socket
    }

    /// Physical core index (0-based across sockets) of a logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[inline]
    pub fn physical_core_of(&self, cpu: CpuId) -> u16 {
        assert!(cpu.0 < self.logical_cpus(), "cpu out of range");
        cpu.0 % self.physical_cores()
    }

    /// Socket of a logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[inline]
    pub fn socket_of(&self, cpu: CpuId) -> u16 {
        self.physical_core_of(cpu) / self.cores_per_socket
    }

    /// The hyper-thread sibling of a logical CPU (for 2-way SMT).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range or SMT is not 2-way.
    #[inline]
    pub fn sibling_of(&self, cpu: CpuId) -> CpuId {
        assert_eq!(self.threads_per_core, 2, "sibling_of requires 2-way SMT");
        assert!(cpu.0 < self.logical_cpus(), "cpu out of range");
        let half = self.physical_cores();
        if cpu.0 < half {
            CpuId(cpu.0 + half)
        } else {
            CpuId(cpu.0 - half)
        }
    }

    /// Whether two logical CPUs share a physical core.
    #[inline]
    pub fn same_core(&self, a: CpuId, b: CpuId) -> bool {
        self.physical_core_of(a) == self.physical_core_of(b)
    }

    /// Whether two logical CPUs share a socket.
    #[inline]
    pub fn same_socket(&self, a: CpuId, b: CpuId) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }

    /// All logical CPUs.
    pub fn all_cpus(&self) -> CpuSet {
        CpuSet::from_range(0, self.logical_cpus() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> CpuTopology {
        CpuTopology::xeon_e5_2690_v2_dual()
    }

    #[test]
    fn paper_host_has_40_logical_cpus() {
        let t = topo();
        assert_eq!(t.logical_cpus(), 40);
        assert_eq!(t.physical_cores(), 20);
    }

    #[test]
    fn sibling_pairs_match_paper_numbering() {
        let t = topo();
        assert_eq!(t.sibling_of(CpuId(4)), CpuId(24));
        assert_eq!(t.sibling_of(CpuId(24)), CpuId(4));
        assert_eq!(t.sibling_of(CpuId(0)), CpuId(20));
        assert_eq!(t.sibling_of(CpuId(39)), CpuId(19));
        for n in 0..40 {
            let c = CpuId(n);
            assert_eq!(t.sibling_of(t.sibling_of(c)), c);
            assert!(t.same_core(c, t.sibling_of(c)));
        }
    }

    #[test]
    fn sockets_split_at_core_10() {
        let t = topo();
        assert_eq!(t.socket_of(CpuId(0)), 0);
        assert_eq!(t.socket_of(CpuId(9)), 0);
        assert_eq!(t.socket_of(CpuId(10)), 1);
        assert_eq!(t.socket_of(CpuId(19)), 1);
        // HT siblings share the socket.
        assert_eq!(t.socket_of(CpuId(29)), 0);
        assert_eq!(t.socket_of(CpuId(30)), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cpu_panics() {
        let _ = topo().physical_core_of(CpuId(40));
    }

    #[test]
    fn cpuset_range_matches_kernel_syntax() {
        // isolcpus=4-19,24-39 from §IV-C.
        let iso = CpuSet::from_range(4, 19).union(CpuSet::from_range(24, 39));
        assert_eq!(iso.len(), 32);
        assert!(iso.contains(CpuId(4)));
        assert!(iso.contains(CpuId(39)));
        assert!(!iso.contains(CpuId(3)));
        assert!(!iso.contains(CpuId(20)));
    }

    #[test]
    fn cpuset_iter_ascending() {
        let s = CpuSet::from_cpus([CpuId(5), CpuId(1), CpuId(30)]);
        let v: Vec<u16> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![1, 5, 30]);
        assert!(!s.is_empty());
        assert!(CpuSet::EMPTY.is_empty());
    }
}
