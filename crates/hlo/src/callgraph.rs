//! The program call graph: a global (always-resident) object.
//!
//! The graph itself is derived data — laid out from scratch, from the
//! session's resident per-routine summaries and maintained site
//! counts, whenever a phase needs it, and released when dropped. No
//! routine body is loaded to build it.

use crate::session::HloSession;
use cmo_ir::{CallSiteId, RoutineId};
use cmo_naim::{MemCharge, NaimError};

/// One call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// The calling routine.
    pub caller: RoutineId,
    /// The call site within the caller.
    pub site: CallSiteId,
    /// The callee.
    pub callee: RoutineId,
    /// Maintained profile count of the site (0 when unprofiled).
    pub count: u64,
}

/// The call graph, rebuilt from scratch whenever needed (derived-data
/// discipline, §4.1): edges in deterministic (caller, site) order.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All edges, sorted by `(caller, site)`.
    pub edges: Vec<CallEdge>,
    /// First edge index per routine (length = routines + 1).
    index: Vec<u32>,
    /// The graph's bytes in the session's derived-data accounting,
    /// for as long as the graph lives.
    _charge: Option<MemCharge>,
}

impl CallGraph {
    /// Lays the call graph out from the session's routine summaries
    /// and maintained site counts — §5's "minimum amount of analysis"
    /// kept resident, so that no body is loaded here.
    ///
    /// # Errors
    ///
    /// Never fails — the summaries are resident. The `Result` is what
    /// callers written against the body-scanning signature expect.
    pub fn build(session: &mut HloSession) -> Result<Self, NaimError> {
        let n = session.n_routines();
        let summaries = session.summaries();
        let routines = || (0..n).map(RoutineId::from_index);
        let mut edges = Vec::with_capacity(routines().map(|r| summaries.calls(r).len()).sum());
        let mut index = Vec::with_capacity(n + 1);
        for caller in routines() {
            index.push(edges.len() as u32);
            edges.extend(summaries.calls(caller).map(|(site, callee)| CallEdge {
                caller,
                site,
                callee,
                count: session.site_count(caller, site.0),
            }));
        }
        index.push(edges.len() as u32);
        let mut graph = CallGraph {
            edges,
            index,
            _charge: None,
        };
        graph._charge = Some(session.charge_derived(graph.heap_bytes()));
        Ok(graph)
    }

    /// Edges out of `caller`.
    #[must_use]
    pub fn out_edges(&self, caller: RoutineId) -> &[CallEdge] {
        let a = self.index[caller.index()] as usize;
        let b = self.index[caller.index() + 1] as usize;
        &self.edges[a..b]
    }

    /// Routines reachable from `root` (including it).
    #[must_use]
    pub fn reachable_from(&self, root: RoutineId) -> Vec<bool> {
        let n = self.index.len() - 1;
        let mut seen = vec![false; n];
        let mut work = vec![root];
        while let Some(r) = work.pop() {
            if r.index() >= n || seen[r.index()] {
                continue;
            }
            seen[r.index()] = true;
            for e in self.out_edges(r) {
                if !seen[e.callee.index()] {
                    work.push(e.callee);
                }
            }
        }
        seen
    }

    /// Approximate heap bytes (accounted as derived data).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<CallEdge>() + self.index.capacity() * 4
    }

    /// Partitions the routines into independent optimization clusters
    /// (WHOPR-style LTO partitioning): condense strongly connected
    /// components, then greedily merge components joined by *coupled*
    /// edges — edges the caller-supplied predicate marks as potential
    /// inline or clone candidates — hottest first, capped at
    /// `max_cluster` routines per cluster.
    ///
    /// Invariants the rest of the pipeline relies on:
    ///
    /// - SCCs collapse into one cluster unconditionally (recursion
    ///   never straddles a cluster boundary), even past the size cap.
    /// - Coupled inter-component edges are merged in deterministic
    ///   hottest-first `(count desc, caller, site)` order, so the
    ///   partition is identical at every `-j` level.
    /// - Clusters are ordered by their smallest member index and each
    ///   cluster's members are sorted ascending, giving the driver a
    ///   stable fan-out and merge order.
    /// - Over-coupling is safe (it only shrinks parallelism); any
    ///   candidate the predicate missed is rejected at inline time
    ///   with the `cross_cluster` reason.
    #[must_use]
    pub fn partition(
        &self,
        n_routines: usize,
        max_cluster: usize,
        may_couple: impl Fn(&CallEdge) -> bool,
    ) -> Partition {
        let n = n_routines;
        let comp = self.sccs(n);
        let n_comps = comp.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut comp_size = vec![0u32; n_comps];
        for &c in &comp {
            comp_size[c as usize] += 1;
        }
        let mut uf = UnionFind::new(&comp_size);
        // Coupled inter-component edges, hottest first. Self edges can
        // never inline and SCC edges are already intra-component.
        let mut coupled: Vec<&CallEdge> = self
            .edges
            .iter()
            .filter(|e| {
                e.caller != e.callee
                    && e.callee.index() < n
                    && comp[e.caller.index()] != comp[e.callee.index()]
                    && may_couple(e)
            })
            .collect();
        coupled.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.caller.cmp(&b.caller))
                .then(a.site.cmp(&b.site))
        });
        for e in coupled {
            uf.union(comp[e.caller.index()], comp[e.callee.index()], max_cluster);
        }
        // Assemble clusters in min-member order (first routine whose
        // root is new opens the cluster, so iterating ascending gives
        // the order for free) with ascending members.
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut cluster_of = vec![0u32; n];
        let mut comp_cluster = vec![u32::MAX; n_comps];
        for (i, &c) in comp.iter().enumerate() {
            let root = uf.find(c) as usize;
            if comp_cluster[root] == u32::MAX {
                comp_cluster[root] = clusters.len() as u32;
                clusters.push(Cluster::default());
            }
            let k = comp_cluster[root];
            cluster_of[i] = k;
            clusters[k as usize].members.push(RoutineId::from_index(i));
        }
        let mut cross_edges = 0u64;
        for e in &self.edges {
            if e.callee.index() >= n {
                cross_edges += 1;
            } else if cluster_of[e.caller.index()] == cluster_of[e.callee.index()] {
                clusters[cluster_of[e.caller.index()] as usize].edges += 1;
            } else {
                cross_edges += 1;
            }
        }
        Partition {
            clusters,
            cluster_of,
            cross_edges,
        }
    }

    /// Strongly connected components over routines `0..n` (iterative
    /// Tarjan; edges to out-of-range callees are ignored). Returns the
    /// component id of each routine.
    fn sccs(&self, n: usize) -> Vec<u32> {
        let mut comp = vec![0u32; n];
        let mut order = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_order = 0u32;
        let mut n_comps = 0u32;
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if order[root] != u32::MAX {
                continue;
            }
            frames.push((root, 0));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0;
                if order[v] == u32::MAX {
                    order[v] = next_order;
                    low[v] = next_order;
                    next_order += 1;
                    stack.push(v as u32);
                    on_stack[v] = true;
                }
                let out = self.out_edges(RoutineId::from_index(v));
                let mut descended = false;
                while frame.1 < out.len() {
                    let w = out[frame.1].callee.index();
                    frame.1 += 1;
                    if w >= n {
                        continue;
                    }
                    if order[w] == u32::MAX {
                        frames.push((w, 0));
                        descended = true;
                        break;
                    }
                    if on_stack[w] {
                        low[v] = low[v].min(order[w]);
                    }
                }
                if descended {
                    continue;
                }
                if low[v] == order[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack") as usize;
                        on_stack[w] = false;
                        comp[w] = n_comps;
                        if w == v {
                            break;
                        }
                    }
                    n_comps += 1;
                }
                frames.pop();
                if let Some(parent) = frames.last_mut() {
                    low[parent.0] = low[parent.0].min(low[v]);
                }
            }
        }
        comp
    }
}

/// One independent optimization cluster: a set of routines with no
/// coupled call edges leaving the set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cluster {
    /// Member routines, sorted ascending by index.
    pub members: Vec<RoutineId>,
    /// Call edges internal to the cluster.
    pub edges: u64,
}

/// A full partition of the program's routines into clusters.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Clusters ordered by smallest member index.
    pub clusters: Vec<Cluster>,
    /// Cluster index of each routine.
    pub cluster_of: Vec<u32>,
    /// Call edges that straddle a cluster boundary (or leave the
    /// routine range): never inline or clone candidates.
    pub cross_edges: u64,
}

impl Partition {
    /// Whether two routines landed in the same cluster. Out-of-range
    /// ids (e.g. provisional clone ids) are never local to anything.
    #[must_use]
    pub fn same_cluster(&self, a: RoutineId, b: RoutineId) -> bool {
        a.index() < self.cluster_of.len()
            && b.index() < self.cluster_of.len()
            && self.cluster_of[a.index()] == self.cluster_of[b.index()]
    }

    /// Summary counters for the compile report.
    #[must_use]
    pub fn stats(&self) -> PartitionStats {
        PartitionStats {
            clusters: self.clusters.len() as u64,
            largest: self
                .clusters
                .iter()
                .map(|c| c.members.len() as u64)
                .max()
                .unwrap_or(0),
            cross_edges: self.cross_edges,
        }
    }
}

/// Partition summary counters, carried into the compile report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Number of clusters the call graph condensed into.
    pub clusters: u64,
    /// Routine count of the largest cluster.
    pub largest: u64,
    /// Call edges straddling a cluster boundary.
    pub cross_edges: u64,
}

/// Union-find over SCC components with a size-capped union: roots are
/// the component with the smaller current root id, which keeps merge
/// results independent of merge order ties.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(sizes: &[u32]) -> Self {
        UnionFind {
            parent: (0..sizes.len() as u32).collect(),
            size: sizes.to_vec(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    /// Merges the sets of `a` and `b` unless the combined routine
    /// count would exceed `cap`.
    fn union(&mut self, a: u32, b: u32, cap: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let combined = self.size[ra as usize] + self.size[rb as usize];
        if combined as usize > cap {
            return;
        }
        let (keep, fold) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[fold as usize] = keep;
        self.size[keep as usize] = combined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;
    use cmo_naim::NaimConfig;

    fn session(srcs: &[(&str, &str)]) -> HloSession {
        let objs = srcs
            .iter()
            .map(|(name, src)| compile_module(name, src).unwrap())
            .collect();
        let unit = link_objects(objs).unwrap();
        HloSession::new(unit, NaimConfig::default(), None).unwrap()
    }

    #[test]
    fn edges_cross_modules() {
        let mut s = session(&[
            (
                "a",
                "extern fn g() -> int;\nfn main() -> int { return g() + g(); }",
            ),
            ("b", "fn g() -> int { return 1; }"),
        ]);
        let cg = CallGraph::build(&mut s).unwrap();
        assert_eq!(cg.edges.len(), 2);
        let main = s.program.find_routine("main").unwrap();
        let g = s.program.find_routine("g").unwrap();
        assert_eq!(cg.out_edges(main).len(), 2);
        assert!(cg.out_edges(main).iter().all(|e| e.callee == g));
        assert!(cg.out_edges(g).is_empty());
    }

    #[test]
    fn reachability_finds_dead_routines() {
        let mut s = session(&[(
            "a",
            r#"
            static fn used() -> int { return 1; }
            static fn dead() -> int { return 2; }
            fn main() -> int { return used(); }
            "#,
        )]);
        let cg = CallGraph::build(&mut s).unwrap();
        let main = s.program.find_routine("main").unwrap();
        let reach = cg.reachable_from(main);
        let alive = reach.iter().filter(|&&r| r).count();
        assert_eq!(alive, 2, "main + used");
    }

    /// Builds a graph directly from `(caller, site, callee, count)`
    /// tuples (sorted per caller), sidestepping the loader.
    fn graph(n: usize, edges: &[(usize, u32, usize, u64)]) -> CallGraph {
        let mut all: Vec<CallEdge> = edges
            .iter()
            .map(|&(caller, site, callee, count)| CallEdge {
                caller: RoutineId::from_index(caller),
                site: CallSiteId(site),
                callee: RoutineId::from_index(callee),
                count,
            })
            .collect();
        all.sort_by_key(|e| (e.caller, e.site));
        let mut index = Vec::with_capacity(n + 1);
        let mut at = 0;
        for i in 0..n {
            index.push(at as u32);
            while at < all.len() && all[at].caller.index() == i {
                at += 1;
            }
        }
        index.push(all.len() as u32);
        CallGraph {
            edges: all,
            index,
            _charge: None,
        }
    }

    #[test]
    fn recursive_scc_collapses_into_one_cluster() {
        // main -> a -> b -> c -> a: the cycle must land in one cluster
        // even when nothing couples (and even past any size cap).
        let g = graph(4, &[(0, 0, 1, 5), (1, 0, 2, 5), (2, 0, 3, 5), (3, 0, 1, 5)]);
        let p = g.partition(4, 1, |_| false);
        assert_eq!(p.cluster_of[1], p.cluster_of[2]);
        assert_eq!(p.cluster_of[2], p.cluster_of[3]);
        assert_ne!(p.cluster_of[0], p.cluster_of[1], "main is uncoupled");
        assert_eq!(p.stats().clusters, 2);
        assert_eq!(p.stats().largest, 3);
        assert_eq!(p.cross_edges, 1, "main -> a straddles the boundary");
    }

    #[test]
    fn size_cap_splits_coupled_clusters_hottest_first() {
        // 0 calls 1 (hot) and 2 (cold); the cap of two admits only the
        // hottest coupling, and the cold edge becomes a cross edge.
        let g = graph(3, &[(0, 0, 1, 100), (0, 1, 2, 50)]);
        let p = g.partition(3, 2, |_| true);
        assert_eq!(p.cluster_of[0], p.cluster_of[1]);
        assert_ne!(p.cluster_of[0], p.cluster_of[2]);
        assert!(p.same_cluster(RoutineId::from_index(0), RoutineId::from_index(1)));
        assert!(!p.same_cluster(RoutineId::from_index(0), RoutineId::from_index(2)));
        assert_eq!(p.cross_edges, 1);
        assert_eq!(p.clusters[0].edges, 1);
    }

    #[test]
    fn singleton_and_dead_routines_form_their_own_clusters() {
        // Routine 1 is dead (no edges touch it); self-recursion on 2
        // stays internal. Every routine is its own cluster.
        let g = graph(3, &[(2, 0, 2, 9)]);
        let p = g.partition(3, 16, |_| true);
        assert_eq!(p.stats().clusters, 3);
        assert_eq!(p.stats().largest, 1);
        assert_eq!(p.cross_edges, 0, "self edges are never cross edges");
        assert_eq!(p.clusters[2].edges, 1);
        // Clusters are ordered by smallest member, members ascending.
        for (k, c) in p.clusters.iter().enumerate() {
            assert_eq!(c.members, vec![RoutineId::from_index(k)]);
        }
    }

    #[test]
    fn empty_program_partitions_to_nothing() {
        let g = graph(0, &[]);
        let p = g.partition(0, 16, |_| true);
        assert!(p.clusters.is_empty());
        assert_eq!(p.stats(), PartitionStats::default());
    }

    #[test]
    fn partition_is_deterministic_under_count_ties() {
        // Two equally hot couplings compete for the cap: the tie must
        // break on (caller, site), not discovery order.
        let g = graph(4, &[(0, 0, 2, 10), (1, 0, 2, 10), (3, 0, 2, 10)]);
        let p = g.partition(4, 2, |_| true);
        let q = g.partition(4, 2, |_| true);
        assert_eq!(p.cluster_of, q.cluster_of);
        // Caller 0 wins the tie for routine 2.
        assert_eq!(p.cluster_of[0], p.cluster_of[2]);
        assert_eq!(p.cross_edges, 2);
    }

    #[test]
    fn build_loads_no_body_and_releases_its_charge() {
        let mut s = session(&[
            (
                "a",
                "extern fn g() -> int;\nfn main() -> int { return g() + g(); }",
            ),
            ("b", "fn g() -> int { return 1; }"),
        ]);
        let stats = s.loader_stats();
        let derived = s.memory().class(cmo_naim::MemClass::Derived);
        let cg = CallGraph::build(&mut s).unwrap();
        assert_eq!(cg.edges.len(), 2);
        assert_eq!(s.loader_stats(), stats, "not one pool access");
        assert!(s.body_accesses.iter().all(|&n| n == 0));
        assert_eq!(
            s.memory().class(cmo_naim::MemClass::Derived),
            derived + cg.heap_bytes()
        );
        drop(cg);
        assert_eq!(s.memory().class(cmo_naim::MemClass::Derived), derived);
    }
}
