//! Dijkstra shortest paths with closure-supplied link costs.
//!
//! All searches run inside a reusable [`SpfWorkspace`] whose arrays are
//! generation-stamped: starting a new search bumps a generation counter
//! instead of clearing (or worse, reallocating) the `dist`/`parent`/`done`
//! arrays and the heap. The module-level entry points
//! ([`shortest_path_tree`], [`shortest_path`]) borrow a thread-local
//! workspace, so every caller — including Yen spur searches and Suurballe
//! pass 1 — is allocation-free on the hot path without signature changes;
//! the `_in` variants accept an explicit workspace for callers that manage
//! their own.

use crate::{LinkId, Network, NodeId, Route};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-heap entry ordered by cost (ties broken by node id for
/// determinism).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; costs are finite by construction.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The result of a single-source Dijkstra run; query it with
/// [`ShortestPathTree::distance`] and [`ShortestPathTree::route_to`].
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<Option<f64>>,
    parent_link: Vec<Option<LinkId>>,
}

impl ShortestPathTree {
    /// The source node the tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.dist.get(node.index()).copied().flatten()
    }

    /// Reconstructs the cheapest route from the source to `dest`, or `None`
    /// when `dest` is unreachable or equal to the source.
    pub fn route_to(&self, net: &Network, dest: NodeId) -> Option<Route> {
        if dest == self.source {
            return None;
        }
        self.dist.get(dest.index()).copied().flatten()?;
        let mut links = Vec::new();
        let mut cur = dest;
        while cur != self.source {
            let link = self.parent_link[cur.index()]?;
            links.push(link);
            cur = net.link(link).src();
        }
        links.reverse();
        Route::new(net, links).ok()
    }
}

/// Reusable single-source shortest-path scratch state.
///
/// The arrays are *generation-stamped*: an entry is meaningful only when
/// its stamp equals the workspace's current generation, so starting a new
/// search is O(1) — bump the generation, clear the heap (capacity kept).
/// One workspace serves searches over networks of any size; arrays grow
/// monotonically to the largest node count seen.
#[derive(Debug)]
pub struct SpfWorkspace {
    gen: u32,
    source: NodeId,
    stamp: Vec<u32>,
    dist: Vec<f64>,
    parent_link: Vec<Option<LinkId>>,
    done: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl Default for SpfWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SpfWorkspace {
    /// Creates an empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        SpfWorkspace {
            gen: 0,
            source: NodeId::new(0),
            stamp: Vec::new(),
            dist: Vec::new(),
            parent_link: Vec::new(),
            done: Vec::new(),
            heap: BinaryHeap::new(), // lint:allow(spf-alloc) — workspace construction
        }
    }

    /// Starts a new generation sized for `n` nodes.
    fn begin(&mut self, n: usize, src: NodeId) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0.0);
            self.parent_link.resize(n, None);
            self.done.resize(n, false);
        }
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation counter wrapped: stale stamps could collide,
                // so clear them once every 2^32 searches.
                self.stamp.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
        self.heap.clear();
        self.source = src;
    }

    /// Runs Dijkstra from `src` with per-link costs given by `cost`,
    /// replacing whatever search the workspace held before.
    ///
    /// Links for which `cost` returns `None` are excluded from the search.
    /// Negative costs are treated as zero (Dijkstra's invariant requires
    /// non-negative costs; the routing schemes of the paper only produce
    /// non-negative ones).
    pub fn run(&mut self, net: &Network, src: NodeId, cost: impl FnMut(LinkId) -> Option<f64>) {
        self.search(net, src, None, cost);
    }

    /// The Dijkstra loop behind [`SpfWorkspace::run`] and
    /// [`shortest_path_in`]. With a `target`, the loop stops as soon as the
    /// target is popped and marked done: its distance and tree link are
    /// final then, and so is every ancestor (each was settled before it),
    /// so the route to the target is the one a full run yields. Nodes left
    /// unsettled keep tentative state and must not be read.
    fn search(
        &mut self,
        net: &Network,
        src: NodeId,
        target: Option<NodeId>,
        mut cost: impl FnMut(LinkId) -> Option<f64>,
    ) {
        let n = net.num_nodes();
        self.begin(n, src);
        if src.index() < n {
            self.stamp[src.index()] = self.gen;
            self.done[src.index()] = false;
            self.dist[src.index()] = 0.0;
            self.parent_link[src.index()] = None;
            self.heap.push(HeapEntry {
                cost: 0.0,
                node: src,
            });
        }

        while let Some(HeapEntry { cost: d, node }) = self.heap.pop() {
            let i = node.index();
            if self.done[i] {
                continue;
            }
            self.done[i] = true;
            if target == Some(node) {
                break;
            }
            for &lid in net.out_links(node) {
                let Some(step) = cost(lid) else { continue };
                let step = step.max(0.0);
                let next = net.link(lid).dst();
                let j = next.index();
                let seen = self.stamp[j] == self.gen;
                if seen && self.done[j] {
                    continue;
                }
                let cand = d + step;
                if !seen || cand < self.dist[j] {
                    self.stamp[j] = self.gen;
                    self.done[j] = false;
                    self.dist[j] = cand;
                    self.parent_link[j] = Some(lid);
                    self.heap.push(HeapEntry {
                        cost: cand,
                        node: next,
                    });
                }
            }
        }
    }

    /// The source of the workspace's current search.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node` in the current search, or
    /// `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let i = node.index();
        (i < self.stamp.len() && self.stamp[i] == self.gen).then(|| self.dist[i])
    }

    /// Reconstructs the cheapest route of the current search to `dest`, or
    /// `None` when `dest` is unreachable or equal to the source.
    pub fn route_to(&self, net: &Network, dest: NodeId) -> Option<Route> {
        if dest == self.source {
            return None;
        }
        self.distance(dest)?;
        let mut links = Vec::new();
        let mut cur = dest;
        while cur != self.source {
            let link = self.parent_link[cur.index()]?;
            links.push(link);
            cur = net.link(link).src();
        }
        links.reverse();
        Route::new(net, links).ok()
    }

    /// The tree link that reaches `node` in the current search, or `None`
    /// for the source and unreached nodes. Together with
    /// [`SpfWorkspace::distance`] this lets callers copy a finished search
    /// out into their own storage (the dynamic-SPT engine builds its
    /// repairable tree this way).
    pub fn parent_link(&self, node: NodeId) -> Option<LinkId> {
        let i = node.index();
        (i < self.stamp.len() && self.stamp[i] == self.gen)
            .then(|| self.parent_link[i])
            .flatten()
    }

    /// Copies the current search out as an owned [`ShortestPathTree`] for
    /// callers that hold the result across later searches.
    pub fn extract_tree(&self, n: usize) -> ShortestPathTree {
        // lint:allow(spf-alloc) — cold path: the owned-tree API must allocate its result
        let mut dist: Vec<Option<f64>> = vec![None; n];
        // lint:allow(spf-alloc) — cold path: owned-tree parent array
        let mut parent_link: Vec<Option<LinkId>> = vec![None; n];
        for i in 0..n.min(self.stamp.len()) {
            if self.stamp[i] == self.gen {
                dist[i] = Some(self.dist[i]);
                parent_link[i] = self.parent_link[i];
            }
        }
        ShortestPathTree {
            source: self.source,
            dist,
            parent_link,
        }
    }
}

thread_local! {
    /// Per-thread scratch shared by the workspace-less entry points below,
    /// so existing callers get allocation reuse without signature changes.
    static SCRATCH: RefCell<SpfWorkspace> = RefCell::new(SpfWorkspace::new());
}

pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SpfWorkspace) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        // Re-entrant search (a cost closure running Dijkstra): fall back to
        // a fresh one-shot workspace rather than aliasing the scratch.
        Err(_) => f(&mut SpfWorkspace::new()),
    })
}

/// Runs Dijkstra from `src` with per-link costs given by `cost`, returning
/// an owned tree.
///
/// Links for which `cost` returns `None` are excluded from the search.
/// Negative costs are treated as zero (Dijkstra's invariant requires
/// non-negative costs; the routing schemes of the paper only produce
/// non-negative ones).
pub fn shortest_path_tree(
    net: &Network,
    src: NodeId,
    cost: impl FnMut(LinkId) -> Option<f64>,
) -> ShortestPathTree {
    with_scratch(|ws| {
        ws.run(net, src, cost);
        ws.extract_tree(net.num_nodes())
    })
}

/// Finds the cheapest route from `src` to `dst` under `cost`, returning
/// `(total_cost, route)`, or `None` when unreachable or `src == dst`.
///
/// The search stops once `dst` settles instead of growing the whole tree.
/// The route is the one [`shortest_path_tree`] yields for `dst`: the
/// nodes settle in the same order, and a node's tree link changes only on
/// a strictly cheaper relaxation before it settles.
///
/// # Example
///
/// ```
/// use drt_net::{algo, topology, Bandwidth, NodeId};
///
/// let net = topology::ring(5, Bandwidth::from_mbps(10))?;
/// let (cost, route) =
///     algo::shortest_path(&net, NodeId::new(0), NodeId::new(2), |_| Some(1.0)).unwrap();
/// assert_eq!(cost, 2.0);
/// assert_eq!(route.len(), 2);
/// # Ok::<(), drt_net::NetError>(())
/// ```
pub fn shortest_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl FnMut(LinkId) -> Option<f64>,
) -> Option<(f64, Route)> {
    with_scratch(|ws| shortest_path_in(ws, net, src, dst, cost))
}

/// [`shortest_path`] into a caller-managed [`SpfWorkspace`] — the zero-
/// allocation variant threaded through Yen spur searches and the disjoint-
/// pair algorithms. Like [`shortest_path`] it stops once `dst` settles, so
/// afterwards the workspace answers for `dst` only; callers that read
/// other nodes use [`SpfWorkspace::run`].
pub fn shortest_path_in(
    ws: &mut SpfWorkspace,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl FnMut(LinkId) -> Option<f64>,
) -> Option<(f64, Route)> {
    ws.search(net, src, Some(dst), cost);
    let d = ws.distance(dst)?;
    let route = ws.route_to(net, dst)?;
    Some((d, route))
}

/// Finds a minimum-hop route from `src` to `dst` (unit link costs), or
/// `None` when unreachable or `src == dst`.
pub fn shortest_path_hops(net: &Network, src: NodeId, dst: NodeId) -> Option<Route> {
    shortest_path(net, src, dst, |_| Some(1.0)).map(|(_, r)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn ring_hop_counts() {
        let net = topology::ring(6, CAP).unwrap();
        let tree = shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
        assert_eq!(tree.distance(NodeId::new(0)), Some(0.0));
        assert_eq!(tree.distance(NodeId::new(3)), Some(3.0));
        assert_eq!(tree.distance(NodeId::new(5)), Some(1.0));
        assert_eq!(tree.source(), NodeId::new(0));
    }

    #[test]
    fn route_reconstruction_is_contiguous() {
        let net = topology::mesh(4, 4, CAP).unwrap();
        let route = shortest_path_hops(&net, NodeId::new(0), NodeId::new(15)).unwrap();
        assert_eq!(route.len(), 6); // manhattan distance in a 4x4 mesh
        assert_eq!(route.source(), NodeId::new(0));
        assert_eq!(route.dest(), NodeId::new(15));
        assert!(route.is_simple(&net));
    }

    #[test]
    fn excluded_links_are_avoided() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Exclude the direct 0 -> 1 link: forced the long way around.
        let (cost, route) = shortest_path(&net, NodeId::new(0), NodeId::new(1), |l| {
            if l == l01 {
                None
            } else {
                Some(1.0)
            }
        })
        .unwrap();
        assert_eq!(cost, 3.0);
        assert!(!route.contains_link(l01));
    }

    #[test]
    fn unreachable_returns_none() {
        // Two disconnected duplex pairs.
        let mut b = crate::NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), CAP)
            .unwrap();
        let net = b.build();
        assert!(shortest_path_hops(&net, NodeId::new(0), NodeId::new(2)).is_none());
    }

    #[test]
    fn src_equals_dst_returns_none() {
        let net = topology::ring(4, CAP).unwrap();
        assert!(shortest_path_hops(&net, NodeId::new(1), NodeId::new(1)).is_none());
    }

    #[test]
    fn weighted_costs_divert_route() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Make the direct hop expensive but not excluded.
        let (cost, route) = shortest_path(&net, NodeId::new(0), NodeId::new(1), |l| {
            if l == l01 {
                Some(10.0)
            } else {
                Some(1.0)
            }
        })
        .unwrap();
        assert_eq!(cost, 3.0);
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn negative_costs_clamped_to_zero() {
        let net = topology::ring(4, CAP).unwrap();
        let (cost, _) =
            shortest_path(&net, NodeId::new(0), NodeId::new(2), |_| Some(-5.0)).unwrap();
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let a = shortest_path_hops(&net, NodeId::new(0), NodeId::new(8)).unwrap();
        let b = shortest_path_hops(&net, NodeId::new(0), NodeId::new(8)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // Interleave searches over two different networks through ONE
        // workspace; each result must equal a fresh single-use run.
        let small = topology::ring(5, CAP).unwrap();
        let big = topology::mesh(4, 4, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        for round in 0..3 {
            for (net, dst) in [(&small, 3), (&big, 15)] {
                let src = NodeId::new(round % 2);
                let got = shortest_path_in(&mut ws, net, src, NodeId::new(dst), |_| Some(1.0));
                let fresh = shortest_path(net, src, NodeId::new(dst), |_| Some(1.0));
                assert_eq!(got, fresh);
            }
        }
    }

    #[test]
    fn workspace_stale_state_is_invisible() {
        // A search that reaches many nodes followed by one that reaches
        // few: the second must not see the first's distances.
        let net = topology::mesh(4, 4, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        ws.run(&net, NodeId::new(0), |_| Some(1.0));
        assert!(ws.distance(NodeId::new(15)).is_some());
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Now exclude everything: only the source is reachable.
        ws.run(&net, NodeId::new(1), |_| None::<f64>);
        assert_eq!(ws.source(), NodeId::new(1));
        assert_eq!(ws.distance(NodeId::new(1)), Some(0.0));
        for i in [0u32, 2, 5, 15] {
            assert_eq!(ws.distance(NodeId::new(i)), None, "stale dist at {i}");
        }
        assert!(ws.route_to(&net, NodeId::new(2)).is_none());
        let _ = l01;
    }

    #[test]
    fn extract_tree_matches_workspace_queries() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        ws.run(&net, NodeId::new(0), |_| Some(1.0));
        let tree = ws.extract_tree(net.num_nodes());
        for i in 0..9u32 {
            let node = NodeId::new(i);
            assert_eq!(tree.distance(node), ws.distance(node));
            assert_eq!(tree.route_to(&net, node), ws.route_to(&net, node));
        }
        assert_eq!(tree.source(), ws.source());
    }
}
