//! The flooding engine: simulates one CDP flood at message granularity.

use super::cdp::cdp_wire_bytes;
use crate::routing::flooding::{Candidate, FloodingParams};
use crate::routing::{RouteRequest, RoutingOverhead};
use crate::ManagerView;
use drt_net::{LinkId, NodeId, Route};

/// Result of one bounded flood.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    /// The destination's candidate-route table (CRT), in arrival order.
    pub candidates: Vec<Candidate>,
    /// Messages and bytes the flood transmitted.
    pub overhead: RoutingOverhead,
    /// `true` when the defensive message cap cut the flood short.
    pub truncated: bool,
}

/// Simulates the bounded flood of one channel-discovery packet and returns
/// the destination's candidate routes plus the message cost.
///
/// Mechanics follow Section 4 exactly:
///
/// * the source bounds the flood at `hc_limit = ⌈ρ·D(src,dst)⌉ + ρ₀`;
/// * every forward from node `i` to neighbor `k` must pass the
///   **distance test** (`hc_curr + D_{dst,k} + 1 ≤ hc_limit`, consulting
///   the distance tables derived from [`ManagerView::hops`]), the
///   **loop-freedom test** (`k ∉ list`), and the **bandwidth test**
///   (`bw_req ≤ total − prime` on the link taken);
/// * a node that has already seen a copy of this connection's CDP applies
///   the **valid-detour test** `hc_curr ≤ α·min_dist + β` to incoming
///   copies first (its pending-connection-table entry holds `min_dist`);
/// * the destination records every arriving copy in its CRT (capped at
///   [`FloodingParams::max_candidates`]).
///
/// Messages are processed in FIFO order, which makes the flood — and thus
/// the whole scheme — deterministic.
///
/// The copies in flight are not materialised as [`Cdp`](super::Cdp)s.
/// Each forward appends one fixed-size record to a per-flood arena, which
/// doubles as the FIFO queue; a copy's trail (the CDP's `list` and `path`)
/// is the chain of records back to the source, walked for the
/// loop-freedom test and turned into a route only when the copy reaches
/// the destination. Bytes are accounted as
/// [`Cdp::wire_bytes`](super::Cdp::wire_bytes) would for the same copy.
pub fn flood(view: &ManagerView<'_>, req: &RouteRequest, params: FloodingParams) -> FloodOutcome {
    let net = view.net();
    let mut outcome = FloodOutcome {
        candidates: Vec::new(),
        overhead: RoutingOverhead::ZERO,
        truncated: false,
    };
    let Some(min_dist) = view.hops().hops(req.src, req.dst) else {
        return outcome; // destination unreachable
    };
    if req.src == req.dst {
        return outcome;
    }
    let hc_limit = (params.rho * min_dist as f64).ceil() as u32 + params.rho_offset;
    let bw = req.bandwidth();

    // Pending-connection-table state: min_dist per node for this flood.
    let mut pct_min: Vec<Option<u32>> = vec![None; net.num_nodes()];
    // Every forwarded copy, in send order; `head` is the FIFO's front.
    let mut arena: Vec<CdpCopy> = Vec::new();

    // Forward all admissible copies out of `holder`, which holds the copy
    // at arena index `at` (`None` for the source's initial CDP).
    let forward =
        |holder: NodeId, at: Option<usize>, arena: &mut Vec<CdpCopy>, out: &mut FloodOutcome| {
            let (hc, primary) = at.map_or((0, true), |i| (arena[i].hc, arena[i].primary));
            for &lid in net.out_links(holder) {
                let k = net.link(lid).dst();
                // Bandwidth test (includes liveness): the link must offer
                // backup headroom.
                if !view.usable_for_backup(lid, bw) {
                    continue;
                }
                // Loop-freedom test: the trail holds the tail node of every
                // link on the chain back to the source.
                if k == req.src || chain(arena, at).any(|c| net.link(c.link).src() == k) {
                    continue;
                }
                // Distance test: can the CDP still reach the destination
                // within the limit after taking this hop?
                let Some(rest) = view.hops().hops(k, req.dst) else {
                    continue;
                };
                if hc + 1 + rest > hc_limit {
                    continue;
                }
                out.overhead.messages += 1;
                // The child's trail is one entry per hop taken.
                out.overhead.bytes += cdp_wire_bytes(u64::from(hc + 1));
                arena.push(CdpCopy {
                    node: k,
                    link: lid,
                    parent: at,
                    hc: hc + 1,
                    primary: primary && bw <= view.free(lid),
                });
            }
        };

    // Source action (Section 4.2).
    forward(req.src, None, &mut arena, &mut outcome);
    pct_min[req.src.index()] = Some(0);

    // Message loop.
    let mut head = 0;
    while let Some(&m) = arena.get(head) {
        let at = Some(head);
        head += 1;
        if m.node == req.dst {
            // Destination action (Section 4.4): fill the CRT.
            if outcome.candidates.len() < params.max_candidates {
                let mut path: Vec<LinkId> = chain(&arena, at).map(|c| c.link).collect();
                path.reverse();
                if let Ok(route) = Route::new(net, path) {
                    outcome.candidates.push(Candidate {
                        route,
                        primary_flag: m.primary,
                        hops: m.hc,
                    });
                }
            }
            continue;
        }
        // Valid-detour test (Section 4.3) against this node's PCT entry.
        if let Some(best) = pct_min[m.node.index()] {
            if m.hc as f64 > params.alpha * best as f64 + params.beta as f64 {
                continue;
            }
            pct_min[m.node.index()] = Some(best.min(m.hc));
        } else {
            pct_min[m.node.index()] = Some(m.hc);
        }
        if outcome.overhead.messages >= params.max_messages {
            outcome.truncated = true;
            break;
        }
        forward(m.node, at, &mut arena, &mut outcome);
    }

    outcome
}

/// One forwarded CDP copy in a flood's arena: the fields of
/// [`Cdp`](super::Cdp) that differ between copies, with the trail
/// replaced by a parent index.
#[derive(Debug, Clone, Copy)]
struct CdpCopy {
    /// The node the copy is sent to.
    node: NodeId,
    /// The link it crosses to get there.
    link: LinkId,
    /// Arena index of the copy it was forwarded from; `None` when the
    /// source sent it.
    parent: Option<usize>,
    /// Hops taken, this one included (`hc-curr`).
    hc: u32,
    /// The CDP's `primary-flag`.
    primary: bool,
}

/// The copies from `at` back to the one the source sent, nearest first.
fn chain(arena: &[CdpCopy], at: Option<usize>) -> impl Iterator<Item = &CdpCopy> {
    std::iter::successors(at.map(|i| &arena[i]), |c| c.parent.map(|i| &arena[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::flooding::Cdp;
    use std::collections::VecDeque;

    /// The clone-per-copy engine the arena flood replaced, kept unedited
    /// as the oracle of [`flood`]: every forward clones the CDP's `list`
    /// and `path`.
    fn flood_reference(
        view: &ManagerView<'_>,
        req: &RouteRequest,
        params: FloodingParams,
    ) -> FloodOutcome {
        let net = view.net();
        let mut outcome = FloodOutcome {
            candidates: Vec::new(),
            overhead: RoutingOverhead::ZERO,
            truncated: false,
        };
        let Some(min_dist) = view.hops().hops(req.src, req.dst) else {
            return outcome; // destination unreachable
        };
        if req.src == req.dst {
            return outcome;
        }
        let hc_limit = (params.rho * min_dist as f64).ceil() as u32 + params.rho_offset;
        let bw = req.bandwidth();

        // Pending-connection-table state: min_dist per node for this flood.
        let mut pct_min: Vec<Option<u32>> = vec![None; net.num_nodes()];
        let mut queue: VecDeque<(NodeId, Cdp)> = VecDeque::new();

        // Forward all admissible copies out of `holder`.
        let forward = |holder: NodeId,
                       m: &Cdp,
                       queue: &mut VecDeque<(NodeId, Cdp)>,
                       out: &mut FloodOutcome| {
            for &lid in net.out_links(holder) {
                let k = net.link(lid).dst();
                // Bandwidth test (includes liveness): the link must offer
                // backup headroom.
                if !view.usable_for_backup(lid, bw) {
                    continue;
                }
                // Loop-freedom test.
                if k == m.src || m.list.contains(&k) {
                    continue;
                }
                // Distance test: can the CDP still reach the destination
                // within the limit after taking this hop?
                let Some(rest) = view.hops().hops(k, m.dst) else {
                    continue;
                };
                if m.hc_curr + 1 + rest > m.hc_limit {
                    continue;
                }
                let child = m.forwarded(holder, lid, bw <= view.free(lid));
                out.overhead.messages += 1;
                out.overhead.bytes += child.wire_bytes();
                queue.push_back((k, child));
            }
        };

        // Source action (Section 4.2).
        let initial = Cdp::initial(req.id, req.src, req.dst, hc_limit, bw);
        forward(req.src, &initial, &mut queue, &mut outcome);
        pct_min[req.src.index()] = Some(0);

        // Message loop.
        while let Some((node, m)) = queue.pop_front() {
            if node == m.dst {
                // Destination action (Section 4.4): fill the CRT.
                if outcome.candidates.len() < params.max_candidates {
                    if let Ok(route) = Route::new(net, m.path.clone()) {
                        outcome.candidates.push(Candidate {
                            route,
                            primary_flag: m.primary_flag,
                            hops: m.hc_curr,
                        });
                    }
                }
                continue;
            }
            // Valid-detour test (Section 4.3) against this node's PCT entry.
            if let Some(best) = pct_min[node.index()] {
                if m.hc_curr as f64 > params.alpha * best as f64 + params.beta as f64 {
                    continue;
                }
                pct_min[node.index()] = Some(best.min(m.hc_curr));
            } else {
                pct_min[node.index()] = Some(m.hc_curr);
            }
            if outcome.overhead.messages >= params.max_messages {
                outcome.truncated = true;
                break;
            }
            forward(node, &m, &mut queue, &mut outcome);
        }

        outcome
    }
    use crate::{ConnectionId, DrtpManager};
    use drt_net::{topology, Bandwidth, NodeId};
    use std::sync::Arc;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn request(src: u32, dst: u32) -> RouteRequest {
        RouteRequest::new(ConnectionId::new(0), NodeId::new(src), NodeId::new(dst), BW)
    }

    fn mesh_manager(rows: usize, cols: usize) -> DrtpManager {
        DrtpManager::new(Arc::new(
            topology::mesh(rows, cols, Bandwidth::from_mbps(10)).unwrap(),
        ))
    }

    fn assert_same_flood(view: &ManagerView<'_>, req: &RouteRequest, params: FloodingParams) {
        let got = flood(view, req, params);
        let want = flood_reference(view, req, params);
        let at = format!("{} -> {} at {params:?}", req.src, req.dst);
        assert_eq!(got.candidates, want.candidates, "candidates of {at}");
        assert_eq!(got.overhead, want.overhead, "overhead of {at}");
        assert_eq!(got.truncated, want.truncated, "truncation of {at}");
    }

    #[test]
    fn arena_flood_matches_reference_on_loaded_table1_network() {
        use rand::SeedableRng;
        // The Table-1 network: 60-node Waxman graph, E = 3, 100 Mb/s.
        let net = drt_net::topology::WaxmanConfig::new(60, 3.0)
            .capacity(Bandwidth::from_mbps(100))
            .seed(60)
            .build()
            .unwrap();
        let mut mgr = DrtpManager::new(Arc::new(net));
        let mut dlsr = crate::routing::DLsr::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let params = [
            FloodingParams::paper(),
            FloodingParams {
                max_messages: 10,
                ..FloodingParams::paper()
            },
            FloodingParams {
                max_candidates: 3,
                ..FloodingParams::paper()
            },
            FloodingParams {
                beta: 2,
                ..FloodingParams::paper()
            },
        ];
        let sample: Vec<u32> = (0..60).step_by(8).collect();
        let mut next_id = 100;
        for round in 0..4u32 {
            for &s in &sample {
                for &d in &sample {
                    // A small request, and one too large for some
                    // links' free pools (clearing the primary flag).
                    for kbps in [3_000, 40_000] {
                        let req = RouteRequest::new(
                            ConnectionId::new(0),
                            NodeId::new(s),
                            NodeId::new(d),
                            Bandwidth::from_kbps(kbps),
                        );
                        for p in params {
                            assert_same_flood(&mgr.view(), &req, p);
                        }
                    }
                }
            }
            // Load the network further with D-LSR admissions and fail one
            // link, so later rounds see fuller links and detours.
            for i in 0..60u32 {
                let (s, d) = ((i * 13 + round * 7) % 60, (i * 29 + 5 + round) % 60);
                if s != d {
                    let req = RouteRequest::new(
                        ConnectionId::new(next_id),
                        NodeId::new(s),
                        NodeId::new(d),
                        Bandwidth::from_kbps(12_000),
                    );
                    next_id += 1;
                    let _ = mgr.request_connection(&mut dlsr, req);
                }
            }
            let link = drt_net::LinkId::new(round * 37);
            mgr.inject_failure(link, &mut rng).unwrap();
        }
        mgr.assert_invariants();
    }

    #[test]
    fn arena_flood_matches_reference_on_unreachable_destination() {
        let mut b = drt_net::NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(1))
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), Bandwidth::from_mbps(1))
            .unwrap();
        let mgr = DrtpManager::new(Arc::new(b.build()));
        for (s, d) in [(0, 3), (0, 1), (2, 2)] {
            assert_same_flood(&mgr.view(), &request(s, d), FloodingParams::paper());
        }
    }

    #[test]
    fn all_candidates_respect_the_bound() {
        let mgr = mesh_manager(3, 3);
        let out = flood(&mgr.view(), &request(0, 8), FloodingParams::paper());
        assert!(!out.candidates.is_empty());
        assert!(!out.truncated);
        // D(0,8) = 4, limit = 6.
        for c in &out.candidates {
            assert!(c.hops <= 6, "{} exceeds hc_limit", c.route);
            assert_eq!(c.route.source(), NodeId::new(0));
            assert_eq!(c.route.dest(), NodeId::new(8));
            assert!(c.route.is_simple(mgr.net()), "loop-freedom violated");
            assert_eq!(c.hops as usize, c.route.len());
        }
    }

    #[test]
    fn shortest_candidate_is_min_hop() {
        let mgr = mesh_manager(4, 4);
        let out = flood(&mgr.view(), &request(0, 15), FloodingParams::paper());
        let best = out.candidates.iter().map(|c| c.hops).min().unwrap();
        assert_eq!(best, 6);
    }

    #[test]
    fn bandwidth_test_prunes_saturated_links() {
        let mut mgr = mesh_manager(3, 3);
        // Saturate the direct top-row links with primaries so the flood
        // cannot use them at all (prime == capacity).
        let mut scheme = crate::routing::PrimaryOnly::new();
        let mut relaxed = DrtpManager::with_config(
            Arc::new(mgr.net().clone()),
            crate::multiplex::MultiplexConfig::no_backup_baseline(),
        );
        std::mem::swap(&mut mgr, &mut relaxed);
        let per_conn = Bandwidth::from_mbps(10); // fills a link completely
        let r = RouteRequest::new(
            ConnectionId::new(9),
            NodeId::new(0),
            NodeId::new(1),
            per_conn,
        );
        mgr.request_connection(&mut scheme, r).unwrap();

        let out = flood(&mgr.view(), &request(0, 2), FloodingParams::paper());
        let direct = mgr.net().find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        for c in &out.candidates {
            assert!(
                !c.route.contains_link(direct),
                "flood crossed a saturated link"
            );
        }
    }

    #[test]
    fn primary_flag_reflects_free_bandwidth() {
        let mgr = mesh_manager(3, 3);
        let out = flood(&mgr.view(), &request(0, 2), FloodingParams::paper());
        // Empty network: every candidate can be a primary.
        assert!(out.candidates.iter().all(|c| c.primary_flag));
    }

    #[test]
    fn unreachable_destination_yields_nothing() {
        let mut b = drt_net::NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(1))
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), Bandwidth::from_mbps(1))
            .unwrap();
        let mgr = DrtpManager::new(Arc::new(b.build()));
        let out = flood(&mgr.view(), &request(0, 3), FloodingParams::paper());
        assert!(out.candidates.is_empty());
        assert_eq!(out.overhead.messages, 0);
    }

    #[test]
    fn message_cap_truncates() {
        let mgr = mesh_manager(5, 5);
        let out = flood(
            &mgr.view(),
            &request(0, 24),
            FloodingParams {
                max_messages: 10,
                ..FloodingParams::paper()
            },
        );
        assert!(out.truncated);
        assert!(out.overhead.messages <= 11);
    }

    #[test]
    fn wider_detour_slack_floods_more() {
        let mgr = mesh_manager(4, 4);
        let strict = flood(
            &mgr.view(),
            &request(0, 5),
            FloodingParams {
                beta: 0,
                ..FloodingParams::paper()
            },
        );
        let loose = flood(
            &mgr.view(),
            &request(0, 5),
            FloodingParams {
                beta: 2,
                ..FloodingParams::paper()
            },
        );
        assert!(loose.overhead.messages >= strict.overhead.messages);
    }

    #[test]
    fn candidate_cap_respected() {
        let mgr = mesh_manager(4, 4);
        let out = flood(
            &mgr.view(),
            &request(0, 15),
            FloodingParams {
                max_candidates: 3,
                ..FloodingParams::paper()
            },
        );
        assert_eq!(out.candidates.len(), 3);
    }
}
