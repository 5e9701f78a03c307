//! The channel-discovery packet (CDP) and candidate routes.

use crate::ConnectionId;
use drt_net::{Bandwidth, LinkId, NodeId, Route};
use std::fmt;

/// A channel-discovery packet in flight (Section 4.1).
///
/// Field names follow the paper: `srce-id`/`dest-id`/`conn-id` identify
/// the request, `hc-limit`/`hc-curr` bound and track the hop count,
/// `bw-req` is the requested bandwidth, `primary-flag` records whether the
/// traversed route could serve as a primary, and `list` is the node trail
/// (used for loop-free flooding and final route construction). The `path`
/// field additionally records the traversed links — the paper
/// reconstructs them from `list`; carrying them directly is equivalent and
/// unambiguous in a multigraph-free network.
///
/// [`flood`](super::flood) simulates the same packets without building
/// one `Cdp` per copy: it keeps each copy's trail as a chain of arena
/// records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cdp {
    /// The connection being discovered (`conn-id`).
    pub conn: ConnectionId,
    /// Source node of the connection (`srce-id`).
    pub src: NodeId,
    /// Destination node (`dest-id`).
    pub dst: NodeId,
    /// Maximum hop count this CDP may take (`hc-limit`).
    pub hc_limit: u32,
    /// Hops taken so far (`hc-curr`).
    pub hc_curr: u32,
    /// Requested bandwidth (`bw-req`).
    pub bw_req: Bandwidth,
    /// `true` while every traversed link had `total − (prime + spare) ≥
    /// bw_req` — the route can carry a *primary* channel.
    pub primary_flag: bool,
    /// Nodes traversed so far (`list`); the current holder is appended at
    /// each forward.
    pub list: Vec<NodeId>,
    /// Links traversed so far (parallel to `list`).
    pub path: Vec<LinkId>,
}

/// Fixed header size of a CDP on the wire: ids, hop counts, bandwidth,
/// flags (modelled after the field list of Section 4.1).
pub(crate) const CDP_HEADER_BYTES: u64 = 28;

/// Size on the wire of a CDP whose trail holds `trail_len` nodes: the
/// header plus 4 bytes per trail entry. The trail gains one node per hop,
/// so a copy's trail length equals its `hc_curr`.
pub(crate) const fn cdp_wire_bytes(trail_len: u64) -> u64 {
    CDP_HEADER_BYTES + 4 * trail_len
}

impl Cdp {
    /// The initial CDP composed by the source (Section 4.2).
    pub fn initial(
        conn: ConnectionId,
        src: NodeId,
        dst: NodeId,
        hc_limit: u32,
        bw_req: Bandwidth,
    ) -> Self {
        Cdp {
            conn,
            src,
            dst,
            hc_limit,
            hc_curr: 0,
            bw_req,
            primary_flag: true,
            list: Vec::new(),
            path: Vec::new(),
        }
    }

    /// The copy forwarded from `holder` across `link`: hop count advances,
    /// `holder` joins the trail, and the primary flag is and-ed with this
    /// link's free-bandwidth test.
    pub fn forwarded(&self, holder: NodeId, link: LinkId, link_has_free_bw: bool) -> Self {
        let mut next = self.clone();
        next.hc_curr += 1;
        next.list.push(holder);
        next.path.push(link);
        next.primary_flag &= link_has_free_bw;
        next
    }

    /// Size of this packet on the wire (header + 4 bytes per trail entry).
    pub fn wire_bytes(&self) -> u64 {
        cdp_wire_bytes(self.list.len() as u64)
    }
}

impl fmt::Display for Cdp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CDP[{} {} -> {}, hc {}/{}, primary={}]",
            self.conn, self.src, self.dst, self.hc_curr, self.hc_limit, self.primary_flag
        )
    }
}

/// One entry of the destination's candidate-route table (CRT).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The discovered route.
    pub route: Route,
    /// Whether the route can carry a primary channel.
    pub primary_flag: bool,
    /// Hop count of the route.
    pub hops: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_updates_fields() {
        let base = Cdp::initial(
            ConnectionId::new(1),
            NodeId::new(0),
            NodeId::new(5),
            6,
            Bandwidth::from_kbps(3_000),
        );
        assert_eq!(base.hc_curr, 0);
        assert!(base.primary_flag);
        assert_eq!(base.wire_bytes(), CDP_HEADER_BYTES);

        let fwd = base.forwarded(NodeId::new(0), LinkId::new(3), true);
        assert_eq!(fwd.hc_curr, 1);
        assert_eq!(fwd.list, vec![NodeId::new(0)]);
        assert_eq!(fwd.path, vec![LinkId::new(3)]);
        assert!(fwd.primary_flag);

        let fwd2 = fwd.forwarded(NodeId::new(2), LinkId::new(9), false);
        assert!(!fwd2.primary_flag, "one saturated link clears the flag");
        // The flag never recovers.
        let fwd3 = fwd2.forwarded(NodeId::new(3), LinkId::new(1), true);
        assert!(!fwd3.primary_flag);
        assert_eq!(fwd3.wire_bytes(), CDP_HEADER_BYTES + 12);
    }

    #[test]
    fn wire_bytes_follow_the_shared_formula_at_every_hop() {
        let mut c = Cdp::initial(
            ConnectionId::new(1),
            NodeId::new(0),
            NodeId::new(9),
            9,
            Bandwidth::from_kbps(3_000),
        );
        for hop in 0..8u32 {
            assert_eq!(c.wire_bytes(), cdp_wire_bytes(u64::from(c.hc_curr)));
            c = c.forwarded(NodeId::new(hop), LinkId::new(hop), hop % 3 != 0);
        }
    }

    #[test]
    fn display_shows_progress() {
        let c = Cdp::initial(
            ConnectionId::new(2),
            NodeId::new(1),
            NodeId::new(4),
            5,
            Bandwidth::from_kbps(100),
        );
        assert_eq!(c.to_string(), "CDP[D2 n1 -> n4, hc 0/5, primary=true]");
    }
}
