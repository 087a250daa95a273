//! BGP-lite: route announcements with tier-tagging extended communities
//! (§5.1).
//!
//! The paper's deployment story: "the upstream ISP ... can 'tag' routes it
//! announces with a label that indicates which tier the route should be
//! associated with; ISPs can use BGP extended communities to perform this
//! tagging. Because the communities propagate with the route, the customer
//! can establish routing policies on every router within its own network
//! based on these tags."
//!
//! We model exactly the parts that matter for tiered pricing: prefixes,
//! AS paths (for a shortest-path tie-break), extended communities carrying
//! a [`TierTag`], and a RIB ([`Rib`]) answering longest-prefix-match
//! queries with the winning route.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::prefix::Ipv4Prefix;
use crate::trie::PrefixTrie;

/// A pricing-tier label carried in an extended community.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TierTag(pub u8);

/// A BGP extended community (RFC 4360): 8 opaque bytes. We use the
/// two-octet-AS specific type (0x00) with a reserved sub-type 0x54 ("T"
/// for tier) to carry tier tags; arbitrary communities round-trip
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExtCommunity(pub u64);

impl ExtCommunity {
    const TIER_TYPE: u64 = 0x0054; // type 0x00, sub-type 0x54

    /// Encodes a tier tag from AS `asn`.
    pub fn tier(asn: u16, tag: TierTag) -> ExtCommunity {
        ExtCommunity(Self::TIER_TYPE << 48 | (asn as u64) << 32 | tag.0 as u64)
    }

    /// Decodes a tier tag, if this community is one.
    pub fn as_tier(&self) -> Option<TierTag> {
        if self.0 >> 48 == Self::TIER_TYPE {
            Some(TierTag((self.0 & 0xFF) as u8))
        } else {
            None
        }
    }
}

/// A route announcement: prefix, path, next hop, and communities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteAnnouncement {
    /// Announced prefix.
    pub prefix: Ipv4Prefix,
    /// AS path, nearest AS first.
    pub as_path: Vec<u32>,
    /// BGP next hop.
    pub next_hop: Ipv4Addr,
    /// Extended communities attached to the route.
    pub communities: Vec<ExtCommunity>,
}

impl RouteAnnouncement {
    /// Builds an announcement.
    pub fn new(prefix: Ipv4Prefix, as_path: Vec<u32>, next_hop: Ipv4Addr) -> RouteAnnouncement {
        RouteAnnouncement {
            prefix,
            as_path,
            next_hop,
            communities: Vec::new(),
        }
    }

    /// Attaches a tier tag (the §5.1 tagging step), replacing any existing
    /// one.
    pub fn with_tier(mut self, asn: u16, tag: TierTag) -> RouteAnnouncement {
        self.communities.retain(|c| c.as_tier().is_none());
        self.communities.push(ExtCommunity::tier(asn, tag));
        self
    }

    /// The tier tag, if tagged.
    pub fn tier(&self) -> Option<TierTag> {
        self.communities.iter().find_map(|c| c.as_tier())
    }

    /// The origin AS (last on the path).
    pub fn origin_as(&self) -> Option<u32> {
        self.as_path.last().copied()
    }
}

/// A routing information base with BGP-lite best-path selection:
/// per prefix, the shortest AS path wins (ties: first received kept).
#[derive(Debug, Clone, Default)]
pub struct Rib {
    trie: PrefixTrie<RouteAnnouncement>,
}

impl Rib {
    /// Creates an empty RIB.
    pub fn new() -> Rib {
        Rib::default()
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Offers an announcement; installs it if no route exists for the
    /// prefix or its AS path is strictly shorter than the incumbent's.
    /// Returns whether it was installed.
    pub fn announce(&mut self, route: RouteAnnouncement) -> bool {
        match self.trie.get(route.prefix) {
            Some(current) if current.as_path.len() <= route.as_path.len() => false,
            _ => {
                self.trie.insert(route.prefix, route);
                true
            }
        }
    }

    /// Withdraws the route for `prefix` (exact match), returning it.
    /// Subsequent lookups fall back to any covering prefix — BGP's
    /// behavior when a more specific is withdrawn.
    pub fn withdraw(&mut self, prefix: Ipv4Prefix) -> Option<RouteAnnouncement> {
        self.trie.remove(prefix)
    }

    /// Longest-prefix-match route lookup.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&RouteAnnouncement> {
        self.trie.lookup(addr).map(|(_, r)| r)
    }

    /// The pricing tier of the best route for `addr` (the accounting-side
    /// use of the tags, §5.2).
    pub fn tier_for(&self, addr: Ipv4Addr) -> Option<TierTag> {
        self.lookup(addr).and_then(|r| r.tier())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn hop() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }

    #[test]
    fn community_roundtrip() {
        let c = ExtCommunity::tier(64_500, TierTag(3));
        assert_eq!(c.as_tier(), Some(TierTag(3)));
    }

    #[test]
    fn non_tier_community_decodes_none() {
        // An RT community (type 0x0002) is not a tier tag.
        let c = ExtCommunity(0x0002_0000_0000_0001);
        assert_eq!(c.as_tier(), None);
    }

    #[test]
    fn with_tier_replaces_existing_tag() {
        let r = RouteAnnouncement::new(p("10.0.0.0/8"), vec![1], hop())
            .with_tier(64_500, TierTag(1))
            .with_tier(64_500, TierTag(2));
        assert_eq!(r.tier(), Some(TierTag(2)));
        assert_eq!(
            r.communities
                .iter()
                .filter(|c| c.as_tier().is_some())
                .count(),
            1
        );
    }

    #[test]
    fn tier_tags_propagate_through_rib() {
        let mut rib = Rib::new();
        rib.announce(
            RouteAnnouncement::new(p("10.0.0.0/8"), vec![100, 200], hop())
                .with_tier(64_500, TierTag(0)),
        );
        rib.announce(
            RouteAnnouncement::new(p("172.16.0.0/12"), vec![100, 300], hop())
                .with_tier(64_500, TierTag(1)),
        );
        assert_eq!(rib.tier_for(Ipv4Addr::new(10, 1, 1, 1)), Some(TierTag(0)));
        assert_eq!(rib.tier_for(Ipv4Addr::new(172, 20, 0, 1)), Some(TierTag(1)));
        assert_eq!(rib.tier_for(Ipv4Addr::new(8, 8, 8, 8)), None);
    }

    #[test]
    fn shorter_as_path_wins() {
        let mut rib = Rib::new();
        assert!(rib.announce(RouteAnnouncement::new(
            p("10.0.0.0/8"),
            vec![1, 2, 3],
            hop()
        )));
        // Longer path rejected.
        assert!(!rib.announce(RouteAnnouncement::new(
            p("10.0.0.0/8"),
            vec![1, 2, 3, 4],
            hop()
        )));
        // Shorter path replaces.
        assert!(rib.announce(RouteAnnouncement::new(p("10.0.0.0/8"), vec![9], hop())));
        assert_eq!(
            rib.lookup(Ipv4Addr::new(10, 0, 0, 1)).unwrap().as_path,
            vec![9]
        );
    }

    #[test]
    fn equal_length_path_keeps_incumbent() {
        let mut rib = Rib::new();
        let first = RouteAnnouncement::new(p("10.0.0.0/8"), vec![1, 2], hop());
        rib.announce(first.clone());
        assert!(!rib.announce(RouteAnnouncement::new(p("10.0.0.0/8"), vec![7, 8], hop())));
        assert_eq!(rib.lookup(Ipv4Addr::new(10, 0, 0, 1)).unwrap(), &first);
    }

    #[test]
    fn more_specific_route_preferred_over_tier() {
        // A more specific untagged route hides the covering tagged route —
        // faithful LPM semantics the accounting layer must live with.
        let mut rib = Rib::new();
        rib.announce(
            RouteAnnouncement::new(p("10.0.0.0/8"), vec![1], hop()).with_tier(1, TierTag(0)),
        );
        rib.announce(RouteAnnouncement::new(p("10.1.0.0/16"), vec![1, 2], hop()));
        assert_eq!(rib.tier_for(Ipv4Addr::new(10, 1, 0, 1)), None);
        assert_eq!(rib.tier_for(Ipv4Addr::new(10, 2, 0, 1)), Some(TierTag(0)));
    }

    #[test]
    fn withdraw_exposes_covering_route() {
        let mut rib = Rib::new();
        rib.announce(
            RouteAnnouncement::new(p("0.0.0.0/0"), vec![1, 2], hop()).with_tier(1, TierTag(2)),
        );
        rib.announce(
            RouteAnnouncement::new(p("10.0.0.0/8"), vec![1], hop()).with_tier(1, TierTag(0)),
        );
        let addr = Ipv4Addr::new(10, 5, 5, 5);
        assert_eq!(rib.tier_for(addr), Some(TierTag(0)));
        let withdrawn = rib.withdraw(p("10.0.0.0/8")).unwrap();
        assert_eq!(withdrawn.tier(), Some(TierTag(0)));
        // Falls back to the default route's tier.
        assert_eq!(rib.tier_for(addr), Some(TierTag(2)));
        assert_eq!(rib.len(), 1);
        assert!(rib.withdraw(p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn withdraw_then_reannounce_accepts_any_path() {
        // After withdrawal the slate is clean: even a longer path installs.
        let mut rib = Rib::new();
        rib.announce(RouteAnnouncement::new(p("10.0.0.0/8"), vec![1], hop()));
        rib.withdraw(p("10.0.0.0/8"));
        assert!(rib.announce(RouteAnnouncement::new(
            p("10.0.0.0/8"),
            vec![1, 2, 3, 4],
            hop()
        )));
    }

    #[test]
    fn origin_as_is_path_tail() {
        let r = RouteAnnouncement::new(p("10.0.0.0/8"), vec![100, 200, 300], hop());
        assert_eq!(r.origin_as(), Some(300));
        let empty = RouteAnnouncement::new(p("10.0.0.0/8"), vec![], hop());
        assert_eq!(empty.origin_as(), None);
    }
}
