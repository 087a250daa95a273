//! ISP-side tier-tagging policy: declarative rules instead of hand-tagged
//! routes.
//!
//! §5.1 sketches *that* routes get tagged; a real configuration needs
//! *rules* — "routes learned from customers are tier 0", "prefixes inside
//! 10/8 are tier 1", "everything else tier 2". [`TaggingPolicy`] is an
//! ordered rule list evaluated first-match, mirroring how route-maps
//! compose in router configs; [`TaggingPolicy::apply`] stamps the
//! matching tier into a route's extended communities before announcement.

use serde::Serialize;

use crate::bgp::{RouteAnnouncement, TierTag};
use crate::prefix::Ipv4Prefix;

/// What a rule matches on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Match {
    /// Route's prefix falls within this covering prefix.
    PrefixWithin(Ipv4Prefix),
    /// Route's origin AS (last on the path) equals this.
    OriginAs(u32),
    /// Route's AS-path length is at most this (e.g. 1 = learned directly
    /// from a customer/peer).
    PathLenAtMost(usize),
    /// Matches everything (the customary trailing default).
    Any,
}

impl Match {
    fn matches(&self, route: &RouteAnnouncement) -> bool {
        match self {
            Match::PrefixWithin(covering) => {
                covering.len() <= route.prefix.len() && covering.contains(route.prefix.network())
            }
            Match::OriginAs(asn) => route.origin_as() == Some(*asn),
            Match::PathLenAtMost(n) => route.as_path.len() <= *n,
            Match::Any => true,
        }
    }
}

/// One policy rule: first match wins.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Rule {
    /// Match condition.
    pub matcher: Match,
    /// Tier to tag on match.
    pub tier: TierTag,
}

/// An ordered tagging policy.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TaggingPolicy {
    rules: Vec<Rule>,
    /// AS number stamped into the communities.
    asn: u16,
}

impl TaggingPolicy {
    /// Creates an empty policy tagging on behalf of `asn`.
    pub fn new(asn: u16) -> TaggingPolicy {
        TaggingPolicy {
            rules: Vec::new(),
            asn,
        }
    }

    /// Appends a rule (evaluated after all earlier ones).
    pub fn rule(mut self, matcher: Match, tier: TierTag) -> TaggingPolicy {
        self.rules.push(Rule { matcher, tier });
        self
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the policy has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The tier the policy assigns to a route, if any rule matches.
    pub fn classify(&self, route: &RouteAnnouncement) -> Option<TierTag> {
        self.rules
            .iter()
            .find(|r| r.matcher.matches(route))
            .map(|r| r.tier)
    }

    /// Tags the route per the first matching rule; routes matching no
    /// rule pass through untagged (and will bill as unclassified).
    pub fn apply(&self, route: RouteAnnouncement) -> RouteAnnouncement {
        match self.classify(&route) {
            Some(tier) => route.with_tier(self.asn, tier),
            None => route,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn route(prefix: &str, as_path: Vec<u32>) -> RouteAnnouncement {
        RouteAnnouncement::new(prefix.parse().unwrap(), as_path, Ipv4Addr::new(10, 0, 0, 1))
    }

    fn policy() -> TaggingPolicy {
        TaggingPolicy::new(64_500)
            .rule(Match::PathLenAtMost(1), TierTag(0)) // direct customers
            .rule(
                Match::PrefixWithin("10.0.0.0/8".parse().unwrap()),
                TierTag(1),
            )
            .rule(Match::OriginAs(15_169), TierTag(1)) // big content at a discount
            .rule(Match::Any, TierTag(2)) // global transit
    }

    #[test]
    fn first_match_wins_in_order() {
        let p = policy();
        // Customer route inside 10/8: rule 1 (path length) fires first.
        let r = route("10.1.0.0/16", vec![65_001]);
        assert_eq!(p.classify(&r), Some(TierTag(0)));
        // Longer path inside 10/8: falls to the prefix rule.
        let r = route("10.1.0.0/16", vec![65_001, 65_002]);
        assert_eq!(p.classify(&r), Some(TierTag(1)));
    }

    #[test]
    fn origin_as_rule() {
        let p = policy();
        let r = route("142.250.0.0/15", vec![3_356, 15_169]);
        assert_eq!(p.classify(&r), Some(TierTag(1)));
    }

    #[test]
    fn default_rule_catches_the_rest() {
        let p = policy();
        let r = route("93.184.0.0/16", vec![1, 2, 3]);
        assert_eq!(p.classify(&r), Some(TierTag(2)));
    }

    #[test]
    fn no_match_leaves_route_untagged() {
        let p = TaggingPolicy::new(1).rule(Match::OriginAs(99), TierTag(0));
        let r = route("9.9.9.0/24", vec![5]);
        assert_eq!(p.classify(&r), None);
        assert_eq!(p.apply(r).tier(), None);
    }

    #[test]
    fn apply_stamps_the_community() {
        let p = policy();
        let tagged = p.apply(route("10.2.0.0/16", vec![65_001]));
        assert_eq!(tagged.tier(), Some(TierTag(0)));
    }

    #[test]
    fn prefix_within_requires_coverage_not_overlap() {
        let m = Match::PrefixWithin("10.1.0.0/16".parse().unwrap());
        // A /8 containing the matcher is NOT within it.
        assert!(!m.matches(&route("10.0.0.0/8", vec![1])));
        // A /24 inside it is.
        assert!(m.matches(&route("10.1.2.0/24", vec![1])));
        // A sibling /16 is not.
        assert!(!m.matches(&route("10.2.0.0/16", vec![1])));
    }

    #[test]
    fn policy_feeds_rib_and_accounting() {
        use crate::bgp::Rib;
        let p = policy();
        let mut rib = Rib::new();
        rib.announce(p.apply(route("10.7.0.0/16", vec![65_001])));
        rib.announce(p.apply(route("0.0.0.0/0", vec![1, 2, 3])));
        assert_eq!(rib.tier_for(Ipv4Addr::new(10, 7, 1, 1)), Some(TierTag(0)));
        assert_eq!(rib.tier_for(Ipv4Addr::new(8, 8, 8, 8)), Some(TierTag(2)));
    }
}
