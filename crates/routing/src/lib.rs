//! # transit-routing
//!
//! BGP-lite routing and accounting substrate for tiered pricing, per the
//! paper's deployment section (§5):
//!
//! * [`prefix`] / [`trie`] — IPv4 prefixes and a longest-prefix-match
//!   binary trie.
//! * [`bgp`] — route announcements carrying tier tags in BGP extended
//!   communities (§5.1), and a RIB with shortest-AS-path selection.
//! * [`accounting`] — the two accounting implementations of §5.2/Fig. 17:
//!   SNMP-polled per-tier links billed at the 95th percentile, and
//!   NetFlow+RIB flow accounting billed on volume.
//! * [`policy`] — the customer-side reaction of §5.1: per-destination
//!   hot-potato vs own-backbone egress decisions driven by tier tags.
//! * [`tagging`] — the ISP-side configuration: ordered first-match rules
//!   (route-map style) assigning tiers to announced routes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod bgp;
pub mod policy;
pub mod prefix;
pub mod tagging;
pub mod trie;

pub use accounting::{Bill, FlowAccounting, LinkAccounting, TierCharge, TierRate};
pub use bgp::{ExtCommunity, Rib, RouteAnnouncement, TierTag};
pub use policy::{BackboneOption, Egress, EgressPlan, EgressPolicy};
pub use prefix::{Ipv4Prefix, PrefixError};
pub use tagging::{Match, Rule, TaggingPolicy};
pub use trie::PrefixTrie;
