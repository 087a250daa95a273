//! Longest-prefix-match binary trie over IPv4 prefixes.
//!
//! The flow-based accounting path (§5.2, Fig. 17b) maps every flow's
//! destination to a pricing tier "using the routing table information";
//! that lookup is longest-prefix match, implemented here as a plain binary
//! trie — simple, dependency-free, and fast enough for the experiment
//! scale (lookups are O(32) worst case).

use std::net::Ipv4Addr;

use crate::prefix::Ipv4Prefix;

#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Default for Node<V> {
    fn default() -> Node<V> {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

/// A binary LPM trie mapping prefixes to values.
///
/// ```
/// use transit_routing::{Ipv4Prefix, PrefixTrie};
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("10.0.0.0/8".parse::<Ipv4Prefix>()?, "coarse");
/// trie.insert("10.1.0.0/16".parse::<Ipv4Prefix>()?, "fine");
/// let (prefix, value) = trie.lookup("10.1.2.3".parse()?).unwrap();
/// assert_eq!(*value, "fine");
/// assert_eq!(prefix.to_string(), "10.1.0.0/16");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    root: Node<V>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> PrefixTrie<V> {
        PrefixTrie {
            root: Node::default(),
            len: 0,
        }
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> PrefixTrie<V> {
        PrefixTrie::default()
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts (or replaces) the value for `prefix`, returning the
    /// previous value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].get_or_insert_with(Box::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the value stored at exactly `prefix`, returning it.
    ///
    /// Nodes are not pruned (the trie is write-mostly in this workspace);
    /// lookups remain correct because only `value` presence matters.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Exact-match lookup of a stored prefix.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&V> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Longest-prefix-match lookup: the value of the most specific stored
    /// prefix containing `addr`, together with that prefix.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &V)> {
        let raw = u32::from(addr);
        let mut node = &self.root;
        let mut best: Option<(u8, &V)> = node.value.as_ref().map(|v| (0, v));
        for i in 0..32u8 {
            let bit = ((raw >> (31 - i)) & 1) as usize;
            match node.children[bit].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| {
            let prefix = Ipv4Prefix::new(addr, len).expect("len <= 32");
            (prefix, v)
        })
    }
}

impl<V> FromIterator<(Ipv4Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Ipv4Prefix, V)>>(iter: T) -> PrefixTrie<V> {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_wins() {
        let trie: PrefixTrie<&str> = [
            (p("10.0.0.0/8"), "coarse"),
            (p("10.1.0.0/16"), "finer"),
            (p("10.1.2.0/24"), "finest"),
        ]
        .into_iter()
        .collect();

        let (pref, v) = trie.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(*v, "finest");
        assert_eq!(pref, p("10.1.2.0/24"));
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 1, 9, 9)).unwrap().1, "finer");
        assert_eq!(
            *trie.lookup(Ipv4Addr::new(10, 9, 9, 9)).unwrap().1,
            "coarse"
        );
        assert!(trie.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn default_route_backstops() {
        let trie: PrefixTrie<&str> = [(p("0.0.0.0/0"), "default"), (p("192.168.0.0/16"), "lan")]
            .into_iter()
            .collect();
        assert_eq!(
            *trie.lookup(Ipv4Addr::new(8, 8, 8, 8)).unwrap().1,
            "default"
        );
        assert_eq!(
            *trie.lookup(Ipv4Addr::new(192, 168, 3, 4)).unwrap().1,
            "lan"
        );
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut trie = PrefixTrie::new();
        assert_eq!(trie.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(trie.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.get(p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn get_is_exact_not_lpm() {
        let mut trie = PrefixTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        assert_eq!(trie.get(p("10.0.0.0/16")), None);
        assert_eq!(trie.get(p("10.0.0.0/8")), Some(&1));
    }

    #[test]
    fn slash32_lookup() {
        let mut trie = PrefixTrie::new();
        trie.insert(p("1.2.3.4/32"), "host");
        assert_eq!(*trie.lookup(Ipv4Addr::new(1, 2, 3, 4)).unwrap().1, "host");
        assert!(trie.lookup(Ipv4Addr::new(1, 2, 3, 5)).is_none());
    }

    #[test]
    fn empty_trie_finds_nothing() {
        let trie: PrefixTrie<u8> = PrefixTrie::new();
        assert!(trie.is_empty());
        assert!(trie.lookup(Ipv4Addr::new(1, 1, 1, 1)).is_none());
    }

    #[test]
    fn dense_sibling_prefixes() {
        // Both halves of 10.0.0.0/8 at /9 plus the parent: LPM picks the
        // right /9 for each half.
        let trie: PrefixTrie<&str> = [
            (p("10.0.0.0/8"), "parent"),
            (p("10.0.0.0/9"), "low"),
            (p("10.128.0.0/9"), "high"),
        ]
        .into_iter()
        .collect();
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 0, 0, 1)).unwrap().1, "low");
        assert_eq!(
            *trie.lookup(Ipv4Addr::new(10, 200, 0, 1)).unwrap().1,
            "high"
        );
    }

    #[test]
    fn remove_restores_fallback_to_covering_prefix() {
        let mut trie: PrefixTrie<&str> = [(p("10.0.0.0/8"), "coarse"), (p("10.1.0.0/16"), "fine")]
            .into_iter()
            .collect();
        let addr = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(*trie.lookup(addr).unwrap().1, "fine");
        assert_eq!(trie.remove(p("10.1.0.0/16")), Some("fine"));
        assert_eq!(trie.len(), 1);
        assert_eq!(*trie.lookup(addr).unwrap().1, "coarse");
        // Removing again is a no-op.
        assert_eq!(trie.remove(p("10.1.0.0/16")), None);
        assert_eq!(trie.len(), 1);
        // Removing a never-inserted deeper prefix is a no-op too.
        assert_eq!(trie.remove(p("10.1.2.0/24")), None);
    }

    #[test]
    fn remove_then_reinsert() {
        let mut trie = PrefixTrie::new();
        trie.insert(p("192.168.0.0/16"), 1);
        trie.remove(p("192.168.0.0/16"));
        assert!(trie.lookup(Ipv4Addr::new(192, 168, 1, 1)).is_none());
        trie.insert(p("192.168.0.0/16"), 2);
        assert_eq!(*trie.lookup(Ipv4Addr::new(192, 168, 1, 1)).unwrap().1, 2);
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn many_prefixes_consistent_with_linear_scan() {
        // Cross-check LPM against a brute-force reference.
        let prefixes: Vec<(Ipv4Prefix, usize)> = (0u32..200)
            .map(|i| {
                let addr = Ipv4Addr::from(i.wrapping_mul(0x9E37_79B9));
                let len = 8 + (i % 17) as u8;
                (Ipv4Prefix::new(addr, len).unwrap(), i as usize)
            })
            .collect();
        let trie: PrefixTrie<usize> = prefixes.iter().copied().collect();

        for j in 0u32..500 {
            let addr = Ipv4Addr::from(j.wrapping_mul(0x6C62_272E));
            let expected = prefixes
                .iter()
                .filter(|(pref, _)| pref.contains(addr))
                .max_by_key(|(pref, _)| pref.len())
                .map(|(pref, v)| (pref.len(), *v));
            let got = trie.lookup(addr).map(|(pref, v)| (pref.len(), *v));
            // Note: equal-length duplicates are replaced on insert, and
            // the brute force picks max length; values may differ only if
            // two identical prefixes existed, which the generator avoids.
            assert_eq!(got.map(|g| g.0), expected.map(|e| e.0), "addr {addr}");
        }
    }
}
