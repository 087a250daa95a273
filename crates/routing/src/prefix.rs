//! IPv4 prefixes.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// An IPv4 CIDR prefix (address + mask length), always stored with host
/// bits zeroed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

/// Prefix construction/parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Mask length above 32.
    BadLength(u8),
    /// Unparseable textual form.
    BadFormat(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::BadLength(l) => write!(f, "prefix length {l} exceeds 32"),
            PrefixError::BadFormat(s) => write!(f, "malformed prefix {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Ipv4Prefix {
    /// Builds a prefix, zeroing host bits (so `10.1.2.3/8` becomes
    /// `10.0.0.0/8`).
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Ipv4Prefix, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadLength(len));
        }
        let raw = u32::from(addr);
        let masked = if len == 0 {
            0
        } else {
            raw & (u32::MAX << (32 - len))
        };
        Ok(Ipv4Prefix { addr: masked, len })
    }

    /// The default route `0.0.0.0/0`.
    pub fn default_route() -> Ipv4Prefix {
        Ipv4Prefix { addr: 0, len: 0 }
    }

    /// Network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// Mask length in bits.
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is not "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the default route.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// True if `addr` falls within this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.len);
        (u32::from(addr) & mask) == self.addr
    }

    /// The `i`-th bit of the network address, 0-indexed from the top
    /// (bit 0 is the most significant). Used by the trie.
    pub(crate) fn bit(&self, i: u8) -> bool {
        (self.addr >> (31 - i)) & 1 == 1
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Ipv4Prefix, PrefixError> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::BadFormat(s.to_string()))?;
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| PrefixError::BadFormat(s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| PrefixError::BadFormat(s.to_string()))?;
        Ipv4Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_bits_are_zeroed() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 8).unwrap();
        assert_eq!(p.network(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(p.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn contains_respects_mask() {
        let p: Ipv4Prefix = "192.168.0.0/16".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 168, 255, 1)));
        assert!(!p.contains(Ipv4Addr::new(192, 169, 0, 1)));
    }

    #[test]
    fn slash32_matches_exactly_one_host() {
        let p: Ipv4Prefix = "1.2.3.4/32".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(!p.contains(Ipv4Addr::new(1, 2, 3, 5)));
    }

    #[test]
    fn default_route_contains_everything() {
        let p = Ipv4Prefix::default_route();
        assert!(p.is_default());
        assert!(p.contains(Ipv4Addr::new(0, 0, 0, 0)));
        assert!(p.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }

    #[test]
    fn rejects_bad_lengths_and_formats() {
        assert_eq!(
            Ipv4Prefix::new(Ipv4Addr::UNSPECIFIED, 33),
            Err(PrefixError::BadLength(33))
        );
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/xx".parse::<Ipv4Prefix>().is_err());
        assert!("not-an-ip/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn bit_indexing_from_msb() {
        let p: Ipv4Prefix = "128.0.0.0/1".parse().unwrap();
        assert!(p.bit(0));
        let p: Ipv4Prefix = "64.0.0.0/2".parse().unwrap();
        assert!(!p.bit(0));
        assert!(p.bit(1));
    }

    #[test]
    fn ordering_is_consistent() {
        let a: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
        let c: Ipv4Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a < b, "same network, longer mask sorts after");
        assert!(b < c);
    }
}
