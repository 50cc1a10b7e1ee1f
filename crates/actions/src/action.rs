//! Action identities.

use std::fmt;

/// Identity of an atomic action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(u64);

impl ActionId {
    /// Reconstructs an id from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        ActionId(raw)
    }

    /// The raw value (also used as the stable [`groupview_store::TxToken`]).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_and_display() {
        let a = ActionId::from_raw(9);
        assert_eq!(a.raw(), 9);
        assert_eq!(a.to_string(), "a9");
    }
}
