//! Lock-key namespaces: one per kind of lock-controlled entry.

use groupview_actions::LockKey;
use groupview_store::Uid;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Namespace of Object Server database entries.
pub const SERVER_SPACE: u16 = 1;
/// Namespace of Object State database entries.
pub const STATE_SPACE: u16 = 2;
/// Namespace of the objects themselves (operation invocation).
pub const OBJECT_SPACE: u16 = 3;
/// Namespace of name directory entries.
pub const DIRECTORY_SPACE: u16 = 4;

/// The lock key protecting `uid`'s Object Server database entry.
pub fn server_entry_key(uid: Uid) -> LockKey {
    LockKey::new(SERVER_SPACE, uid.raw())
}

/// The lock key protecting `uid`'s Object State database entry.
pub fn state_entry_key(uid: Uid) -> LockKey {
    LockKey::new(STATE_SPACE, uid.raw())
}

/// The lock key serialising operations on `uid` itself.
pub fn object_key(uid: Uid) -> LockKey {
    LockKey::new(OBJECT_SPACE, uid.raw())
}

/// The lock key protecting one directory name.
pub fn name_key(name: &str) -> LockKey {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    LockKey::new(DIRECTORY_SPACE, h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_do_not_collide() {
        let uid = Uid::from_raw(9);
        let keys = [
            server_entry_key(uid),
            state_entry_key(uid),
            object_key(uid),
            name_key("9"),
        ];
        for (i, a) in keys.iter().enumerate() {
            assert_eq!(a.space(), i as u16 + 1);
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(keys[..3].iter().all(|k| k.key() == 9));
    }
}
